#include "sem/slice.hpp"

#include <vector>

namespace svlc::sem {

using namespace hir;

namespace {

SliceGraph::Edges compute_edges(const Design& design, const Equations& eqs,
                                NetId n) {
    SliceGraph::Edges e;
    const Net& net = design.net(n);
    for (const LabelAtom& atom : net.label.atoms) {
        if (atom.kind != LabelAtom::Kind::Func)
            continue;
        e.funcs.push_back(atom.func);
        for (NetId arg : atom.args)
            e.nets.push_back(arg);
    }
    if (TermId def = eqs.def(net.id); def != kNoTerm) {
        std::vector<NetId> plain, primed;
        eqs.terms.collect_reads(def, plain, primed);
        e.nets.insert(e.nets.end(), plain.begin(), plain.end());
        e.nets.insert(e.nets.end(), primed.begin(), primed.end());
    }
    return e;
}

} // namespace

const SliceGraph::Edges& SliceGraph::edges(const Design& design,
                                           const Equations& eqs, NetId n) {
    auto it = cache_.find(n);
    if (it == cache_.end())
        it = cache_.emplace(n, compute_edges(design, eqs, n)).first;
    return it->second;
}

DependencySlice dependency_slice(const Design& design, const Equations& eqs,
                                 const std::vector<NetId>& roots,
                                 SliceGraph* graph) {
    DependencySlice out;
    std::vector<bool> net_seen(design.nets.size(), false);
    std::vector<bool> func_seen(design.policy.function_count(), false);

    auto add_net = [&](NetId n) {
        if (n >= design.nets.size() || net_seen[n])
            return;
        net_seen[n] = true;
        out.nets.push_back(n);
    };
    auto add_func = [&](FuncId f) {
        if (f < func_seen.size() && !func_seen[f]) {
            func_seen[f] = true;
            out.functions.push_back(f);
        }
    };
    for (NetId r : roots)
        add_net(r);

    // Worklist expansion. out.nets doubles as the queue: position i is
    // processed exactly once, and discoveries append past it, so the
    // closure comes out in deterministic first-occurrence order.
    SliceGraph local;
    SliceGraph& g = graph ? *graph : local;
    for (size_t i = 0; i < out.nets.size(); ++i) {
        const SliceGraph::Edges& e = g.edges(design, eqs, out.nets[i]);
        for (FuncId f : e.funcs)
            add_func(f);
        for (NetId n : e.nets)
            add_net(n);
    }
    return out;
}

} // namespace svlc::sem
