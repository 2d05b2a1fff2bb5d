#include "sem/updates.hpp"

#include <unordered_map>
#include <unordered_set>

namespace svlc::sem {

using namespace hir;

namespace {

/// Symbolic executor for one process, interning into the equations'
/// term table. Maintains env: net -> current symbolic value (relative to
/// process entry). Reads of nets the process itself wrote earlier are
/// substituted in combinational processes (blocking semantics); in
/// sequential processes reads always see pre-tick values, so no
/// substitution happens.
class SymbolicExec {
public:
    SymbolicExec(const Design& design, const Process& proc, Equations& eqs)
        : design_(design), proc_(proc), eqs_(eqs), terms_(eqs.terms) {}

    void run() {
        walk(*proc_.body, kNoTerm);
        for (auto& [net, term] : env_)
            eqs_.defs[net] = term;
    }

private:
    bool seq() const { return proc_.kind == ProcessKind::Seq; }

    TermId subst(const Expr& e) {
        // Non-blocking reads see old values: nothing to substitute.
        return seq() ? terms_.intern(e) : terms_.intern(e, env_);
    }

    /// Conjoins a guard (kNoTerm = true) with a condition.
    TermId conj(TermId guard, TermId cond) {
        return guard == kNoTerm
                   ? cond
                   : terms_.binary(BinaryOp::LogAnd, guard, cond);
    }

    void walk(const Stmt& s, TermId guard) {
        switch (s.kind) {
        case StmtKind::Block:
            for (const auto& st : s.stmts)
                walk(*st, guard);
            break;
        case StmtKind::If: {
            TermId cond = subst(*s.cond);
            walk(*s.then_stmt, conj(guard, cond));
            if (s.else_stmt)
                walk(*s.else_stmt,
                     conj(guard, terms_.unary(UnaryOp::LogNot, cond)));
            break;
        }
        case StmtKind::Assign: {
            NetId net = s.lhs.net;
            const Net& n = design_.net(net);
            TermId rhs = subst(*s.rhs);
            if (seq())
                eqs_.writes[net].push_back(
                    {guard, s.lhs.index ? subst(*s.lhs.index) : kNoTerm, rhs,
                     s.node_id, s.loc});
            if (n.array_size != 0 || s.lhs.index || s.lhs.has_range) {
                // Array-element and part-select targets do not produce
                // whole-net equations; mark the net as equation-less.
                partial_.insert(net);
                env_.erase(net);
                return;
            }
            if (partial_.count(net))
                return;
            if (guard == kNoTerm) {
                env_[net] = rhs;
                return;
            }
            TermId prev;
            auto it = env_.find(net);
            if (it != env_.end())
                prev = it->second;
            else if (seq())
                prev = terms_.net(net, n.width, false); // hold
            else
                prev = terms_.constant(BitVec(n.width, 0));
            env_[net] = terms_.cond(guard, rhs, prev);
            break;
        }
        case StmtKind::Assume:
            break;
        }
    }

    const Design& design_;
    const Process& proc_;
    Equations& eqs_;
    TermTable& terms_;
    std::unordered_map<NetId, TermId> env_;
    std::unordered_set<NetId> partial_;
};

} // namespace

Equations build_equations(const Design& design) {
    Equations eq;
    eq.defs.assign(design.nets.size(), kNoTerm);
    eq.writes.resize(design.nets.size());
    for (const Process& proc : design.processes)
        SymbolicExec(design, proc, eq).run();
    return eq;
}

} // namespace svlc::sem
