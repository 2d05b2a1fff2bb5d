#include "verify/taint.hpp"

namespace svlc::verify {

using namespace hir;

TaintTracker::TaintTracker(const Design& design) : design_(design) {
    current_.resize(design.nets.size());
    pending_.resize(design.nets.size());
    array_taints_.resize(design.nets.size());
    for (const Net& net : design.nets)
        if (net.array_size != 0)
            array_taints_[net.id].assign(net.array_size,
                                         design.policy.lattice().bottom());
    reset();
}

void TaintTracker::reset() {
    const Lattice& lat = design_.policy.lattice();
    cycle_ = 0;
    violations_.clear();
    array_writes_.clear();
    for (const Net& net : design_.nets) {
        current_[net.id] = lat.bottom();
        pending_[net.id] = lat.bottom();
        if (net.array_size != 0)
            for (auto& t : array_taints_[net.id])
                t = lat.bottom();
    }
}

LevelId TaintTracker::eval_taint(const Expr& e, ProcessKind kind,
                                 const sim::Simulator& sim) const {
    const Lattice& lat = design_.policy.lattice();
    switch (e.kind) {
    case ExprKind::Const:
        return lat.bottom();
    case ExprKind::NetRef:
        return e.primed ? pending_[e.net] : current_[e.net];
    case ExprKind::ArrayRead: {
        LevelId acc = eval_taint(*e.index, kind, sim);
        if (array_taints_[e.net].empty())
            return acc; // malformed HIR; the simulator raises on eval
        uint64_t idx = sim.evaluate(*e.index).value() %
                       array_taints_[e.net].size();
        if (e.primed) {
            // Pending view, as in Simulator::eval: the last staged write
            // to this element wins.
            for (auto it = array_writes_.rbegin(); it != array_writes_.rend();
                 ++it)
                if (it->net == e.net && it->index == idx)
                    return lat.join(acc, it->taint);
        }
        return lat.join(acc, array_taints_[e.net][idx]);
    }
    case ExprKind::Downgrade: {
        // The explicit endorse/declassify resets the taint to the static
        // part of the declared target label (dependent parts evaluated on
        // the live state). In a sequential process the value lands next
        // cycle, so sequential arguments take their pending values —
        // Γ(r){r⃗'/r⃗}, mirroring Simulator::next_label.
        LevelId acc = lat.bottom();
        for (const auto& atom : e.dg_label.atoms) {
            if (atom.kind == LabelAtom::Kind::Level) {
                acc = lat.join(acc, atom.level);
            } else {
                std::vector<uint64_t> args;
                for (NetId a : atom.args) {
                    bool next = kind == ProcessKind::Seq &&
                                design_.net(a).kind == NetKind::Seq;
                    args.push_back((next ? sim.get_next(a) : sim.get(a))
                                       .value());
                }
                acc = lat.join(
                    acc, design_.policy.function(atom.func).evaluate(args));
            }
        }
        return acc;
    }
    default: {
        LevelId acc = lat.bottom();
        if (e.index)
            acc = lat.join(acc, eval_taint(*e.index, kind, sim));
        if (e.a)
            acc = lat.join(acc, eval_taint(*e.a, kind, sim));
        if (e.b)
            acc = lat.join(acc, eval_taint(*e.b, kind, sim));
        if (e.c)
            acc = lat.join(acc, eval_taint(*e.c, kind, sim));
        for (const auto& p : e.parts)
            acc = lat.join(acc, eval_taint(*p, kind, sim));
        return acc;
    }
    }
}

void TaintTracker::exec(const Stmt& s, ProcessKind kind, LevelId pc,
                        const sim::Simulator& sim) {
    const Lattice& lat = design_.policy.lattice();
    switch (s.kind) {
    case StmtKind::Block:
        for (const auto& st : s.stmts)
            exec(*st, kind, pc, sim);
        break;
    case StmtKind::If: {
        // The guard's taint flows into every write of the taken branch
        // (implicit flow through control).
        LevelId guard_taint = lat.join(pc, eval_taint(*s.cond, kind, sim));
        if (sim.evaluate(*s.cond).to_bool())
            exec(*s.then_stmt, kind, guard_taint, sim);
        else if (s.else_stmt)
            exec(*s.else_stmt, kind, guard_taint, sim);
        break;
    }
    case StmtKind::Assign: {
        LevelId t = lat.join(pc, eval_taint(*s.rhs, kind, sim));
        const Net& net = design_.net(s.lhs.net);
        if (net.array_size != 0) {
            t = lat.join(t, eval_taint(*s.lhs.index, kind, sim));
            uint64_t idx = sim.evaluate(*s.lhs.index).value() % net.array_size;
            if (kind == ProcessKind::Comb)
                array_taints_[net.id][idx] = t;
            else
                array_writes_.push_back({net.id, idx, t});
        } else if (kind == ProcessKind::Comb) {
            current_[s.lhs.net] =
                s.lhs.has_range ? lat.join(current_[s.lhs.net], t) : t;
        } else {
            pending_[s.lhs.net] =
                s.lhs.has_range ? lat.join(pending_[s.lhs.net], t) : t;
        }
        break;
    }
    case StmtKind::Assume:
        break;
    }
}

void TaintTracker::step(sim::Simulator& sim) {
    const Lattice& lat = design_.policy.lattice();
    // Inputs are (re)seeded with their declared labels each cycle.
    for (const Net& net : design_.nets) {
        if (!net.is_input)
            continue;
        LevelId acc = lat.bottom();
        for (const auto& atom : net.label.atoms) {
            if (atom.kind == LabelAtom::Kind::Level) {
                acc = lat.join(acc, atom.level);
            } else {
                std::vector<uint64_t> args;
                for (NetId a : atom.args)
                    args.push_back(sim.get(a).value());
                acc = lat.join(
                    acc, design_.policy.function(atom.func).evaluate(args));
            }
        }
        current_[net.id] = acc;
    }
    for (const Net& net : design_.nets)
        if (net.kind == NetKind::Seq)
            pending_[net.id] = current_[net.id];
    array_writes_.clear();

    // Two passes. First the simulator executes the whole schedule, so the
    // pending store holds every register's next-cycle value; then the taint
    // pass replays the schedule against that state. The split is safe
    // because the scheduler already orders writers before readers (com
    // dependency order, next()-writers before next()-readers) and rejects
    // same-process next()-reads as comb-loops — so every value the taint
    // pass reads equals what the process itself saw. It is also necessary:
    // a sequential Downgrade's label args are Γ(r){r⃗'/r⃗}, and a pending
    // write staged later in the same process (or schedule) must be visible
    // when the taint pass evaluates them.
    sim.begin_step();
    for (size_t pi : design_.schedule)
        sim.exec_process(pi);
    for (size_t pi : design_.schedule)
        exec(*design_.processes[pi].body, design_.processes[pi].kind,
             lat.bottom(), sim);

    // Monitor *before* commit: a register's accumulated taint must flow
    // into the label it will carry next cycle.
    for (const Net& net : design_.nets) {
        if (net.array_size != 0 || net.is_input)
            continue;
        LevelId declared = net.kind == NetKind::Seq
                               ? sim.next_label(net.id)
                               : sim.current_label(net.id);
        LevelId observed =
            net.kind == NetKind::Seq ? pending_[net.id] : current_[net.id];
        if (!lat.flows(observed, declared))
            violations_.push_back({cycle_, net.id, observed, declared});
    }
    sim.end_step();

    // Commit sequential taints.
    for (const Net& net : design_.nets)
        if (net.kind == NetKind::Seq && net.array_size == 0)
            current_[net.id] = pending_[net.id];
    for (const auto& w : array_writes_)
        array_taints_[w.net][w.index] = w.taint;
    array_writes_.clear();
    ++cycle_;
}

} // namespace svlc::verify
