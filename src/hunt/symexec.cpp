#include "hunt/symexec.hpp"

#include <bit>

namespace svlc::hunt {

using namespace hir;

namespace {

/// All bits at or above the lowest tainted one: arithmetic carries can
/// ripple any tainted bit upward but never downward.
uint64_t carry_spread(uint64_t t, uint64_t wmask) {
    if (t == 0)
        return 0;
    return (~uint64_t{0} << std::countr_zero(t)) & wmask;
}

/// Taint of `value != 0` over (value, taint): an untainted 1 bit
/// decides the test true and an all-untainted word decides it outright;
/// only otherwise can secret bits flip the outcome.
uint64_t bool_taint(uint64_t v, uint64_t t) {
    if ((v & ~t) != 0)
        return 0;
    return t ? 1 : 0;
}

} // namespace

TaintSim::TaintSim(const Design& design, LevelId observer)
    : design_(design), sim_(design), observer_(observer) {
    current_.assign(design.nets.size(), 0);
    pending_.assign(design.nets.size(), 0);
    array_taints_.resize(design.nets.size());
    for (const Net& net : design.nets)
        if (net.array_size != 0)
            array_taints_[net.id].assign(net.array_size, 0);
}

void TaintSim::set_input(NetId net, BitVec value) {
    sim_.set_input(net, value);
}

uint64_t TaintSim::width_mask(NetId net) const {
    return BitVec::mask(design_.net(net).width);
}

LevelId TaintSim::eval_label(const Label& label, ProcessKind kind) const {
    const Lattice& lat = design_.policy.lattice();
    LevelId acc = lat.bottom();
    for (const auto& atom : label.atoms) {
        if (atom.kind == LabelAtom::Kind::Level) {
            acc = lat.join(acc, atom.level);
        } else {
            std::vector<uint64_t> args;
            for (NetId a : atom.args) {
                bool next = kind == ProcessKind::Seq &&
                            design_.net(a).kind == NetKind::Seq;
                args.push_back(
                    (next ? sim_.get_next(a) : sim_.get(a)).value());
            }
            acc = lat.join(acc,
                           design_.policy.function(atom.func).evaluate(args));
        }
    }
    return acc;
}

uint64_t TaintSim::eval_taint(const Expr& e, ProcessKind kind) const {
    uint64_t wmask = BitVec::mask(e.width);
    switch (e.kind) {
    case ExprKind::Const:
        return 0;
    case ExprKind::NetRef:
        return (e.primed ? pending_[e.net] : current_[e.net]) & wmask;
    case ExprKind::ArrayRead: {
        const auto& taints = array_taints_[e.net];
        if (taints.empty())
            return 0; // the simulator raises SimError on this HIR
        uint64_t tidx = eval_taint(*e.index, kind);
        if (tidx != 0)
            return wmask; // secret-dependent address selects the element
        uint64_t idx = sim_.evaluate(*e.index).value() % taints.size();
        if (e.primed) {
            // Pending view, as in Simulator::eval: the last staged write
            // to this element wins.
            for (auto it = array_writes_.rbegin(); it != array_writes_.rend();
                 ++it)
                if (it->net == e.net && it->index == idx)
                    return it->taint & wmask;
        }
        return taints[idx] & wmask;
    }
    case ExprKind::Slice: {
        uint64_t t = eval_taint(*e.a, kind);
        return (t >> e.lsb) & BitVec::mask(e.msb - e.lsb + 1);
    }
    case ExprKind::Unary: {
        uint64_t t = eval_taint(*e.a, kind);
        uint64_t v = sim_.evaluate(*e.a).value();
        uint64_t omask = BitVec::mask(e.a->width);
        switch (e.un_op) {
        case UnaryOp::Neg:
            return carry_spread(t, wmask);
        case UnaryOp::BitNot:
            return t;
        case UnaryOp::LogNot:
            return bool_taint(v, t);
        case UnaryOp::RedAnd:
            // An untainted 0 bit decides the reduction.
            return (~v & ~t & omask) != 0 ? 0 : (t ? 1 : 0);
        case UnaryOp::RedOr:
            // An untainted 1 bit decides the reduction.
            return (v & ~t) != 0 ? 0 : (t ? 1 : 0);
        case UnaryOp::RedXor:
            return t ? 1 : 0;
        }
        return t ? wmask : 0;
    }
    case ExprKind::Binary: {
        if (e.bin_op == BinaryOp::LogAnd || e.bin_op == BinaryOp::LogOr) {
            uint64_t ta = bool_taint(sim_.evaluate(*e.a).value(),
                                     eval_taint(*e.a, kind));
            bool av = sim_.evaluate(*e.a).to_bool();
            // Mirror the simulator's short circuit: when the left side
            // is untainted and decides the result, the right side is
            // never consulted.
            if (ta == 0 && ((e.bin_op == BinaryOp::LogAnd && !av) ||
                            (e.bin_op == BinaryOp::LogOr && av)))
                return 0;
            uint64_t tb = bool_taint(sim_.evaluate(*e.b).value(),
                                     eval_taint(*e.b, kind));
            return (ta | tb) ? 1 : 0;
        }
        uint64_t ta = eval_taint(*e.a, kind);
        uint64_t tb = eval_taint(*e.b, kind);
        uint64_t va = sim_.evaluate(*e.a).value();
        uint64_t vb = sim_.evaluate(*e.b).value();
        switch (e.bin_op) {
        case BinaryOp::And:
            // A bit leaks only if some operand bit is tainted and
            // neither operand holds an untainted 0 there.
            return (ta | tb) & (va | ta) & (vb | tb) & wmask;
        case BinaryOp::Or:
            // Dual: an untainted 1 forces the bit.
            return (ta | tb) & (~va | ta) & (~vb | tb) & wmask;
        case BinaryOp::Xor:
            return (ta | tb) & wmask;
        case BinaryOp::Add:
        case BinaryOp::Sub:
            return carry_spread(ta | tb, wmask);
        case BinaryOp::Mul:
        case BinaryOp::Div:
        case BinaryOp::Mod:
            return (ta | tb) ? wmask : 0;
        case BinaryOp::Shl:
        case BinaryOp::Shr: {
            if (tb != 0)
                return (ta | va) != 0 ? wmask : 0; // secret shift distance
            uint64_t sh = vb;
            if (sh >= 64)
                return 0;
            uint64_t t = e.bin_op == BinaryOp::Shl ? ta << sh : ta >> sh;
            return t & wmask;
        }
        case BinaryOp::Eq:
        case BinaryOp::Ne: {
            // Bits that differ untainted decide the comparison.
            uint64_t cmask = BitVec::mask(std::max(e.a->width, e.b->width));
            if (((va ^ vb) & ~ta & ~tb & cmask) != 0)
                return 0;
            return (ta | tb) ? 1 : 0;
        }
        case BinaryOp::Lt:
        case BinaryOp::Le:
        case BinaryOp::Gt:
        case BinaryOp::Ge:
            return (ta | tb) ? 1 : 0;
        default:
            return (ta | tb) ? wmask : 0;
        }
    }
    case ExprKind::Cond: {
        uint64_t tg = bool_taint(sim_.evaluate(*e.a).value(),
                                 eval_taint(*e.a, kind));
        if (tg == 0)
            return sim_.evaluate(*e.a).to_bool() ? eval_taint(*e.b, kind)
                                                 : eval_taint(*e.c, kind);
        // Undecided guard: a bit stays clean only when both arms agree
        // on it untainted.
        uint64_t tb = eval_taint(*e.b, kind);
        uint64_t tc = eval_taint(*e.c, kind);
        uint64_t vb = sim_.evaluate(*e.b).value();
        uint64_t vc = sim_.evaluate(*e.c).value();
        return (tb | tc | (vb ^ vc)) & wmask;
    }
    case ExprKind::Concat: {
        uint64_t acc = eval_taint(*e.parts.front(), kind);
        for (size_t i = 1; i < e.parts.size(); ++i)
            acc = (acc << e.parts[i]->width) | eval_taint(*e.parts[i], kind);
        return acc & wmask;
    }
    case ExprKind::Downgrade: {
        // endorse/declassify resets the taint iff the declared target
        // label (dependent parts on live state, sequential args taking
        // pending values in sequential processes — Γ(r){r⃗'/r⃗}) is
        // observer-visible; otherwise the data stays secret-bearing.
        LevelId target = eval_label(e.dg_label, kind);
        if (design_.policy.lattice().flows(target, observer_))
            return 0;
        return eval_taint(*e.a, kind);
    }
    }
    return wmask;
}

void TaintSim::exec(const Stmt& s, ProcessKind kind, bool pc_tainted) {
    switch (s.kind) {
    case StmtKind::Block:
        for (const auto& st : s.stmts)
            exec(*st, kind, pc_tainted);
        break;
    case StmtKind::If: {
        bool guard_tainted =
            pc_tainted || bool_taint(sim_.evaluate(*s.cond).value(),
                                     eval_taint(*s.cond, kind)) != 0;
        if (sim_.evaluate(*s.cond).to_bool())
            exec(*s.then_stmt, kind, guard_tainted);
        else if (s.else_stmt)
            exec(*s.else_stmt, kind, guard_tainted);
        break;
    }
    case StmtKind::Assign: {
        const Net& net = design_.net(s.lhs.net);
        uint64_t wmask = BitVec::mask(net.width);
        uint64_t t = eval_taint(*s.rhs, kind) & wmask;
        if (pc_tainted)
            t = wmask; // implicit flow: the write itself is secret-gated
        if (net.array_size != 0) {
            if (eval_taint(*s.lhs.index, kind) != 0)
                t = wmask;
            uint64_t idx =
                sim_.evaluate(*s.lhs.index).value() % net.array_size;
            if (kind == ProcessKind::Comb)
                array_taints_[net.id][idx] = t;
            else
                array_writes_.push_back({net.id, idx, t});
        } else {
            auto& store = kind == ProcessKind::Comb ? current_ : pending_;
            if (s.lhs.has_range) {
                // lsb is 0 whenever the field spans all 64 bits, so the
                // shift cannot overflow.
                uint64_t m = BitVec::mask(s.lhs.msb - s.lhs.lsb + 1)
                             << s.lhs.lsb;
                store[net.id] =
                    (store[net.id] & ~m) | ((t << s.lhs.lsb) & m);
            } else {
                store[net.id] = t;
            }
        }
        break;
    }
    case StmtKind::Assume:
        break;
    }
}

void TaintSim::step() {
    const Lattice& lat = design_.policy.lattice();
    // Inputs are (re)seeded each cycle: every bit of an input whose
    // evaluated label is not observer-visible is a fresh secret.
    for (const Net& net : design_.nets) {
        if (!net.is_input)
            continue;
        LevelId lab = eval_label(net.label, ProcessKind::Comb);
        current_[net.id] = lat.flows(lab, observer_) ? 0 : width_mask(net.id);
    }
    for (const Net& net : design_.nets)
        if (net.kind == NetKind::Seq)
            pending_[net.id] = current_[net.id];
    array_writes_.clear();

    // Two passes, mirroring TaintTracker::step: the simulator runs the
    // whole schedule first so the pending store is complete, then the
    // taint pass replays it. Required for sequential Downgrade labels
    // (Γ(r){r⃗'/r⃗}) whose args are staged by the same process or later in
    // the schedule; safe because the scheduler orders writers before
    // readers and rejects same-process next()-reads.
    sim_.begin_step();
    for (size_t pi : design_.schedule)
        sim_.exec_process(pi);
    for (size_t pi : design_.schedule)
        exec(*design_.processes[pi].body, design_.processes[pi].kind, false);

    // Monitor before the TICK commit: tainted bits sitting on a net
    // whose label the observer may read is the leak condition.
    for (const Net& net : design_.nets) {
        if (net.array_size != 0 || net.is_input)
            continue;
        bool seq = net.kind == NetKind::Seq;
        LevelId declared =
            seq ? sim_.next_label(net.id) : sim_.current_label(net.id);
        uint64_t t = seq ? pending_[net.id] : current_[net.id];
        if (t != 0 && lat.flows(declared, observer_))
            leaks_.push_back({sim_.cycle(), net.id, t, declared});
    }
    sim_.end_step();

    for (const Net& net : design_.nets)
        if (net.kind == NetKind::Seq && net.array_size == 0)
            current_[net.id] = pending_[net.id];
    for (const auto& w : array_writes_)
        array_taints_[w.net][w.index] = w.taint;
    array_writes_.clear();
}

uint64_t TaintSim::taint_score() const {
    uint64_t score = 0;
    for (const Net& net : design_.nets) {
        if (net.is_input)
            continue;
        if (uint64_t t = current_[net.id]) {
            score += static_cast<uint64_t>(std::popcount(t)) + 4;
        }
        for (uint64_t et : array_taints_[net.id])
            if (et != 0)
                score += static_cast<uint64_t>(std::popcount(et)) + 4;
    }
    return score;
}

} // namespace svlc::hunt
