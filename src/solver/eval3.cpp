#include "solver/eval3.hpp"

#include <cassert>

namespace svlc::solver {

using namespace hir;

std::optional<BitVec> eval3(const sem::TermTable& terms, sem::TermId id,
                            const Assignment& asg) {
    const sem::TermNode& e = terms.node(id);
    auto sub = [&](size_t i) { return eval3(terms, terms.operand(id, i), asg); };
    switch (e.kind) {
    case ExprKind::Const:
        return e.value;
    case ExprKind::NetRef:
        return asg.get(e.net, e.primed);
    case ExprKind::ArrayRead:
        return std::nullopt; // assignments cover scalar nets only
    case ExprKind::Slice: {
        auto v = sub(0);
        if (!v)
            return std::nullopt;
        return v->slice(e.msb, e.lsb);
    }
    case ExprKind::Unary: {
        auto v = sub(0);
        if (!v)
            return std::nullopt;
        switch (static_cast<UnaryOp>(e.op)) {
        case UnaryOp::Neg: return BitVec(v->width(), 0) - *v;
        case UnaryOp::BitNot: return v->bit_not();
        case UnaryOp::LogNot: return v->log_not();
        case UnaryOp::RedAnd: return v->red_and();
        case UnaryOp::RedOr: return v->red_or();
        case UnaryOp::RedXor: return v->red_xor();
        }
        return std::nullopt;
    }
    case ExprKind::Binary: {
        auto a = sub(0);
        auto b = sub(1);
        auto op = static_cast<BinaryOp>(e.op);
        // Short-circuit rules that stay sound under partial knowledge.
        if (op == BinaryOp::LogAnd) {
            if ((a && a->is_zero()) || (b && b->is_zero()))
                return BitVec(1, 0);
            if (a && b)
                return a->log_and(*b);
            return std::nullopt;
        }
        if (op == BinaryOp::LogOr) {
            if ((a && a->to_bool()) || (b && b->to_bool()))
                return BitVec(1, 1);
            if (a && b)
                return a->log_or(*b);
            return std::nullopt;
        }
        if (op == BinaryOp::And || op == BinaryOp::Mul) {
            if ((a && a->is_zero()) || (b && b->is_zero()))
                return BitVec(e.width, 0);
        }
        if (!a || !b)
            return std::nullopt;
        switch (op) {
        case BinaryOp::Add: return *a + *b;
        case BinaryOp::Sub: return *a - *b;
        case BinaryOp::Mul: return *a * *b;
        case BinaryOp::Div: return *a / *b;
        case BinaryOp::Mod: return *a % *b;
        case BinaryOp::And: return *a & *b;
        case BinaryOp::Or: return *a | *b;
        case BinaryOp::Xor: return *a ^ *b;
        case BinaryOp::Shl: return *a << *b;
        case BinaryOp::Shr: return *a >> *b;
        case BinaryOp::Eq: return a->eq(*b);
        case BinaryOp::Ne: return a->ne(*b);
        case BinaryOp::Lt: return a->lt(*b);
        case BinaryOp::Le: return a->le(*b);
        case BinaryOp::Gt: return a->gt(*b);
        case BinaryOp::Ge: return a->ge(*b);
        case BinaryOp::LogAnd:
        case BinaryOp::LogOr:
            break; // handled above
        }
        return std::nullopt;
    }
    case ExprKind::Cond: {
        auto c = sub(0);
        if (c)
            return c->to_bool() ? sub(1) : sub(2);
        auto t = sub(1);
        auto f = sub(2);
        if (t && f && *t == *f)
            return t; // both branches agree; selector irrelevant
        return std::nullopt;
    }
    case ExprKind::Concat: {
        std::optional<BitVec> acc;
        for (sem::TermId p : terms.operands(id)) {
            auto v = eval3(terms, p, asg);
            if (!v)
                return std::nullopt;
            acc = acc ? acc->concat(*v) : *v;
        }
        return acc;
    }
    case ExprKind::Downgrade:
        return sub(0);
    }
    assert(false && "unreachable");
    return std::nullopt;
}

std::optional<LevelId> eval_atom(const SolverAtom& atom, const Design& design,
                                 const Assignment& asg) {
    if (atom.kind == SolverAtom::Kind::Level)
        return atom.level;
    std::vector<uint64_t> args;
    args.reserve(atom.args.size());
    for (const auto& arg : atom.args) {
        auto v = asg.get(arg.net, arg.primed);
        if (!v)
            return std::nullopt;
        args.push_back(v->value());
    }
    return design.policy.function(atom.func).evaluate(args);
}

std::optional<LevelId> eval_label(const SolverLabel& label,
                                  const Design& design,
                                  const Assignment& asg) {
    const Lattice& lat = design.policy.lattice();
    LevelId acc = lat.bottom();
    for (const auto& atom : label.atoms) {
        auto lv = eval_atom(atom, design, asg);
        if (!lv)
            return std::nullopt;
        acc = lat.join(acc, *lv);
    }
    return acc;
}

} // namespace svlc::solver
