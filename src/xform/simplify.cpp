#include "xform/simplify.hpp"

#include "sem/term_table.hpp"

#include <cassert>

namespace svlc::xform {

using namespace hir;

namespace {

bool is_const(const ExprPtr& e) { return e && e->kind == ExprKind::Const; }

bool is_const_val(const ExprPtr& e, uint64_t v) {
    return is_const(e) && e->value.value() == v;
}

/// True when the constant is all-ones at the *result* width (a narrower
/// all-ones constant zero-extends and is not an identity mask).
bool is_all_ones_at(const ExprPtr& e, uint32_t width) {
    return is_const(e) && e->value.value() == BitVec::mask(width);
}

ExprPtr constant(BitVec v, SourceLoc loc) { return Expr::make_const(v, loc); }

/// Structural equality (locs ignored; a downgrade's declared label is
/// part of its structure): equal shapes intern to the same term.
bool same_shape(const Expr& a, const Expr& b) {
    sem::TermTable terms;
    return terms.intern(a) == terms.intern(b);
}

/// Evaluates a binary op over two constants (mirrors the simulator).
BitVec eval_binary(BinaryOp op, BitVec a, BitVec b) {
    switch (op) {
    case BinaryOp::Add: return a + b;
    case BinaryOp::Sub: return a - b;
    case BinaryOp::Mul: return a * b;
    case BinaryOp::Div: return a / b;
    case BinaryOp::Mod: return a % b;
    case BinaryOp::And: return a & b;
    case BinaryOp::Or: return a | b;
    case BinaryOp::Xor: return a ^ b;
    case BinaryOp::Shl: return a << b;
    case BinaryOp::Shr: return a >> b;
    case BinaryOp::Eq: return a.eq(b);
    case BinaryOp::Ne: return a.ne(b);
    case BinaryOp::Lt: return a.lt(b);
    case BinaryOp::Le: return a.le(b);
    case BinaryOp::Gt: return a.gt(b);
    case BinaryOp::Ge: return a.ge(b);
    case BinaryOp::LogAnd: return a.log_and(b);
    case BinaryOp::LogOr: return a.log_or(b);
    }
    return a;
}

/// True when the expression is free of side-observable structure we must
/// preserve (downgrades carry policy meaning even though they evaluate
/// transparently, so we never delete one).
bool contains_downgrade(const Expr& e) {
    if (e.kind == ExprKind::Downgrade)
        return true;
    if (e.index && contains_downgrade(*e.index))
        return true;
    if (e.a && contains_downgrade(*e.a))
        return true;
    if (e.b && contains_downgrade(*e.b))
        return true;
    if (e.c && contains_downgrade(*e.c))
        return true;
    for (const auto& p : e.parts)
        if (contains_downgrade(*p))
            return true;
    return false;
}

ExprPtr simplify_rec(ExprPtr e, size_t& rewrites) {
    if (!e)
        return e;
    // Children first.
    if (e->index)
        e->index = simplify_rec(std::move(e->index), rewrites);
    if (e->a)
        e->a = simplify_rec(std::move(e->a), rewrites);
    if (e->b)
        e->b = simplify_rec(std::move(e->b), rewrites);
    if (e->c)
        e->c = simplify_rec(std::move(e->c), rewrites);
    for (auto& p : e->parts)
        p = simplify_rec(std::move(p), rewrites);

    switch (e->kind) {
    case ExprKind::Slice:
        if (is_const(e->a)) {
            ++rewrites;
            return constant(e->a->value.slice(e->msb, e->lsb), e->loc);
        }
        // Full-width slice is the identity.
        if (e->lsb == 0 && e->msb + 1 == e->a->width) {
            ++rewrites;
            return std::move(e->a);
        }
        return e;
    case ExprKind::Unary:
        if (is_const(e->a)) {
            BitVec v = e->a->value, r = v;
            switch (e->un_op) {
            case UnaryOp::Neg: r = BitVec(v.width(), 0) - v; break;
            case UnaryOp::BitNot: r = v.bit_not(); break;
            case UnaryOp::LogNot: r = v.log_not(); break;
            case UnaryOp::RedAnd: r = v.red_and(); break;
            case UnaryOp::RedOr: r = v.red_or(); break;
            case UnaryOp::RedXor: r = v.red_xor(); break;
            }
            ++rewrites;
            return constant(r, e->loc);
        }
        // ~~x == x ; !!x == (x != 0) of width 1: collapse only ~~.
        if (e->un_op == UnaryOp::BitNot && e->a->kind == ExprKind::Unary &&
            e->a->un_op == UnaryOp::BitNot) {
            ++rewrites;
            return std::move(e->a->a);
        }
        return e;
    case ExprKind::Binary: {
        if (is_const(e->a) && is_const(e->b)) {
            ++rewrites;
            return constant(eval_binary(e->bin_op, e->a->value, e->b->value),
                            e->loc);
        }
        uint32_t w = e->width;
        switch (e->bin_op) {
        case BinaryOp::Add:
            if (is_const_val(e->a, 0) && e->b->width == w) {
                ++rewrites;
                return std::move(e->b);
            }
            if (is_const_val(e->b, 0) && e->a->width == w) {
                ++rewrites;
                return std::move(e->a);
            }
            break;
        case BinaryOp::Sub:
        case BinaryOp::Shl:
        case BinaryOp::Shr:
            if (is_const_val(e->b, 0) && e->a->width == w) {
                ++rewrites;
                return std::move(e->a);
            }
            break;
        case BinaryOp::And:
            if ((is_const_val(e->a, 0) || is_const_val(e->b, 0)) &&
                !contains_downgrade(*e)) {
                ++rewrites;
                return constant(BitVec(w, 0), e->loc);
            }
            if (is_all_ones_at(e->a, w) && e->b->width == w) {
                ++rewrites;
                return std::move(e->b);
            }
            if (is_all_ones_at(e->b, w) && e->a->width == w) {
                ++rewrites;
                return std::move(e->a);
            }
            break;
        case BinaryOp::Or:
        case BinaryOp::Xor:
            if (is_const_val(e->a, 0) && e->b->width == w) {
                ++rewrites;
                return std::move(e->b);
            }
            if (is_const_val(e->b, 0) && e->a->width == w) {
                ++rewrites;
                return std::move(e->a);
            }
            break;
        case BinaryOp::LogAnd:
            if ((is_const(e->a) && e->a->value.is_zero()) ||
                (is_const(e->b) && e->b->value.is_zero())) {
                if (!contains_downgrade(*e)) {
                    ++rewrites;
                    return constant(BitVec(1, 0), e->loc);
                }
            }
            if (is_const(e->a) && e->a->value.to_bool() && e->b->width == 1) {
                ++rewrites;
                return std::move(e->b);
            }
            if (is_const(e->b) && e->b->value.to_bool() && e->a->width == 1) {
                ++rewrites;
                return std::move(e->a);
            }
            break;
        case BinaryOp::LogOr:
            if (((is_const(e->a) && e->a->value.to_bool()) ||
                 (is_const(e->b) && e->b->value.to_bool())) &&
                !contains_downgrade(*e)) {
                ++rewrites;
                return constant(BitVec(1, 1), e->loc);
            }
            if (is_const(e->a) && e->a->value.is_zero() && e->b->width == 1) {
                ++rewrites;
                return std::move(e->b);
            }
            if (is_const(e->b) && e->b->value.is_zero() && e->a->width == 1) {
                ++rewrites;
                return std::move(e->a);
            }
            break;
        default:
            break;
        }
        // x == x / x != x over side-effect-free identical operands.
        if ((e->bin_op == BinaryOp::Eq || e->bin_op == BinaryOp::Ne) &&
            same_shape(*e->a, *e->b) && !contains_downgrade(*e->a)) {
            ++rewrites;
            return constant(BitVec(1, e->bin_op == BinaryOp::Eq ? 1 : 0),
                            e->loc);
        }
        return e;
    }
    case ExprKind::Cond:
        if (is_const(e->a)) {
            ++rewrites;
            return e->a->value.to_bool() ? std::move(e->b) : std::move(e->c);
        }
        if (same_shape(*e->b, *e->c) && !contains_downgrade(*e->a)) {
            ++rewrites;
            return std::move(e->b);
        }
        return e;
    case ExprKind::Concat: {
        bool all = true;
        for (const auto& p : e->parts)
            all = all && is_const(p);
        if (all && !e->parts.empty()) {
            BitVec acc = e->parts.front()->value;
            for (size_t i = 1; i < e->parts.size(); ++i)
                acc = acc.concat(e->parts[i]->value);
            ++rewrites;
            return constant(acc, e->loc);
        }
        if (e->parts.size() == 1) {
            ++rewrites;
            return std::move(e->parts.front());
        }
        return e;
    }
    default:
        return e;
    }
}

void simplify_stmt(Stmt& s, size_t& rewrites) {
    switch (s.kind) {
    case StmtKind::Block:
        for (auto& st : s.stmts)
            simplify_stmt(*st, rewrites);
        break;
    case StmtKind::If:
        s.cond = simplify_rec(std::move(s.cond), rewrites);
        simplify_stmt(*s.then_stmt, rewrites);
        if (s.else_stmt)
            simplify_stmt(*s.else_stmt, rewrites);
        break;
    case StmtKind::Assign:
        if (s.lhs.index)
            s.lhs.index = simplify_rec(std::move(s.lhs.index), rewrites);
        s.rhs = simplify_rec(std::move(s.rhs), rewrites);
        break;
    case StmtKind::Assume:
        s.pred = simplify_rec(std::move(s.pred), rewrites);
        break;
    }
}

} // namespace

ExprPtr simplify(ExprPtr e) {
    size_t rewrites = 0;
    return simplify_rec(std::move(e), rewrites);
}

SimplifyStats simplify_design(Design& design) {
    SimplifyStats stats;
    for (Process& proc : design.processes)
        simplify_stmt(*proc.body, stats.expressions_rewritten);
    return stats;
}

} // namespace svlc::xform
