#include "solver/term.hpp"

#include <cassert>

namespace svlc::solver {

using namespace hir;

namespace {

struct Compiler {
    const sem::TermTable& terms;
    const BitLayout& layout;
    std::vector<TermInstr> code;
    uint64_t support = 0;
    uint32_t depth = 0, max_depth = 0;

    void push(TermInstr instr, int stack_delta) {
        code.push_back(instr);
        depth = static_cast<uint32_t>(static_cast<int>(depth) + stack_delta);
        if (depth > max_depth)
            max_depth = depth;
    }

    void compile(sem::TermId id) {
        const sem::TermNode& e = terms.node(id);
        auto operands = terms.operands(id);
        switch (e.kind) {
        case ExprKind::Const: {
            TermInstr i;
            i.op = TermOp::Const;
            i.width = e.value.width();
            i.imm = e.value.value();
            push(i, +1);
            return;
        }
        case ExprKind::NetRef: {
            int f = layout.find(e.net, e.primed);
            TermInstr i;
            if (f < 0) {
                // Not enumerated: unknown under every backend assignment,
                // exactly as eval3 over an assignment covering the
                // enumeration set.
                i.op = TermOp::Unknown;
            } else {
                i.op = TermOp::Var;
                i.var = f;
                i.width = layout.fields[static_cast<size_t>(f)].width;
                support |= layout.field_mask(static_cast<size_t>(f));
            }
            push(i, +1);
            return;
        }
        case ExprKind::ArrayRead: {
            // eval3 returns unknown without evaluating the index, so the
            // value depends on nothing; compile a bare Unknown.
            TermInstr i;
            i.op = TermOp::Unknown;
            push(i, +1);
            return;
        }
        case ExprKind::Slice: {
            compile(operands[0]);
            TermInstr i;
            i.op = TermOp::Slice;
            i.a = e.msb;
            i.b = e.lsb;
            push(i, 0);
            return;
        }
        case ExprKind::Unary: {
            compile(operands[0]);
            TermInstr i;
            i.op = TermOp::Unary;
            i.sub = e.op;
            push(i, 0);
            return;
        }
        case ExprKind::Binary: {
            compile(operands[0]);
            compile(operands[1]);
            TermInstr i;
            i.op = TermOp::Binary;
            i.sub = e.op;
            i.width = e.width; // And/Mul zero-shortcut result width
            push(i, -1);
            return;
        }
        case ExprKind::Cond: {
            compile(operands[0]);
            compile(operands[1]);
            compile(operands[2]);
            TermInstr i;
            i.op = TermOp::Cond;
            push(i, -2);
            return;
        }
        case ExprKind::Concat: {
            for (sem::TermId p : operands)
                compile(p);
            TermInstr i;
            i.op = TermOp::Concat;
            i.a = static_cast<uint32_t>(operands.size());
            push(i, -(static_cast<int>(operands.size()) - 1));
            return;
        }
        case ExprKind::Downgrade:
            // Transparent to evaluation (eval3 recurses straight through).
            compile(operands[0]);
            return;
        }
        assert(false && "unreachable");
    }
};

} // namespace

TermProgram compile_term(const sem::TermTable& terms, sem::TermId id,
                         const BitLayout& layout, Arena& arena) {
    Compiler c{terms, layout, {}, 0, 0, 0};
    c.compile(id);
    TermProgram p;
    p.size = static_cast<uint32_t>(c.code.size());
    p.max_stack = c.max_depth;
    p.support = c.support;
    TermInstr* code = arena.allocate<TermInstr>(c.code.size());
    for (size_t i = 0; i < c.code.size(); ++i)
        code[i] = c.code[i];
    p.code = code;
    return p;
}

namespace {

/// The result of a BitVec binary operator on two known slots: width and
/// wrap rules as in support/bitvec.cpp (the max operand width, except
/// shifts, which keep the left operand's; divide by zero gives all ones,
/// modulo by zero the dividend).
void apply_binary(BinaryOp op, TermScratch::Slot& a,
                  const TermScratch::Slot& b) {
    uint32_t w = a.width > b.width ? a.width : b.width;
    uint64_t m = BitVec::mask(w);
    uint64_t x = a.value, y = b.value;
    switch (op) {
    case BinaryOp::Add: a = {true, w, (x + y) & m}; return;
    case BinaryOp::Sub: a = {true, w, (x - y) & m}; return;
    case BinaryOp::Mul: a = {true, w, (x * y) & m}; return;
    case BinaryOp::Div: a = {true, w, y == 0 ? m : (x / y) & m}; return;
    case BinaryOp::Mod: a = {true, w, y == 0 ? x & m : (x % y) & m}; return;
    case BinaryOp::And: a = {true, w, x & y & m}; return;
    case BinaryOp::Or: a = {true, w, (x | y) & m}; return;
    case BinaryOp::Xor: a = {true, w, (x ^ y) & m}; return;
    case BinaryOp::Shl:
        a.value = y >= a.width ? 0 : (x << y) & BitVec::mask(a.width);
        return;
    case BinaryOp::Shr:
        a.value = y >= a.width ? 0 : (x >> y) & BitVec::mask(a.width);
        return;
    case BinaryOp::Eq: a = {true, 1, x == y}; return;
    case BinaryOp::Ne: a = {true, 1, x != y}; return;
    case BinaryOp::Lt: a = {true, 1, x < y}; return;
    case BinaryOp::Le: a = {true, 1, x <= y}; return;
    case BinaryOp::Gt: a = {true, 1, x > y}; return;
    case BinaryOp::Ge: a = {true, 1, x >= y}; return;
    case BinaryOp::LogAnd: a = {true, 1, x != 0 && y != 0}; return;
    case BinaryOp::LogOr: a = {true, 1, x != 0 || y != 0}; return;
    }
}

} // namespace

// Replicates eval3's rules instruction for instruction, and BitVec's
// width rules operator for operator, on raw words: the BitVec throws
// (slice out of range, concatenation over 64 bits) are raised by
// rebuilding the offending BitVec operation.
std::optional<BitVec> eval_term(const TermProgram& p, const BitLayout& layout,
                                uint64_t values, uint64_t assigned,
                                TermScratch& scratch) {
    using Slot = TermScratch::Slot;
    if (scratch.stack.size() < p.max_stack)
        scratch.stack.resize(p.max_stack);
    Slot* st = scratch.stack.data();
    size_t sp = 0; // slots in use

    for (uint32_t pc = 0; pc < p.size; ++pc) {
        const TermInstr& i = p.code[pc];
        switch (i.op) {
        case TermOp::Const:
            st[sp++] = Slot{true, i.width, i.imm & BitVec::mask(i.width)};
            break;
        case TermOp::Var: {
            const BitLayout::Field& f =
                layout.fields[static_cast<size_t>(i.var)];
            uint64_t fmask = BitVec::mask(f.width);
            bool known = (((assigned >> f.offset) & fmask) == fmask);
            uint64_t v = (values >> f.offset) & fmask;
            st[sp++] = Slot{known, f.width, known ? v : 0};
            break;
        }
        case TermOp::Unknown:
            st[sp++] = Slot{};
            break;
        case TermOp::Slice: {
            Slot& v = st[sp - 1];
            if (!v.known)
                break;
            if (i.a < i.b || i.a >= v.width)
                (void)BitVec(v.width, v.value).slice(i.a, i.b); // throws
            v.width = i.a - i.b + 1;
            v.value = (v.value >> i.b) & BitVec::mask(v.width);
            break;
        }
        case TermOp::Unary: {
            Slot& v = st[sp - 1];
            if (!v.known)
                break;
            uint64_t m = BitVec::mask(v.width);
            switch (static_cast<UnaryOp>(i.sub)) {
            case UnaryOp::Neg: v.value = (0 - v.value) & m; break;
            case UnaryOp::BitNot: v.value = ~v.value & m; break;
            case UnaryOp::LogNot: v = {true, 1, v.value == 0}; break;
            case UnaryOp::RedAnd: v = {true, 1, v.value == m}; break;
            case UnaryOp::RedOr: v = {true, 1, v.value != 0}; break;
            case UnaryOp::RedXor:
                v = {true, 1,
                     static_cast<uint64_t>(__builtin_popcountll(v.value) & 1)};
                break;
            }
            break;
        }
        case TermOp::Binary: {
            const Slot& b = st[--sp];
            Slot& a = st[sp - 1];
            auto op = static_cast<BinaryOp>(i.sub);
            bool a_zero = a.known && a.value == 0;
            bool b_zero = b.known && b.value == 0;
            // Short-circuit rules, exactly eval3's.
            if (op == BinaryOp::LogAnd && (a_zero || b_zero)) {
                a = Slot{true, 1, 0};
                break;
            }
            if (op == BinaryOp::LogOr && ((a.known && !a_zero) ||
                                          (b.known && !b_zero))) {
                a = Slot{true, 1, 1};
                break;
            }
            if ((op == BinaryOp::And || op == BinaryOp::Mul) &&
                (a_zero || b_zero)) {
                a = Slot{true, i.width, 0};
                break;
            }
            if (!a.known || !b.known) {
                a.known = false;
                break;
            }
            apply_binary(op, a, b);
            break;
        }
        case TermOp::Cond: {
            const Slot& f = st[--sp];
            const Slot& t = st[--sp];
            Slot& c = st[sp - 1];
            if (c.known)
                c = c.value != 0 ? t : f;
            else if (t.known && f.known && t.width == f.width &&
                     t.value == f.value)
                c = t; // both branches agree; selector irrelevant
            else
                c.known = false;
            break;
        }
        case TermOp::Concat: {
            size_t base = sp - i.a;
            Slot acc = st[base];
            for (uint32_t k = 1; k < i.a && acc.known; ++k) {
                const Slot& part = st[base + k];
                if (!part.known) {
                    acc.known = false;
                    break;
                }
                uint32_t w = acc.width + part.width;
                if (w > BitVec::kMaxWidth)
                    (void)BitVec(acc.width, acc.value)
                        .concat(BitVec(part.width, part.value)); // throws
                acc.value = (acc.value << part.width) | part.value;
                acc.width = w;
            }
            sp = base;
            st[sp++] = acc;
            break;
        }
        }
    }

    assert(sp == 1);
    if (!st[0].known)
        return std::nullopt;
    return BitVec(st[0].width, st[0].value);
}

} // namespace svlc::solver
