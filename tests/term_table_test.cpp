// sem::TermTable: hash-consing (structurally equal builds share an id),
// the cached first-occurrence variable lists against a reference tree
// walk, loc-free round trips through to_expr, and linear node counts for
// deep guard chains.
#include "fuzz/generator.hpp"
#include "sem/term_table.hpp"
#include "sem/updates.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace svlc::test {
namespace {

using hir::BinaryOp;
using hir::Expr;
using hir::ExprKind;
using hir::ExprPtr;
using hir::UnaryOp;
using sem::TermId;
using sem::TermTable;
using sem::TermVar;

/// Reference: first-occurrence DFS over the expression *tree* — the
/// order the entailment engine's closure has always enumerated
/// variables in (an ArrayRead contributes its index's variables only).
void reference_vars(const Expr& e, std::vector<TermVar>& out) {
    switch (e.kind) {
    case ExprKind::Const:
        return;
    case ExprKind::NetRef: {
        TermVar v{e.net, e.primed};
        if (std::find(out.begin(), out.end(), v) == out.end())
            out.push_back(v);
        return;
    }
    default:
        for (const Expr* k : {e.index.get(), e.a.get(), e.b.get(), e.c.get()})
            if (k)
                reference_vars(*k, out);
        for (const auto& p : e.parts)
            reference_vars(*p, out);
        return;
    }
}

/// Structural equality of two trees, locs ignored, every per-kind field
/// (widths and downgrade labels included) compared.
bool same_tree(const Expr& a, const Expr& b) {
    if (a.kind != b.kind || a.width != b.width)
        return false;
    auto same_kid = [](const ExprPtr& x, const ExprPtr& y) {
        return (!x && !y) || (x && y && same_tree(*x, *y));
    };
    switch (a.kind) {
    case ExprKind::Const:
        return a.value == b.value;
    case ExprKind::NetRef:
        return a.net == b.net && a.primed == b.primed;
    case ExprKind::ArrayRead:
        return a.net == b.net && a.primed == b.primed &&
               same_kid(a.index, b.index);
    case ExprKind::Slice:
        return a.msb == b.msb && a.lsb == b.lsb && same_kid(a.a, b.a);
    case ExprKind::Unary:
        return a.un_op == b.un_op && same_kid(a.a, b.a);
    case ExprKind::Binary:
        return a.bin_op == b.bin_op && same_kid(a.a, b.a) &&
               same_kid(a.b, b.b);
    case ExprKind::Cond:
        return same_kid(a.a, b.a) && same_kid(a.b, b.b) && same_kid(a.c, b.c);
    case ExprKind::Concat:
        if (a.parts.size() != b.parts.size())
            return false;
        for (size_t i = 0; i < a.parts.size(); ++i)
            if (!same_tree(*a.parts[i], *b.parts[i]))
                return false;
        return true;
    case ExprKind::Downgrade:
        return a.dg_kind == b.dg_kind && a.dg_label == b.dg_label &&
               same_kid(a.a, b.a);
    }
    return false;
}

void collect_exprs(const hir::Stmt& s, std::vector<const Expr*>& out) {
    for (const Expr* e : {s.cond.get(), s.rhs.get(), s.pred.get(),
                          s.lhs.index.get()})
        if (e)
            out.push_back(e);
    for (const auto& st : s.stmts)
        collect_exprs(*st, out);
    if (s.then_stmt)
        collect_exprs(*s.then_stmt, out);
    if (s.else_stmt)
        collect_exprs(*s.else_stmt, out);
}

TEST(TermTable, StructurallyEqualBuildsShareAnId) {
    TermTable t;
    auto build = [] {
        return Expr::make_cond(
            Expr::make_binary(BinaryOp::Eq, Expr::make_net(1, 8, false),
                              Expr::make_const(BitVec(8, 3))),
            Expr::make_net(2, 8, true), Expr::make_const(BitVec(8, 0)),
            SourceLoc{1, 10, 2});
    };
    ExprPtr a = build(), b = build();
    b->loc = SourceLoc{7, 3, 4}; // locs are not structure
    TermId ia = t.intern(*a);
    EXPECT_EQ(ia, t.intern(*b));
    size_t nodes = t.size();
    // The same shape through the constructors: no new node.
    TermId built = t.cond(t.binary(BinaryOp::Eq, t.net(1, 8, false),
                                   t.constant(BitVec(8, 3))),
                          t.net(2, 8, true), t.constant(BitVec(8, 0)));
    EXPECT_EQ(built, ia);
    EXPECT_EQ(t.size(), nodes);
    // Any field difference is a different term.
    EXPECT_NE(t.net(2, 8, true), t.net(2, 8, false));
    EXPECT_NE(t.net(2, 8, true), t.net(2, 4, true));
    EXPECT_NE(t.constant(BitVec(8, 3)), t.constant(BitVec(4, 3)));
    EXPECT_NE(t.unary(UnaryOp::LogNot, ia), t.unary(UnaryOp::BitNot, ia));
    // Constructor widths follow hir::Expr::make_*.
    EXPECT_EQ(t.node(t.unary(UnaryOp::LogNot, t.net(1, 8, false))).width, 1u);
    EXPECT_EQ(t.node(t.binary(BinaryOp::Add, t.net(1, 8, false),
                              t.net(2, 4, false)))
                  .width,
              8u);
}

TEST(TermTable, DowngradeLabelIsPartOfTheStructure) {
    TermTable t;
    auto dg = [](LevelId level) {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::Downgrade;
        e->width = 8;
        e->dg_kind = hir::DowngradeKind::Endorse;
        e->dg_label.atoms.push_back(hir::LabelAtom::make_level(level));
        e->a = Expr::make_net(1, 8, false);
        return e;
    };
    EXPECT_EQ(t.intern(*dg(0)), t.intern(*dg(0)));
    EXPECT_NE(t.intern(*dg(0)), t.intern(*dg(1)));
    ExprPtr back = t.to_expr(t.intern(*dg(1)));
    EXPECT_TRUE(same_tree(*back, *dg(1)));
}

/// Runs `check` on every expression of every process of generated
/// programs that elaborate.
template <class Check>
void for_generated_exprs(int programs, Check check) {
    int checked = 0;
    for (uint64_t seed = 1; seed <= static_cast<uint64_t>(programs); ++seed) {
        fuzz::GenOptions opts;
        opts.seed = seed;
        Compiled c = compile(fuzz::generate_program(opts).source);
        if (!c.ok())
            continue;
        std::vector<const Expr*> exprs;
        for (const hir::Process& p : c.design->processes)
            collect_exprs(*p.body, exprs);
        for (const Expr* e : exprs) {
            check(*c.design, *e);
            ++checked;
        }
    }
    EXPECT_GT(checked, 100);
}

TEST(TermTable, CachedVarsMatchReferenceTreeWalk) {
    for_generated_exprs(60, [](const hir::Design&, const Expr& e) {
        TermTable t;
        TermId id = t.intern(e);
        std::vector<TermVar> want;
        reference_vars(e, want);
        auto got = t.vars(id);
        ASSERT_EQ(std::vector<TermVar>(got.begin(), got.end()), want);
        // Cached: a second call answers from the same span.
        EXPECT_EQ(t.vars(id).data(), got.data());

        // collect_reads = hir::Expr::collect_reads with repeats removed.
        std::vector<hir::NetId> plain, primed, dedup_plain, dedup_primed;
        e.collect_reads(plain, primed);
        for (auto [src, dst] : {std::pair{&plain, &dedup_plain},
                                std::pair{&primed, &dedup_primed}})
            for (hir::NetId n : *src)
                if (std::find(dst->begin(), dst->end(), n) == dst->end())
                    dst->push_back(n);
        std::vector<hir::NetId> tplain, tprimed;
        t.collect_reads(id, tplain, tprimed);
        EXPECT_EQ(tplain, dedup_plain);
        EXPECT_EQ(tprimed, dedup_primed);
    });
}

TEST(TermTable, SharedEquationVarsMatchTheirTreeExpansion) {
    // Equations share subterms (guards, hold chains); the DAG walk behind
    // vars() must still produce the tree walk's order.
    int checked = 0;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        fuzz::GenOptions opts;
        opts.seed = seed;
        Compiled c = compile(fuzz::generate_program(opts).source);
        if (!c.ok())
            continue;
        sem::Equations eqs = sem::build_equations(*c.design);
        for (TermId def : eqs.defs) {
            if (def == sem::kNoTerm)
                continue;
            std::vector<TermVar> want;
            reference_vars(*eqs.terms.to_expr(def), want);
            auto got = eqs.terms.vars(def);
            ASSERT_EQ(std::vector<TermVar>(got.begin(), got.end()), want);
            ++checked;
        }
    }
    EXPECT_GT(checked, 50);
}

TEST(TermTable, ToExprRoundTripsIgnoringLocs) {
    for_generated_exprs(60, [](const hir::Design& design, const Expr& e) {
        TermTable t;
        ExprPtr back = t.to_expr(t.intern(e));
        ASSERT_TRUE(back);
        EXPECT_TRUE(same_tree(*back, e))
            << hir::to_string(e, design.net_names()) << " vs "
            << hir::to_string(*back, design.net_names());
        EXPECT_FALSE(back->loc.valid());
    });
    TermTable t;
    EXPECT_EQ(t.to_expr(sem::kNoTerm), nullptr);
}

TEST(TermTable, DeepElseIfChainBuildsLinearlyManyNodes) {
    // A depth-N else-if chain (a flat N-item `case`, which elaboration
    // lowers to nested ifs; the parser caps syntactic nesting): the guard
    // of branch k conjoins k negated conditions, and the register's
    // equation nests N conditionals. As trees that is O(N^2) nodes;
    // interned, each level adds O(1).
    constexpr int kDepth = 256;
    std::ostringstream src;
    src << "lattice { level T; level U; flow T -> U; }\n"
        << "module m(input com [7:0] {T} sel, input com [7:0] {T} d);\n"
        << "  reg seq [7:0] {T} r;\n"
        << "  always @(seq) begin\n"
        << "    case (sel)\n";
    for (int k = 0; k < kDepth; ++k)
        src << "      8'd" << k << ": r <= d + 8'd" << k << ";\n";
    src << "    endcase\n  end\nendmodule\n";
    Compiled c = compile(src.str());
    ASSERT_TRUE(c.ok()) << c.errors();
    sem::Equations eqs = sem::build_equations(*c.design);
    hir::NetId r = c.design->find_net("r");
    ASSERT_NE(eqs.def(r), sem::kNoTerm);
    EXPECT_EQ(eqs.writes[r].size(), static_cast<size_t>(kDepth));
    // Per level: two constants, the test, its negation, two guard
    // conjunctions, the sum and the conditional — about 8 nodes.
    EXPECT_LE(eqs.terms.size(), static_cast<size_t>(10 * kDepth));
}

} // namespace
} // namespace svlc::test
