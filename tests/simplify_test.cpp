// HIR simplification: directed rewrites plus the semantic-preservation
// property (simplified expressions evaluate identically under random
// total assignments) and design-level equivalence after simplifying the
// dynamic-clearing transform's output.
#include "proc/sources.hpp"
#include "proc/testbench.hpp"
#include "sim/simulator.hpp"
#include "solver/eval3.hpp"
#include "test_util.hpp"
#include "xform/clearing.hpp"
#include "xform/simplify.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <random>

namespace svlc::test {
namespace {

using hir::BinaryOp;
using hir::Expr;
using hir::ExprPtr;
using hir::UnaryOp;

TEST(Simplify, ConstantFolding) {
    auto e = Expr::make_binary(BinaryOp::Add,
                               Expr::make_const(BitVec(8, 3)),
                               Expr::make_const(BitVec(8, 4)));
    auto s = xform::simplify(std::move(e));
    ASSERT_EQ(s->kind, hir::ExprKind::Const);
    EXPECT_EQ(s->value.value(), 7u);
}

TEST(Simplify, Identities) {
    auto net = [] { return Expr::make_net(1, 8, false); };
    // x + 0 -> x
    auto e1 = xform::simplify(Expr::make_binary(
        BinaryOp::Add, net(), Expr::make_const(BitVec(8, 0))));
    EXPECT_EQ(e1->kind, hir::ExprKind::NetRef);
    // x & 0 -> 0
    auto e2 = xform::simplify(Expr::make_binary(
        BinaryOp::And, net(), Expr::make_const(BitVec(8, 0))));
    ASSERT_EQ(e2->kind, hir::ExprKind::Const);
    EXPECT_EQ(e2->value.value(), 0u);
    // x & 0xFF -> x
    auto e3 = xform::simplify(Expr::make_binary(
        BinaryOp::And, net(), Expr::make_const(BitVec(8, 0xFF))));
    EXPECT_EQ(e3->kind, hir::ExprKind::NetRef);
    // x == x -> 1
    auto e4 = xform::simplify(
        Expr::make_binary(BinaryOp::Eq, net(), net()));
    ASSERT_EQ(e4->kind, hir::ExprKind::Const);
    EXPECT_EQ(e4->value.value(), 1u);
    // ~~x -> x
    auto e5 = xform::simplify(Expr::make_unary(
        UnaryOp::BitNot, Expr::make_unary(UnaryOp::BitNot, net())));
    EXPECT_EQ(e5->kind, hir::ExprKind::NetRef);
}

TEST(Simplify, CondRewrites) {
    auto net = [] { return Expr::make_net(2, 8, false); };
    auto sel = Expr::make_net(3, 1, false);
    // const selector
    auto e1 = xform::simplify(Expr::make_cond(
        Expr::make_const(BitVec(1, 1)), net(),
        Expr::make_const(BitVec(8, 9))));
    EXPECT_EQ(e1->kind, hir::ExprKind::NetRef);
    // equal arms
    auto e2 = xform::simplify(
        Expr::make_cond(std::move(sel), net(), net()));
    EXPECT_EQ(e2->kind, hir::ExprKind::NetRef);
}

TEST(Simplify, DowngradesAreNeverDeleted) {
    // 0 && endorse(x, T): the algebraic value is 0, but the downgrade
    // carries policy meaning — the rewrite must not erase it.
    auto c = compile(policy_header() + R"(
module m(input com [7:0] {U} x);
  reg seq [7:0] {T} r;
  always @(seq) begin
    r <= endorse(x, T) & 8'h0;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    auto stats = xform::simplify_design(*c.design);
    (void)stats;
    // The downgrade site must still exist in the body.
    bool found = false;
    for (const auto& proc : c.design->processes) {
        std::function<void(const hir::Stmt&)> scan = [&](const hir::Stmt& s) {
            if (s.kind == hir::StmtKind::Assign) {
                std::function<void(const hir::Expr&)> walk =
                    [&](const hir::Expr& e) {
                        if (e.kind == hir::ExprKind::Downgrade)
                            found = true;
                        if (e.a) walk(*e.a);
                        if (e.b) walk(*e.b);
                        if (e.c) walk(*e.c);
                        for (const auto& p : e.parts) walk(*p);
                    };
                walk(*s.rhs);
            }
            for (const auto& st : s.stmts) scan(*st);
            if (s.then_stmt) scan(*s.then_stmt);
            if (s.else_stmt) scan(*s.else_stmt);
        };
        scan(*proc.body);
    }
    EXPECT_TRUE(found);
}

/// Property: simplification preserves evaluation under random total
/// assignments (reusing the solver-test random expression generator's
/// shape via a local copy here).
class SimplifySemantics : public ::testing::TestWithParam<uint64_t> {};

ExprPtr rand_expr(std::mt19937_64& rng, int depth) {
    if (depth == 0 || rng() % 4 == 0) {
        if (rng() % 3 == 0)
            return Expr::make_const(BitVec(8, rng()));
        return Expr::make_net(static_cast<hir::NetId>(rng() % 4), 8, false);
    }
    switch (rng() % 9) {
    case 0:
        return Expr::make_unary(UnaryOp::BitNot, rand_expr(rng, depth - 1));
    case 1:
        return Expr::make_binary(BinaryOp::Add, rand_expr(rng, depth - 1),
                                 rand_expr(rng, depth - 1));
    case 2:
        return Expr::make_binary(BinaryOp::And, rand_expr(rng, depth - 1),
                                 rand_expr(rng, depth - 1));
    case 3:
        return Expr::make_binary(BinaryOp::Or, rand_expr(rng, depth - 1),
                                 rand_expr(rng, depth - 1));
    case 4:
        return Expr::make_binary(BinaryOp::Xor, rand_expr(rng, depth - 1),
                                 rand_expr(rng, depth - 1));
    case 5:
        return Expr::make_binary(BinaryOp::Eq, rand_expr(rng, depth - 1),
                                 rand_expr(rng, depth - 1));
    case 6:
        return Expr::make_cond(rand_expr(rng, depth - 1),
                               rand_expr(rng, depth - 1),
                               rand_expr(rng, depth - 1));
    case 7:
        return Expr::make_binary(BinaryOp::Sub, rand_expr(rng, depth - 1),
                                 rand_expr(rng, depth - 1));
    default:
        return Expr::make_binary(BinaryOp::LogAnd, rand_expr(rng, depth - 1),
                                 rand_expr(rng, depth - 1));
    }
}

TEST_P(SimplifySemantics, RewritesPreserveEvaluation) {
    std::mt19937_64 rng(GetParam());
    for (int trial = 0; trial < 100; ++trial) {
        ExprPtr original = rand_expr(rng, 5);
        ExprPtr copy = original->clone();
        ExprPtr simplified = xform::simplify(std::move(copy));
        for (int ext = 0; ext < 10; ++ext) {
            solver::Assignment asg;
            for (hir::NetId n = 0; n < 4; ++n)
                asg.set(n, false, BitVec(8, rng()));
            auto v1 = eval3_expr(*original, asg);
            auto v2 = eval3_expr(*simplified, asg);
            ASSERT_TRUE(v1.has_value());
            ASSERT_TRUE(v2.has_value());
            EXPECT_EQ(v1->value(), v2->value())
                << "seed " << GetParam() << " trial " << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifySemantics,
                         ::testing::Values(7, 14, 21, 28, 35, 42));

TEST(Simplify, ClearedDesignStaysEquivalentAfterSimplification) {
    // Apply dynamic clearing (which materializes label-check muxes), then
    // simplify; the simplified design must simulate identically.
    const char* src = R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module m(input com {T} in_v, input com [7:0] {U} in_u);
  reg seq {T} v;
  reg seq [7:0] {mode_to_lb(v)} shared;
  always @(seq) begin
    v <= in_v;
    if (v == 1'b1) shared <= in_u;
  end
endmodule
)";
    auto a = compile(src);
    auto b = compile(src);
    ASSERT_TRUE(a.ok() && b.ok());
    DiagnosticEngine d1, d2;
    xform::apply_dynamic_clearing(*a.design, d1);
    xform::apply_dynamic_clearing(*b.design, d2);
    ASSERT_TRUE(sem::analyze_wellformed(*a.design, d1));
    auto stats = xform::simplify_design(*b.design);
    (void)stats; // the cleared logic may already be in normal form
    ASSERT_TRUE(sem::analyze_wellformed(*b.design, d2));

    sim::Simulator sa(*a.design), sb(*b.design);
    std::mt19937_64 rng(77);
    for (int cycle = 0; cycle < 300; ++cycle) {
        uint64_t iv = rng() & 1, iu = rng() & 0xFF;
        sa.set_input("in_v", iv);
        sb.set_input("in_v", iv);
        sa.set_input("in_u", iu);
        sb.set_input("in_u", iu);
        sa.step();
        sb.step();
        ASSERT_EQ(sa.get("shared").value(), sb.get("shared").value())
            << "cycle " << cycle;
    }
}

TEST(Simplify, ProcessorDesignSimplifiesAndStillChecks) {
    auto design = proc::compile_cpu(proc::labeled_cpu_source());
    auto stats = xform::simplify_design(*design);
    DiagnosticEngine diags;
    ASSERT_TRUE(sem::analyze_wellformed(*design, diags)) << diags.render();
    auto result = check::check_design(*design, diags);
    EXPECT_TRUE(result.ok) << diags.render();
    EXPECT_EQ(result.downgrade_count, 3u);
    (void)stats;
}

} // namespace
} // namespace svlc::test
