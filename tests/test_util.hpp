// Shared helpers for the test suite: one-call compile (parse → elaborate →
// well-formedness) and check pipelines over inline SecVerilogLC source.
#pragma once

#include "check/typecheck.hpp"
#include "parse/parser.hpp"
#include "sem/elaborate.hpp"
#include "sem/wellformed.hpp"
#include "support/diagnostics.hpp"
#include "support/source_manager.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace svlc::test {

struct Compiled {
    std::shared_ptr<SourceManager> sm;
    std::shared_ptr<DiagnosticEngine> diags;
    std::unique_ptr<hir::Design> design;

    [[nodiscard]] bool ok() const {
        return design != nullptr && !diags->has_errors();
    }
    [[nodiscard]] std::string errors() const { return diags->render(); }
};

/// Parses, elaborates, and runs well-formedness analysis.
inline Compiled compile(const std::string& source, const std::string& top = "") {
    Compiled out;
    out.sm = std::make_shared<SourceManager>();
    out.diags = std::make_shared<DiagnosticEngine>(out.sm.get());
    ast::CompilationUnit unit =
        Parser::parse_text(source, *out.sm, *out.diags, "test.svlc");
    if (out.diags->has_errors())
        return out;
    sem::ElaborateOptions opts;
    opts.top = top;
    out.design = sem::elaborate(unit, *out.diags, opts);
    if (!out.design)
        return out;
    sem::analyze_wellformed(*out.design, *out.diags);
    return out;
}

/// Compile then type-check; fails the current test on structural errors.
inline check::CheckResult check_source(const std::string& source,
                                       Compiled& compiled,
                                       check::CheckOptions opts = {}) {
    compiled = compile(source);
    EXPECT_TRUE(compiled.ok()) << compiled.errors();
    if (!compiled.ok())
        return {};
    return check::check_design(*compiled.design, *compiled.diags, opts);
}

/// Three-valued evaluation of an hir::Expr: interns it into a scratch
/// term table and runs solver::eval3 on the term.
inline std::optional<BitVec> eval3_expr(const hir::Expr& e,
                                        const solver::Assignment& asg) {
    sem::TermTable terms;
    return solver::eval3(terms, terms.intern(e), asg);
}

/// The default two-point integrity policy header used by most tests.
inline std::string policy_header() {
    return R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
)";
}

} // namespace svlc::test
