// Cross-version byte stability of the checker's two persisted surfaces:
//   * the defining equation of every net, as hir::to_string renders it;
//   * the canonical context bytes of every obligation, in discharge order
//     (hashed with SHA-256 — the bytes, not the obligation fingerprint,
//     so a kToolVersion bump does not invalidate the fixture).
// The fixture under tests/fixtures/ was recorded by an earlier tool
// version. A store written by that version stays warm only while every
// context is byte-identical, and the equation dump pins the shapes that
// symbolic execution builds, so any drift here is a store-format change.
// A deliberate change must bump incr::kToolVersion and re-record the
// fixture from current_dump() below.
#include "check/context.hpp"
#include "proc/sources.hpp"
#include "support/fsutil.hpp"
#include "support/hash.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace svlc::test {
namespace {

/// Records the context bytes the checker offers, and never replays.
class RecordingOracle final : public check::ObligationOracle {
public:
    std::vector<std::string> hashes;
    bool replay(const check::ObligationContext& ctx,
                solver::EntailResult&) override {
        hashes.push_back(sha256_hex(ctx.bytes));
        return false;
    }
    void record(const check::ObligationContext&,
                const solver::EntailResult&) override {}
};

/// One design's section of the fixture: `def <net> <equation>` lines in
/// net-id order, then `ctx <sha256>` lines in discharge order.
std::string dump(const std::string& name, const std::string& source,
                 const std::string& top) {
    Compiled c = compile(source, top);
    EXPECT_TRUE(c.ok()) << name << ": " << c.errors();
    if (!c.ok())
        return {};
    std::ostringstream os;
    os << "== " << name << '\n';
    sem::Equations eqs = sem::build_equations(*c.design);
    auto names = c.design->net_names();
    for (const hir::Net& net : c.design->nets) {
        hir::ExprPtr def = eqs.terms.to_expr(eqs.def(net.id));
        if (def)
            os << "def " << net.name << ' ' << hir::to_string(*def, names)
               << '\n';
    }
    RecordingOracle oracle;
    check::CheckOptions opts;
    opts.oracle = &oracle;
    check::check_design(*c.design, *c.diags, opts);
    for (const std::string& h : oracle.hashes)
        os << "ctx " << h << '\n';
    return os.str();
}

std::string hdl_source(const char* file) {
    std::string text;
    EXPECT_TRUE(read_file(std::string(SVLC_HDL_DIR) + "/" + file, text))
        << file;
    return text;
}

std::string current_dump() {
    std::string out;
    out += dump("labeled", proc::labeled_cpu_source(), "");
    out += dump("baseline", proc::baseline_cpu_source(), "");
    out += dump("vulnerable", proc::vulnerable_cpu_source(), "");
    out += dump("quad", proc::quad_core_source(), "quad");
    for (const char* f : {"fig3_implicit_downgrade.svlc",
                          "fig4_mode_switch.svlc", "shared_counter.svlc"})
        out += dump(f, hdl_source(f), "");
    return out;
}

std::vector<std::string> lines_of(const std::string& text) {
    std::vector<std::string> out;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        out.push_back(line);
    return out;
}

TEST(ByteStability, EquationsAndContextBytesMatchRecordedFixture) {
    std::string fixture;
    ASSERT_TRUE(read_file(std::string(SVLC_FIXTURE_DIR) +
                              "/byte_stability.txt",
                          fixture));
    std::vector<std::string> want = lines_of(fixture);
    std::vector<std::string> got = lines_of(current_dump());
    ASSERT_GT(want.size(), 0u);
    size_t n = std::min(want.size(), got.size());
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(want[i], got[i]) << "first difference at fixture line "
                                   << i + 1;
    EXPECT_EQ(want.size(), got.size());
}

} // namespace
} // namespace svlc::test
