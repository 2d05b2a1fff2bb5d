// Persistent incremental verification (src/incr): fingerprint
// definition, verdict and obligation round-trips, corruption recovery,
// compatibility with stores written by older builds, and the driver
// integration (fingerprint skips, single-job invalidation, byte-identical
// verdict sets).
#include "incr/fingerprint.hpp"
#include "incr/store.hpp"

#include "driver/driver.hpp"
#include "driver/watch.hpp"
#include "support/fsutil.hpp"
#include "support/hash.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

namespace svlc::test {
namespace {

namespace fs = std::filesystem;
using driver::BatchReport;
using driver::DriverOptions;
using driver::JobSpec;
using driver::JobStatus;
using driver::VerificationDriver;
using incr::ArtifactStore;
using incr::StoredVerdict;
using incr::StoreOptions;

const char* kSecure = R"(
lattice { level T; level U; flow T -> U; }
module ok(input com {T} a, output com {T} b);
  assign b = a;
endmodule
)";

const char* kRejected = R"(
lattice { level T; level U; flow T -> U; }
module bad(input com {U} dirty);
  reg seq {T} creg;
  always @(seq) begin
    creg <= dirty;
  end
endmodule
)";

// A design whose obligations hit the enumeration path (domain >= 8).
const char* kModeSwitch = R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module m(input com {T} rst,
         input com [15:0] {T} decode_out,
         input com [15:0] {U} epc_in);
  wire com {T} mode_switch;
  reg seq [15:0] {U} epc;
  reg seq {T} mode;
  reg seq [15:0] {mode_to_lb(mode)} pc;
  assign mode_switch = decode_out[4];
  always @(seq) begin
    if (rst) pc <= 16'b0;
    else if (mode_switch && (next(mode) == 1'b0)) pc <= 16'h8000;
    else if (mode_switch) pc <= epc;
  end
  always @(seq) begin
    if (mode_switch) mode <= ~mode;
  end
  always @(seq) begin
    epc <= epc_in;
  end
endmodule
)";

class IncrTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Keyed by test name, not a counter: ctest runs each test in its
        // own process, where any per-process counter restarts at zero
        // and parallel tests would collide on the same directory.
        dir_ = fs::temp_directory_path() /
               (std::string("svlc_incr_test_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::error_code ec;
        fs::remove_all(dir_, ec);
        fs::create_directories(dir_);
    }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string store_dir() const { return (dir_ / "store").string(); }
    std::string write(const fs::path& rel, const std::string& text) {
        fs::path p = dir_ / rel;
        std::ofstream out(p);
        out << text;
        return p.string();
    }
    fs::path dir_;
};

// --- hashing / fingerprints ------------------------------------------------

TEST(IncrHash, Sha256KnownVectors) {
    EXPECT_EQ(sha256_hex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
              "7852b855");
    EXPECT_EQ(sha256_hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
    // Multi-block + incremental chunking agree with one-shot.
    std::string big(1000, 'x');
    Sha256 h;
    h.update(big.substr(0, 7));
    h.update(big.substr(7));
    EXPECT_EQ(h.hex_digest(), sha256_hex(big));
}

TEST(IncrFingerprint, SensitiveToEveryVerdictInput) {
    check::CheckOptions opts;
    std::string base = incr::job_fingerprint("a.svlc", kSecure, "", opts);
    EXPECT_EQ(base.size(), 64u);

    EXPECT_EQ(base, incr::job_fingerprint("a.svlc", kSecure, "", opts));
    EXPECT_NE(base, incr::job_fingerprint("b.svlc", kSecure, "", opts));
    EXPECT_NE(base,
              incr::job_fingerprint("a.svlc", kRejected, "", opts));
    EXPECT_NE(base, incr::job_fingerprint("a.svlc", kSecure, "ok", opts));

    check::CheckOptions classic;
    classic.mode = check::CheckerMode::ClassicSecVerilog;
    EXPECT_NE(base, incr::job_fingerprint("a.svlc", kSecure, "", classic));

    check::CheckOptions budget;
    budget.solver.max_candidates = 42;
    EXPECT_NE(base, incr::job_fingerprint("a.svlc", kSecure, "", budget));

    // The deadline is NOT part of the fingerprint: stored verdicts are
    // deadline-independent (timeouts are never stored).
    check::CheckOptions deadline = opts;
    deadline.solver.deadline =
        std::chrono::steady_clock::now() + std::chrono::hours(1);
    EXPECT_EQ(base,
              incr::job_fingerprint("a.svlc", kSecure, "", deadline));
}

// --- verdict store ---------------------------------------------------------

TEST_F(IncrTest, VerdictRoundTrip) {
    ArtifactStore store({store_dir()});
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;

    std::string fp = sha256_hex("some job");
    EXPECT_FALSE(store.load_verdict(fp).has_value());

    StoredVerdict v;
    v.secure = false;
    v.obligations = 7;
    v.failed = 2;
    v.downgrades = 1;
    v.diagnostics = "line one\nline \"two\" with bytes \x01\x02\n";
    ASSERT_TRUE(store.store_verdict(fp, v));

    auto got = store.load_verdict(fp);
    ASSERT_TRUE(got.has_value());
    EXPECT_FALSE(got->secure);
    EXPECT_EQ(got->obligations, 7u);
    EXPECT_EQ(got->failed, 2u);
    EXPECT_EQ(got->downgrades, 1u);
    EXPECT_EQ(got->diagnostics, v.diagnostics);

    auto s = store.stats();
    EXPECT_EQ(s.verdict_hits, 1u);
    EXPECT_EQ(s.verdict_misses, 1u);
    EXPECT_EQ(s.verdict_stores, 1u);
    EXPECT_EQ(s.corrupt_discarded, 0u);

    // Reopening (fresh process) sees the same record.
    ArtifactStore reopened({store_dir()});
    ASSERT_TRUE(reopened.open(error)) << error;
    ASSERT_TRUE(reopened.load_verdict(fp).has_value());
}

TEST_F(IncrTest, CorruptVerdictIsDiscardedNotReplayed) {
    ArtifactStore store({store_dir()});
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;

    std::string fp = sha256_hex("doomed");
    StoredVerdict v;
    v.secure = true;
    v.obligations = 3;
    ASSERT_TRUE(store.store_verdict(fp, v));

    // Flip one payload byte: checksum mismatch → discarded and deleted.
    fs::path file;
    for (const auto& e :
         fs::recursive_directory_iterator(fs::path(store_dir()) / "v2" /
                                          "verdicts"))
        if (e.is_regular_file())
            file = e.path();
    ASSERT_FALSE(file.empty());
    {
        std::fstream f(file, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            std::string(incr::kStoreFormat).size() + 10));
        f.put('X');
    }
    EXPECT_FALSE(store.load_verdict(fp).has_value());
    EXPECT_EQ(store.stats().corrupt_discarded, 1u);
    EXPECT_FALSE(fs::exists(file));

    // Truncation likewise fails closed.
    ASSERT_TRUE(store.store_verdict(fp, v));
    fs::resize_file(fs::path(store_dir()) / "v2" / "verdicts" /
                        fp.substr(0, 2) / fp,
                    12);
    EXPECT_FALSE(store.load_verdict(fp).has_value());
    EXPECT_EQ(store.stats().corrupt_discarded, 2u);
}

TEST_F(IncrTest, VersionMismatchedStoreIsRebuilt) {
    ArtifactStore store({store_dir()});
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    std::string fp = sha256_hex("old generation");
    ASSERT_TRUE(store.store_verdict(fp, {}));

    ASSERT_TRUE(write_file_atomic(
        (fs::path(store_dir()) / "v2" / "FORMAT").string(),
        "svlc-store/v999\n"));

    ArtifactStore next({store_dir()});
    ASSERT_TRUE(next.open(error)) << error;
    EXPECT_EQ(next.stats().corrupt_discarded, 1u);
    EXPECT_FALSE(next.load_verdict(fp).has_value()); // wiped, not misread
    // And the store is usable again immediately.
    ASSERT_TRUE(next.store_verdict(fp, {}));
    EXPECT_TRUE(next.load_verdict(fp).has_value());
}

// --- entail.cache files left by older builds -----------------------------

TEST_F(IncrTest, CorruptEntailFileLoadsAsEmpty) {
    // Older builds persisted an entailment cache in v2/entail.cache. The
    // store no longer reads it: even a corrupt one is neither counted
    // nor deleted, and the records beside it load as usual.
    ArtifactStore store({store_dir()});
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    std::string fp = sha256_hex("beside a stale entail file");
    ASSERT_TRUE(store.store_verdict(fp, {}));
    fs::path file = fs::path(store_dir()) / "v2" / "entail.cache";
    ASSERT_TRUE(write_file_atomic(file.string(), "svlc-store/v2 entail\ngarb"));

    ArtifactStore reopened({store_dir()});
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_TRUE(reopened.load_verdict(fp).has_value());
    EXPECT_EQ(reopened.stats().corrupt_discarded, 0u);
    EXPECT_TRUE(fs::exists(file));
}

// --- store codecs ----------------------------------------------------------

TEST(IncrCodec, StoredVerdictRoundTripsAndFailsClosed) {
    StoredVerdict v;
    v.secure = false;
    v.obligations = 11;
    v.failed = 3;
    v.downgrades = 2;
    v.diagnostics = "multi\nline \x01 bytes";
    std::string payload = incr::encode_stored_verdict(v);

    StoredVerdict out;
    ASSERT_TRUE(incr::decode_stored_verdict(payload, out));
    EXPECT_EQ(out.secure, v.secure);
    EXPECT_EQ(out.obligations, v.obligations);
    EXPECT_EQ(out.failed, v.failed);
    EXPECT_EQ(out.downgrades, v.downgrades);
    EXPECT_EQ(out.diagnostics, v.diagnostics);
    // Equal verdicts encode to equal bytes (the store's file payloads).
    EXPECT_EQ(payload, incr::encode_stored_verdict(out));

    // Truncation and trailing garbage both fail closed.
    EXPECT_FALSE(incr::decode_stored_verdict(
        payload.substr(0, payload.size() / 2), out));
    EXPECT_FALSE(incr::decode_stored_verdict(payload + "extra", out));
    EXPECT_FALSE(incr::decode_stored_verdict("", out));
}

// --- obligation records (v2) -----------------------------------------------

TEST(IncrCodec, StoredObligationRoundTripsAndFailsClosed) {
    incr::StoredObligation o;
    o.proven = false;
    o.lhs_level = 1;
    o.rhs_level = 0;
    o.witness.push_back({3, false, 0x2au});
    o.witness.push_back({0, true, 1u});
    std::string payload = incr::encode_stored_obligation(o);

    incr::StoredObligation out;
    ASSERT_TRUE(incr::decode_stored_obligation(payload, out));
    EXPECT_EQ(out.proven, o.proven);
    EXPECT_EQ(out.lhs_level, o.lhs_level);
    EXPECT_EQ(out.rhs_level, o.rhs_level);
    ASSERT_EQ(out.witness.size(), 2u);
    EXPECT_EQ(out.witness[0].var, 3u);
    EXPECT_FALSE(out.witness[0].primed);
    EXPECT_EQ(out.witness[0].value, 0x2au);
    EXPECT_EQ(out.witness[1].var, 0u);
    EXPECT_TRUE(out.witness[1].primed);
    // Equal records encode to equal bytes (the store's file payloads).
    EXPECT_EQ(payload, incr::encode_stored_obligation(out));

    incr::StoredObligation proven;
    proven.proven = true;
    std::string pp = incr::encode_stored_obligation(proven);
    ASSERT_TRUE(incr::decode_stored_obligation(pp, out));
    EXPECT_TRUE(out.proven);
    EXPECT_TRUE(out.witness.empty());

    // Truncation and trailing garbage both fail closed.
    EXPECT_FALSE(incr::decode_stored_obligation(
        payload.substr(0, payload.size() / 2), out));
    EXPECT_FALSE(incr::decode_stored_obligation(payload + "junk", out));
    EXPECT_FALSE(incr::decode_stored_obligation("", out));
}

TEST_F(IncrTest, ObligationStoreRoundTripAndCorruptionDiscard) {
    ArtifactStore store({store_dir()});
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;

    std::string fp = sha256_hex("an obligation");
    EXPECT_FALSE(store.load_obligation(fp).has_value());

    incr::StoredObligation o;
    o.proven = false;
    o.lhs_level = 1;
    o.rhs_level = 0;
    o.witness.push_back({2, true, 7u});
    ASSERT_TRUE(store.store_obligation(fp, o));
    auto got = store.load_obligation(fp);
    ASSERT_TRUE(got.has_value());
    EXPECT_FALSE(got->proven);
    ASSERT_EQ(got->witness.size(), 1u);
    EXPECT_EQ(got->witness[0].var, 2u);

    EXPECT_EQ(store.list_obligations(),
              std::vector<std::string>{fp});

    auto s = store.stats();
    EXPECT_EQ(s.obligation_hits, 1u);
    EXPECT_EQ(s.obligation_misses, 1u);
    EXPECT_EQ(s.obligation_stores, 1u);

    // Bit-flip → checksum mismatch → discarded and deleted, never
    // replayed.
    fs::path file = fs::path(store_dir()) / "v2" / "obligations" /
                    fp.substr(0, 2) / fp;
    ASSERT_TRUE(fs::exists(file));
    {
        std::fstream f(file,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            std::string(incr::kStoreFormat).size() + 10));
        f.put('X');
    }
    EXPECT_FALSE(store.load_obligation(fp).has_value());
    EXPECT_EQ(store.stats().corrupt_discarded, 1u);
    EXPECT_FALSE(fs::exists(file));
}

TEST_F(IncrTest, LegacyV1StoreIsDiscardedWholesale) {
    // A committed v1-generation store (the pre-obligation schema): opening
    // it must discard the whole v1/ tree in one step — no entry is ever
    // read through the old framing — and rebuild under v2/.
    fs::path fixture = fs::path(SVLC_FIXTURE_DIR) / "store_v1";
    ASSERT_TRUE(fs::exists(fixture / "v1" / "FORMAT"));
    fs::copy(fixture, dir_ / "store", fs::copy_options::recursive);
    ASSERT_TRUE(fs::exists(fs::path(store_dir()) / "v1" / "FORMAT"));

    ArtifactStore store({store_dir()});
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    EXPECT_EQ(store.stats().legacy_discarded, 1u);
    EXPECT_FALSE(fs::exists(fs::path(store_dir()) / "v1"));
    EXPECT_TRUE(fs::exists(fs::path(store_dir()) / "v2" / "FORMAT"));

    // The rebuilt store is immediately usable, and nothing leaked from
    // the discarded generation.
    EXPECT_TRUE(store.list_verdicts().empty());
    EXPECT_TRUE(store.list_obligations().empty());
    std::string fp = sha256_hex("fresh");
    ASSERT_TRUE(store.store_verdict(fp, {}));
    EXPECT_TRUE(store.load_verdict(fp).has_value());

    // A second open is clean: no v1/ left, no second discard.
    ArtifactStore again({store_dir()});
    ASSERT_TRUE(again.open(error)) << error;
    EXPECT_EQ(again.stats().legacy_discarded, 0u);
}

// --- obligation-level incrementality (driver) ------------------------------

/// Two-slice design: `who`'s obligations depend only on {handoff, who};
/// `count`'s read u_step. Editing u_step's label must re-solve exactly
/// the count-slice obligations and replay the rest.
const char* kSliced = R"(
lattice { level T; level U; flow T -> U; }
function owner(x:1) { 0 -> T; default -> U; }
module shared(input com {T} handoff,
              input com [7:0] {U} u_step,
              output com [7:0] {U} value);
  reg seq {T} who;
  reg seq [7:0] {owner(who)} count;
  assign value = count;
  always @(seq) begin
    if (handoff) who <= ~who;
  end
  always @(seq) begin
    if (handoff && (who == 1'b1) && (next(who) == 1'b0))
      count <= 8'h00;
    else if (who == 1'b1)
      count <= count + u_step;
    else
      count <= count + 8'h01;
  end
endmodule
)";

TEST_F(IncrTest, WhitespaceEditReplaysEveryObligation) {
    std::string path = write("a.svlc", kSliced);
    std::vector<JobSpec> jobs = {{path, path, "", "", 0}};
    DriverOptions opts;
    opts.store_dir = store_dir();

    BatchReport cold = VerificationDriver(opts).run(jobs);
    ASSERT_EQ(cold.results[0].status, JobStatus::Secure);
    size_t total = cold.results[0].obligations;
    ASSERT_GT(total, 0u);
    EXPECT_EQ(cold.results[0].obligations_solved, total);
    EXPECT_EQ(cold.results[0].obligations_replayed, 0u);

    // Comment + whitespace edit: the job fingerprint misses (bytes
    // changed) but every obligation fingerprint hits — zero solver work.
    write("a.svlc", "// an explanatory comment\n\n" + std::string(kSliced) +
                        "\n\n");
    BatchReport warm = VerificationDriver(opts).run(jobs);
    EXPECT_FALSE(warm.results[0].skipped);
    EXPECT_EQ(warm.results[0].obligations, total);
    EXPECT_EQ(warm.results[0].obligations_replayed, total);
    EXPECT_EQ(warm.results[0].obligations_solved, 0u);
    EXPECT_EQ(warm.results[0].solver.queries, 0u);

    // The replayed report is byte-identical to a from-scratch run of the
    // edited text.
    DriverOptions no_store;
    BatchReport fresh = VerificationDriver(no_store).run(jobs);
    EXPECT_EQ(warm.to_json(false), fresh.to_json(false));
    // The summary's verdict lines agree; its trailing solver line is
    // telemetry (0 queries when everything replays) and excluded.
    EXPECT_EQ(warm.summary().substr(0, warm.summary().find("solver:")),
              fresh.summary().substr(0, fresh.summary().find("solver:")));
}

TEST_F(IncrTest, StoreWithEntailCacheFromOlderBuildStaysWarm) {
    // tests/fixtures/store_v2_entail is a store written by a build that
    // still persisted the entailment cache: `svlc batch <file> --store`
    // over kModeSwitch, kRejected and kSliced, saved under the job names
    // below, so it holds v2/entail.cache beside its verdict and
    // obligation records. The tool version did not change when the cache
    // left the store, so every record must still answer.
    fs::path fixture = fs::path(SVLC_FIXTURE_DIR) / "store_v2_entail";
    fs::path entail = fs::path("v2") / "entail.cache";
    ASSERT_TRUE(fs::exists(fixture / entail));
    fs::copy(fixture, dir_ / "store", fs::copy_options::recursive);
    std::string entail_bytes;
    ASSERT_TRUE(read_file((fixture / entail).string(), entail_bytes));

    std::vector<JobSpec> jobs = {{"mode_switch.svlc", "", kModeSwitch, "", 0},
                                 {"leak.svlc", "", kRejected, "", 0},
                                 {"sliced.svlc", "", kSliced, "", 0}};
    DriverOptions opts;
    opts.store_dir = store_dir();
    BatchReport warm = VerificationDriver(opts).run(jobs);
    EXPECT_EQ(warm.skipped_count(), jobs.size());
    EXPECT_EQ(warm.store.corrupt_discarded, 0u);
    BatchReport fresh = VerificationDriver(DriverOptions{}).run(jobs);
    EXPECT_EQ(warm.to_json(false), fresh.to_json(false));

    // An edited job misses its job fingerprint but replays every
    // obligation recorded by the older build.
    std::vector<JobSpec> edited = {
        {"sliced.svlc", "", "// edited\n" + std::string(kSliced), "", 0}};
    BatchReport replay = VerificationDriver(opts).run(edited);
    ASSERT_EQ(replay.results[0].status, JobStatus::Secure);
    EXPECT_FALSE(replay.results[0].skipped);
    EXPECT_GT(replay.results[0].obligations, 0u);
    EXPECT_EQ(replay.results[0].obligations_replayed,
              replay.results[0].obligations);
    EXPECT_EQ(replay.results[0].obligations_solved, 0u);

    // The stale file is never read, rewritten or deleted.
    std::string after;
    ASSERT_TRUE(read_file((fs::path(store_dir()) / entail).string(), after));
    EXPECT_EQ(after, entail_bytes);
}

TEST_F(IncrTest, OneNetLabelEditResolvesOnlyDependentSlice) {
    std::string path = write("a.svlc", kSliced);
    std::vector<JobSpec> jobs = {{path, path, "", "", 0}};
    DriverOptions opts;
    opts.store_dir = store_dir();

    BatchReport cold = VerificationDriver(opts).run(jobs);
    size_t total = cold.results[0].obligations;
    ASSERT_GT(total, 1u);

    // One-net label edit: u_step {U} -> {T} (T flows to U, still secure).
    // Only the obligation whose constraint reads u_step's label — the
    // count update — re-solves; who/value/hold obligations replay.
    std::string edited(kSliced);
    size_t pos = edited.find("{U} u_step");
    ASSERT_NE(pos, std::string::npos);
    edited.replace(pos, 3, "{T}");
    write("a.svlc", edited);

    BatchReport warm = VerificationDriver(opts).run(jobs);
    EXPECT_EQ(warm.results[0].status, JobStatus::Secure);
    EXPECT_EQ(warm.results[0].obligations, total);
    EXPECT_EQ(warm.results[0].obligations_solved, 1u);
    EXPECT_EQ(warm.results[0].obligations_replayed, total - 1);

    DriverOptions no_store;
    BatchReport fresh = VerificationDriver(no_store).run(jobs);
    EXPECT_EQ(warm.to_json(false), fresh.to_json(false));
}

/// Rejected with a *bound* counterexample: U ⊑ lb(sel) is refuted at
/// sel=0, so the stored obligation carries a witness binding to rebind
/// and re-render on replay.
const char* kRejectedWitness = R"(
lattice { level T; level U; flow T -> U; }
function lb(x:1) { 0 -> T; default -> U; }
module bad(input com {U} dirty, input com {T} sel);
  reg seq {lb(sel)} creg;
  always @(seq) begin
    creg <= dirty;
  end
endmodule
)";

TEST_F(IncrTest, JobRenameReplaysProofsAndRerendersDiagnostics) {
    // Names and locations are render-only: a rename misses the whole-job
    // fingerprint (the stored verdict's diagnostics embed the name) but
    // hits every obligation fingerprint, so proofs — including refutation
    // witnesses — replay while diagnostics re-render under the new name.
    std::string old_path = write("old.svlc", kRejectedWitness);
    DriverOptions opts;
    opts.store_dir = store_dir();
    BatchReport cold =
        VerificationDriver(opts).run({{old_path, old_path, "", "", 0}});
    ASSERT_EQ(cold.results[0].status, JobStatus::Rejected);
    size_t total = cold.results[0].obligations;
    ASSERT_GT(cold.results[0].failed, 0u);

    std::string new_path = write("renamed.svlc", kRejectedWitness);
    std::vector<JobSpec> renamed = {{new_path, new_path, "", "", 0}};
    BatchReport warm = VerificationDriver(opts).run(renamed);
    EXPECT_FALSE(warm.results[0].skipped); // job fp embeds the name
    EXPECT_EQ(warm.results[0].obligations, total);
    EXPECT_EQ(warm.results[0].obligations_replayed, total);
    EXPECT_EQ(warm.results[0].obligations_solved, 0u);
    EXPECT_EQ(warm.results[0].status, JobStatus::Rejected);
    EXPECT_NE(warm.results[0].diagnostics.find("renamed.svlc"),
              std::string::npos);
    EXPECT_EQ(warm.results[0].diagnostics.find("old.svlc"),
              std::string::npos);

    // Byte-identical to a cold run of the renamed job — witness text in
    // the flagged records included.
    DriverOptions no_store;
    BatchReport fresh = VerificationDriver(no_store).run(renamed);
    EXPECT_EQ(warm.to_json(false), fresh.to_json(false));
    ASSERT_FALSE(warm.results[0].flagged.empty());
    EXPECT_FALSE(warm.results[0].flagged[0].witness.empty());
}

// --- driver integration ----------------------------------------------------

TEST_F(IncrTest, SecondRunSkipsEverythingWithIdenticalVerdicts) {
    std::string a = write("a.svlc", kSecure);
    std::string b = write("b.svlc", kRejected);
    std::string c = write("c.svlc", kModeSwitch);
    std::vector<JobSpec> jobs = {{a, a, "", "", 0},
                                 {b, b, "", "", 0},
                                 {c, c, "", "", 0}};

    DriverOptions opts;
    opts.store_dir = store_dir();
    VerificationDriver cold(opts);
    BatchReport r1 = cold.run(jobs);
    EXPECT_EQ(r1.skipped_count(), 0u);
    EXPECT_TRUE(r1.store_enabled);
    EXPECT_EQ(r1.store.verdict_stores, 3u);
    ASSERT_EQ(r1.results.size(), 3u);
    EXPECT_EQ(r1.results[0].status, JobStatus::Secure);
    EXPECT_EQ(r1.results[1].status, JobStatus::Rejected);
    EXPECT_EQ(r1.results[2].status, JobStatus::Secure);
    EXPECT_EQ(r1.results[0].fingerprint.size(), 64u);

    // Fresh driver = fresh process: every job replays from the store.
    VerificationDriver warm(opts);
    BatchReport r2 = warm.run(jobs);
    EXPECT_EQ(r2.skipped_count(), 3u);
    EXPECT_EQ(r2.store.verdict_hits, 3u);
    for (const auto& r : r2.results) {
        EXPECT_TRUE(r.skipped);
        EXPECT_EQ(r.attempts, 0);
        EXPECT_EQ(r.solver.queries, 0u); // pipeline never ran
    }
    // The verdict set — the stable report — is byte-identical.
    EXPECT_EQ(r1.to_json(false), r2.to_json(false));
    EXPECT_EQ(r1.summary().substr(0, r1.summary().find("solver:")),
              r2.summary().substr(0, r2.summary().find("solver:")));
    // The full report says *why* each job was skipped.
    EXPECT_NE(r2.to_json(true).find("\"skipped\": \"fingerprint-hit\""),
              std::string::npos);
}

TEST_F(IncrTest, MutatingOneSourceReverifiesExactlyThatJob) {
    std::string a = write("a.svlc", kSecure);
    std::string c = write("c.svlc", kModeSwitch);
    std::vector<JobSpec> jobs = {{a, a, "", "", 0}, {c, c, "", "", 0}};

    DriverOptions opts;
    opts.store_dir = store_dir();
    VerificationDriver(opts).run(jobs);

    // Mutate a.svlc into a rejected design.
    write("a.svlc", kRejected);
    VerificationDriver drv(opts);
    BatchReport r = drv.run(jobs);
    ASSERT_EQ(r.results.size(), 2u);
    EXPECT_FALSE(r.results[0].skipped);
    EXPECT_EQ(r.results[0].status, JobStatus::Rejected);
    EXPECT_TRUE(r.results[1].skipped);
    EXPECT_EQ(r.results[1].status, JobStatus::Secure);
    EXPECT_EQ(r.skipped_count(), 1u);
}

TEST_F(IncrTest, CacheDisabledStillSkipsByFingerprint) {
    // The batch path keeps no entailment cache: the store alone carries
    // a run's work to the next, and it writes no entail.cache.
    std::string c = write("c.svlc", kModeSwitch);
    std::vector<JobSpec> jobs = {{c, c, "", "", 0}};
    DriverOptions opts;
    opts.store_dir = store_dir();
    VerificationDriver(opts).run(jobs);
    BatchReport r = VerificationDriver(opts).run(jobs);
    EXPECT_EQ(r.skipped_count(), 1u);
    EXPECT_FALSE(fs::exists(fs::path(store_dir()) / "v2" / "entail.cache"));
}

TEST_F(IncrTest, ErrorsAndTimeoutsAreNeverPersisted) {
    std::string missing = (dir_ / "missing.svlc").string();
    std::vector<JobSpec> jobs = {{missing, missing, "", "", 0}};
    DriverOptions opts;
    opts.store_dir = store_dir();
    VerificationDriver(opts).run(jobs);
    BatchReport r = VerificationDriver(opts).run(jobs);
    EXPECT_EQ(r.skipped_count(), 0u);
    EXPECT_EQ(r.results[0].status, JobStatus::Error);

    JobSpec slow;
    ASSERT_TRUE(driver::builtin_job("labeled", slow));
    slow.timeout_ms = 1; // guaranteed deadline expiry
    BatchReport t1 = VerificationDriver(opts).run({slow});
    ASSERT_EQ(t1.results[0].status, JobStatus::Timeout);
    BatchReport t2 = VerificationDriver(opts).run({slow});
    EXPECT_FALSE(t2.results[0].skipped); // timeout was not replayed
}

TEST_F(IncrTest, WatchRunsIterationsAndStops) {
    write("a.svlc", kSecure);
    write("b.svlc", kRejected);

    driver::WatchOptions opts;
    opts.driver.store_dir = store_dir();
    opts.interval_ms = 1;
    opts.max_iterations = 2;

    fs::path log = dir_ / "watch.log";
    std::FILE* out = std::fopen(log.string().c_str(), "w");
    ASSERT_NE(out, nullptr);
    int rc = driver::run_watch(dir_.string(), opts, out, out);
    std::fclose(out);
    EXPECT_EQ(rc, 0);

    std::string text;
    ASSERT_TRUE(read_file(log.string(), text));
    EXPECT_NE(text.find("2/2 job(s) dirty"), std::string::npos);
    EXPECT_NE(text.find("[watch #2] clean"), std::string::npos);

    // A missing target is a usage error on the first iteration.
    std::FILE* devnull = std::fopen(log.string().c_str(), "w");
    EXPECT_EQ(driver::run_watch((dir_ / "nope").string(), opts, devnull,
                                devnull),
              2);
    std::fclose(devnull);
}

// --- stat-based dirty detection (racy-stat window) -------------------------

TEST(WatchStat, IdenticalRecentSignatureIsNotTrusted) {
    // A same-size rewrite within the filesystem's timestamp granularity
    // leaves (mtime, size) unchanged; inside the racy window the watcher
    // must fall back to re-hashing instead of declaring the file clean.
    driver::StatSig sig;
    sig.mtime_ns = 1'000'000'000'000;
    sig.size = 64;
    int64_t now = sig.mtime_ns + driver::kStatRacyWindowNs - 1;
    EXPECT_FALSE(driver::stat_proves_unchanged(sig, sig, now));
    // Old enough: the signature alone proves the content unchanged.
    now = sig.mtime_ns + driver::kStatRacyWindowNs;
    EXPECT_TRUE(driver::stat_proves_unchanged(sig, sig, now));
}

TEST(WatchStat, ChangedSignatureOrUnsetPrevIsNeverTrusted) {
    driver::StatSig prev;
    prev.mtime_ns = 5'000'000'000;
    prev.size = 10;
    driver::StatSig cur = prev;
    int64_t old_now = prev.mtime_ns + 10 * driver::kStatRacyWindowNs;

    cur.size = 11;
    EXPECT_FALSE(driver::stat_proves_unchanged(prev, cur, old_now));
    cur = prev;
    cur.mtime_ns += 1;
    EXPECT_FALSE(driver::stat_proves_unchanged(prev, cur, old_now));

    driver::StatSig unset; // mtime_ns = -1: no prior observation
    EXPECT_FALSE(driver::stat_proves_unchanged(unset, prev, old_now));
}

TEST_F(IncrTest, WatchSeesSameSizeSameSecondRewrite) {
    // Regression: two same-length writes inside one mtime tick used to be
    // invisible to the stat-based skip, so the second verdict never
    // updated. kSecure and the broken variant below differ in exactly one
    // byte ('a' -> 'z' makes the assign read an undeclared net).
    std::string broken(kSecure);
    size_t pos = broken.find("assign b = a;");
    ASSERT_NE(pos, std::string::npos);
    broken[pos + std::string("assign b = ").size()] = 'z';
    ASSERT_EQ(broken.size(), std::string(kSecure).size());

    std::string path = write("a.svlc", kSecure);
    driver::StatSig first;
    ASSERT_TRUE(driver::stat_file(path, first));

    // Rewrite immediately and pin mtime to the first observation,
    // simulating a coarse-granularity filesystem tick.
    write("a.svlc", broken);
    fs::last_write_time(
        path, fs::file_time_type(std::chrono::nanoseconds(first.mtime_ns)));
    driver::StatSig second;
    ASSERT_TRUE(driver::stat_file(path, second));
    ASSERT_EQ(first, second); // stat cannot distinguish the rewrite

    // The racy window is what saves us: the mtime is recent, so the
    // signature match must NOT be trusted.
    EXPECT_FALSE(driver::stat_proves_unchanged(
        first, second, driver::file_clock_now_ns()));
}

TEST_F(IncrTest, WatchReverifiesAfterSameSignatureRewrite) {
    // End-to-end: iteration 1 verifies the secure version; mid-poll the
    // file is rewritten same-size with its mtime pinned back (a rewrite
    // within one timestamp tick); iteration 2 must re-read and flip the
    // verdict instead of trusting the unchanged stat signature.
    std::string broken(kSecure);
    size_t pos = broken.find("assign b = a;");
    ASSERT_NE(pos, std::string::npos);
    broken[pos + std::string("assign b = ").size()] = 'z';
    ASSERT_EQ(broken.size(), std::string(kSecure).size());

    std::string path = write("a.svlc", kSecure);
    driver::StatSig first;
    ASSERT_TRUE(driver::stat_file(path, first));

    driver::WatchOptions opts;
    opts.interval_ms = 600;
    opts.max_iterations = 2;
    std::thread writer([&] {
        // Lands inside iteration 1's poll sleep: well after its verify
        // (sub-ms for this module), well before iteration 2.
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        write("a.svlc", broken);
        fs::last_write_time(path, fs::file_time_type(std::chrono::nanoseconds(
                                      first.mtime_ns)));
    });

    fs::path log = dir_ / "watch.log";
    std::FILE* out = std::fopen(log.string().c_str(), "w");
    ASSERT_NE(out, nullptr);
    int rc = driver::run_watch(dir_.string(), opts, out, out);
    std::fclose(out);
    writer.join();
    EXPECT_EQ(rc, 0);

    std::string text;
    ASSERT_TRUE(read_file(log.string(), text));
    EXPECT_NE(text.find("(was secure)"), std::string::npos) << text;
}

} // namespace
} // namespace svlc::test
