// End-to-end tests for the distributed coordinator/worker fleet
// (src/dist): an in-process Coordinator on its own thread, real Workers
// and hand-rolled protocol clients over the Unix socket. Covers the
// acceptance bar of the subsystem:
//   * a coordinator + worker fleet produces a verdict report
//     byte-identical to a single-process `svlc batch` over the same
//     manifest, and the merged store warm-skips a later cold batch,
//   * a worker that dies holding a lease never loses the job — the
//     lease is reclaimed and re-issued,
//   * a stolen job that completes twice is reported exactly once
//     (first result wins, the duplicate is acknowledged and dropped),
//   * the delta-sync handshake transfers only entries the coordinator
//     lacks.
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"

#include "driver/driver.hpp"
#include "incr/fingerprint.hpp"
#include "incr/store.hpp"
#include "serve/client.hpp"
#include "support/fsutil.hpp"
#include "support/hash.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace svlc::test {
namespace {

namespace fs = std::filesystem;
using dist::Coordinator;
using dist::CoordinatorOptions;
using dist::Worker;
using dist::WorkerOptions;
using driver::BatchReport;
using driver::JobSpec;
using serve::Client;
using serve::RpcMessage;

const char* kSecureSrc = R"(
lattice { level T; level U; flow T -> U; }
module ok(input com {T} a, output com {T} b);
  assign b = a;
endmodule
)";

const char* kRejectedSrc = R"(
lattice { level T; level U; flow T -> U; }
module bad(input com {U} dirty);
  reg seq {T} creg;
  always @(seq) begin
    creg <= dirty;
  end
endmodule
)";

// Hits the enumeration path, so workers actually produce obligation
// records to delta-sync back.
const char* kModeSwitchSrc = R"(
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

std::string unique_socket(const char* tag) {
    static std::atomic<int> counter{0};
    return (fs::temp_directory_path() /
            ("svlc_dist_test_" + std::to_string(::getpid()) + "_" + tag +
             "_" + std::to_string(counter++) + ".sock"))
        .string();
}

std::vector<JobSpec> inline_jobs() {
    std::vector<JobSpec> jobs;
    jobs.push_back({"job:secure", "", kSecureSrc, "", 0});
    jobs.push_back({"job:rejected", "", kRejectedSrc, "", 0});
    jobs.push_back({"job:mode", "", kModeSwitchSrc, "", 0});
    return jobs;
}

/// Coordinator on a background thread; the report is collected by join().
struct TestCoordinator {
    Coordinator coord;
    std::thread thread;
    BatchReport report;

    TestCoordinator(CoordinatorOptions opts, std::vector<JobSpec> jobs)
        : coord(std::move(opts), std::move(jobs)) {}
    ~TestCoordinator() { join(); }

    bool start() {
        std::string error;
        if (!coord.start(error)) {
            ADD_FAILURE() << "coordinator start: " << error;
            return false;
        }
        thread = std::thread([this] { report = coord.run(); });
        return true;
    }
    void join() {
        if (thread.joinable())
            thread.join();
    }
};

class DistTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               (std::string("svlc_dist_test_") +
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
    std::string sub(const char* name) const {
        return (dir_ / name).string();
    }
    fs::path dir_;
};

JsonValue call_ok(Client& client, const std::string& method,
                  const JsonValue& params) {
    RpcMessage response;
    std::string error;
    EXPECT_TRUE(client.call(method, params, response, error))
        << method << ": " << error;
    EXPECT_TRUE(response.has_result)
        << method << " errored: " << response.error_message;
    return response.result;
}

uint64_t register_worker(Client& client, const char* name) {
    JsonValue params = JsonValue::object();
    params.set("schema", JsonValue(dist::kDistSchema));
    params.set("version", JsonValue(incr::kToolVersion));
    params.set("worker", JsonValue(name));
    JsonValue result = call_ok(client, "register", params);
    uint64_t id = result.get_uint("worker_id");
    EXPECT_GT(id, 0u);
    return id;
}

JsonValue lease_one(Client& client, uint64_t worker_id) {
    JsonValue params = JsonValue::object();
    params.set("worker_id", JsonValue(worker_id));
    return call_ok(client, "lease", params);
}

// --- protocol helpers ------------------------------------------------------

TEST(DistProtocol, HexRoundTrip) {
    std::string bytes;
    for (int i = 0; i < 256; ++i)
        bytes += static_cast<char>(i);
    std::string hex = dist::hex_encode(bytes);
    EXPECT_EQ(hex.size(), 512u);
    std::string back;
    ASSERT_TRUE(dist::hex_decode(hex, back));
    EXPECT_EQ(back, bytes);

    EXPECT_TRUE(dist::hex_decode("", back));
    EXPECT_TRUE(back.empty());
    EXPECT_FALSE(dist::hex_decode("abc", back));  // odd length
    EXPECT_FALSE(dist::hex_decode("zz", back));   // not hex
    ASSERT_TRUE(dist::hex_decode("DEADbeef", back)); // case-insensitive
    EXPECT_EQ(dist::hex_encode(back), "deadbeef");
}

// --- end-to-end fleet ------------------------------------------------------

TEST_F(DistTest, FleetMatchesSingleProcessAndMergedStoreWarmSkips) {
    std::vector<JobSpec> jobs = inline_jobs();

    CoordinatorOptions copts;
    copts.socket_path = unique_socket("e2e");
    copts.store_dir = sub("coord-store");
    TestCoordinator tc(copts, jobs);
    ASSERT_TRUE(tc.start());

    auto run_worker = [&](const char* name, const char* store) {
        WorkerOptions wopts;
        wopts.socket_path = copts.socket_path;
        wopts.store_dir = sub(store);
        wopts.name = name;
        wopts.retry.attempts = 40;
        wopts.retry.backoff_ms = 25;
        Worker worker(std::move(wopts));
        std::string error;
        EXPECT_TRUE(worker.run(error)) << name << ": " << error;
    };
    std::thread w1(run_worker, "w1", "w1-store");
    std::thread w2(run_worker, "w2", "w2-store");
    w1.join();
    w2.join();
    tc.join();

    ASSERT_EQ(tc.report.results.size(), jobs.size());
    EXPECT_TRUE(tc.report.all_ran());
    EXPECT_EQ(tc.coord.stats().workers_registered, 2u);
    // Per-worker counts partition the coordinator's totals.
    auto summaries = tc.coord.worker_summaries();
    ASSERT_EQ(summaries.size(), 2u);
    EXPECT_EQ(summaries[0].results + summaries[1].results,
              tc.coord.stats().results_accepted);
    EXPECT_EQ(summaries[0].leases + summaries[1].leases,
              tc.coord.stats().leases_issued);

    // Byte-identical verdict report and summary vs a single-process run.
    // The summary's trailing solver line is telemetry — workers replay
    // obligations from their local stores, so query counts legitimately
    // differ from a store-less run — and is excluded from the compare.
    driver::DriverOptions dopts;
    dopts.jobs = 1;
    BatchReport solo = driver::VerificationDriver(dopts).run(jobs);
    EXPECT_EQ(tc.report.to_json(false), solo.to_json(false));
    EXPECT_EQ(tc.report.summary().substr(0,
                                         tc.report.summary().find("solver:")),
              solo.summary().substr(0, solo.summary().find("solver:")));

    // The coordinator's store is the merged artifact: a cold batch over
    // it answers every job by fingerprint without verifying anything.
    driver::DriverOptions warm_opts;
    warm_opts.store_dir = copts.store_dir;
    BatchReport warm = driver::VerificationDriver(warm_opts).run(jobs);
    EXPECT_EQ(warm.skipped_count(), jobs.size());
    EXPECT_EQ(warm.to_json(false), solo.to_json(false));

    // Obligation records round-tripped the sync protocol: the workers'
    // per-obligation verdicts are now in the coordinator's store, so an
    // *edited* job (whole-job fingerprint miss) replays its unchanged
    // obligations from the merged store.
    incr::ArtifactStore merged({copts.store_dir});
    std::string merr;
    ASSERT_TRUE(merged.open(merr)) << merr;
    EXPECT_GT(merged.list_obligations().size(), 0u);
}

TEST_F(DistTest, WorkerDeathReclaimsLeaseAndJobStillCompletes) {
    std::vector<JobSpec> jobs = inline_jobs();

    CoordinatorOptions copts;
    copts.socket_path = unique_socket("death");
    copts.backoff_ms = 10; // re-queue fast so the test stays quick
    TestCoordinator tc(copts, jobs);
    ASSERT_TRUE(tc.start());

    // A client that registers, takes a lease, and dies without ever
    // sending the result.
    {
        std::string error;
        net::RetryOptions retry;
        retry.attempts = 40;
        retry.backoff_ms = 25;
        auto doomed = Client::connect(copts.socket_path, retry, error);
        ASSERT_TRUE(doomed.has_value()) << error;
        uint64_t id = register_worker(*doomed, "doomed");
        JsonValue lease = lease_one(*doomed, id);
        ASSERT_EQ(lease.get_string("state"), "job");
    } // connection closes here — the coordinator must reclaim the lease

    WorkerOptions wopts;
    wopts.socket_path = copts.socket_path;
    wopts.name = "survivor";
    Worker worker(std::move(wopts));
    std::string error;
    ASSERT_TRUE(worker.run(error)) << error;
    tc.join();

    EXPECT_TRUE(tc.report.all_ran());
    ASSERT_EQ(tc.report.results.size(), jobs.size());
    EXPECT_GE(tc.coord.stats().leases_reclaimed, 1u);

    BatchReport solo = driver::VerificationDriver().run(jobs);
    EXPECT_EQ(tc.report.to_json(false), solo.to_json(false));
}

TEST_F(DistTest, StolenJobReportsOnceFirstResultWins) {
    // One job, two hand-rolled workers: A leases it, B finds nothing
    // pending and steals a duplicate lease, B reports first (wins), A's
    // late result is acknowledged as a duplicate and dropped.
    std::vector<JobSpec> jobs;
    jobs.push_back({"job:only", "", kSecureSrc, "", 0});

    CoordinatorOptions copts;
    copts.socket_path = unique_socket("steal");
    TestCoordinator tc(copts, jobs);
    ASSERT_TRUE(tc.start());

    std::string error;
    net::RetryOptions retry;
    retry.attempts = 40;
    retry.backoff_ms = 25;
    auto a = Client::connect(copts.socket_path, retry, error);
    ASSERT_TRUE(a.has_value()) << error;
    auto b = Client::connect(copts.socket_path, retry, error);
    ASSERT_TRUE(b.has_value()) << error;
    uint64_t a_id = register_worker(*a, "a");
    uint64_t b_id = register_worker(*b, "b");

    JsonValue a_lease = lease_one(*a, a_id);
    ASSERT_EQ(a_lease.get_string("state"), "job");
    JsonValue b_lease = lease_one(*b, b_id);
    ASSERT_EQ(b_lease.get_string("state"), "job") << "expected a steal";
    EXPECT_EQ(b_lease.get_string("name"), a_lease.get_string("name"));
    EXPECT_NE(b_lease.get_uint("lease"), a_lease.get_uint("lease"));
    EXPECT_EQ(tc.coord.stats().steals, 1u);

    incr::StoredVerdict v;
    v.secure = true;
    v.obligations = 1;
    std::string payload =
        dist::hex_encode(incr::encode_stored_verdict(v));
    auto result_params = [&](uint64_t worker, const JsonValue& lease) {
        JsonValue p = JsonValue::object();
        p.set("worker_id", JsonValue(worker));
        p.set("lease", JsonValue(lease.get_uint("lease")));
        p.set("name", JsonValue(lease.get_string("name")));
        p.set("fingerprint", JsonValue(lease.get_string("fingerprint")));
        p.set("status", JsonValue("secure"));
        p.set("verdict", JsonValue(payload));
        return p;
    };

    JsonValue first = call_ok(*b, "result", result_params(b_id, b_lease));
    EXPECT_TRUE(first.get_bool("accepted"));
    EXPECT_FALSE(first.get_bool("duplicate"));

    JsonValue second = call_ok(*a, "result", result_params(a_id, a_lease));
    EXPECT_FALSE(second.get_bool("accepted"));
    EXPECT_TRUE(second.get_bool("duplicate"));

    EXPECT_EQ(lease_one(*a, a_id).get_string("state"), "done");
    a.reset();
    b.reset();
    tc.join();

    ASSERT_EQ(tc.report.results.size(), 1u);
    EXPECT_EQ(tc.report.results[0].status, driver::JobStatus::Secure);
    EXPECT_EQ(tc.coord.stats().duplicate_results, 1u);
    EXPECT_EQ(tc.coord.stats().results_accepted, 1u);
}

TEST_F(DistTest, DeltaSyncTransfersOnlyMissingEntries) {
    // Pre-populate the coordinator's store with one verdict and one
    // obligation record; the peer offers those plus one new entry of
    // each kind.
    std::string fp_known = sha256_hex("known job");
    std::string fp_new = sha256_hex("new job");
    std::string ob_known = sha256_hex("known obligation");
    std::string ob_new = sha256_hex("new obligation");
    {
        incr::ArtifactStore seed({sub("coord-store")});
        std::string error;
        ASSERT_TRUE(seed.open(error)) << error;
        incr::StoredVerdict v;
        v.secure = true;
        ASSERT_TRUE(seed.store_verdict(fp_known, v));
        incr::StoredObligation o;
        o.proven = true;
        ASSERT_TRUE(seed.store_obligation(ob_known, o));
    }

    CoordinatorOptions copts;
    copts.socket_path = unique_socket("sync");
    copts.store_dir = sub("coord-store");
    // One real job keeps the coordinator serving while the handshake
    // runs (a fully-decided manifest with no connections drains
    // immediately).
    std::vector<JobSpec> jobs;
    jobs.push_back({"job:keepalive", "", kSecureSrc, "", 0});
    TestCoordinator tc(copts, jobs);
    ASSERT_TRUE(tc.start());

    std::string error;
    net::RetryOptions retry;
    retry.attempts = 40;
    retry.backoff_ms = 25;
    auto client = Client::connect(copts.socket_path, retry, error);
    ASSERT_TRUE(client.has_value()) << error;
    uint64_t id = register_worker(*client, "syncer");

    JsonValue lease = lease_one(*client, id);
    ASSERT_EQ(lease.get_string("state"), "job");
    {
        incr::StoredVerdict keep;
        keep.secure = true;
        JsonValue p = JsonValue::object();
        p.set("worker_id", JsonValue(id));
        p.set("lease", JsonValue(lease.get_uint("lease")));
        p.set("name", JsonValue(lease.get_string("name")));
        p.set("fingerprint", JsonValue(lease.get_string("fingerprint")));
        p.set("status", JsonValue("secure"));
        p.set("verdict", JsonValue(dist::hex_encode(
                             incr::encode_stored_verdict(keep))));
        EXPECT_TRUE(call_ok(*client, "result", p).get_bool("accepted"));
    }

    JsonValue sync = JsonValue::object();
    sync.set("worker_id", JsonValue(id));
    JsonValue fps = JsonValue::array();
    fps.push_back(JsonValue(fp_known));
    fps.push_back(JsonValue(fp_new));
    sync.set("verdicts", std::move(fps));
    JsonValue obs = JsonValue::array();
    obs.push_back(JsonValue(ob_known));
    obs.push_back(JsonValue(ob_new));
    sync.set("obligations", std::move(obs));
    JsonValue want = call_ok(*client, "sync", sync);

    const JsonValue* wv = want.find("want_verdicts");
    ASSERT_NE(wv, nullptr);
    ASSERT_EQ(wv->items().size(), 1u);
    EXPECT_EQ(wv->items()[0].str(), fp_new);
    const JsonValue* wo = want.find("want_obligations");
    ASSERT_NE(wo, nullptr);
    ASSERT_EQ(wo->items().size(), 1u);
    EXPECT_EQ(wo->items()[0].str(), ob_new);

    // Push exactly what was asked for; corrupt extras are counted, not
    // fatal.
    incr::StoredVerdict v;
    v.secure = false;
    v.obligations = 4;
    v.failed = 1;
    JsonValue push = JsonValue::object();
    push.set("worker_id", JsonValue(id));
    JsonValue verdicts = JsonValue::array();
    JsonValue good = JsonValue::object();
    good.set("fp", JsonValue(fp_new));
    good.set("data",
             JsonValue(dist::hex_encode(incr::encode_stored_verdict(v))));
    verdicts.push_back(std::move(good));
    JsonValue corrupt = JsonValue::object();
    corrupt.set("fp", JsonValue(sha256_hex("corrupt")));
    corrupt.set("data", JsonValue("definitely-not-hex"));
    verdicts.push_back(std::move(corrupt));
    push.set("verdicts", std::move(verdicts));
    incr::StoredObligation o;
    o.lhs_level = 1;
    o.witness.push_back({0, true, 17});
    JsonValue push_obs = JsonValue::array();
    JsonValue entry = JsonValue::object();
    entry.set("fp", JsonValue(ob_new));
    entry.set("data",
              JsonValue(dist::hex_encode(incr::encode_stored_obligation(o))));
    push_obs.push_back(std::move(entry));
    push.set("obligations", std::move(push_obs));
    JsonValue pushed = call_ok(*client, "push", push);
    EXPECT_EQ(pushed.get_uint("verdicts_merged"), 1u);
    EXPECT_EQ(pushed.get_uint("obligations_merged"), 1u);
    EXPECT_EQ(pushed.get_uint("corrupt_skipped"), 1u);

    // A second handshake confirms the coordinator now has everything.
    JsonValue again = call_ok(*client, "sync", sync);
    EXPECT_EQ(again.find("want_verdicts")->items().size(), 0u);
    EXPECT_EQ(again.find("want_obligations")->items().size(), 0u);

    client.reset();
    tc.join();

    // Both pushed entries landed in the on-disk store.
    incr::ArtifactStore merged({sub("coord-store")});
    ASSERT_TRUE(merged.open(error)) << error;
    EXPECT_TRUE(merged.has_verdict(fp_new));
    auto got = merged.load_obligation(ob_new);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->witness.size(), 1u);
    EXPECT_EQ(got->witness[0].value, 17u);
}

TEST_F(DistTest, VersionMismatchIsRefusedAtRegister) {
    CoordinatorOptions copts;
    copts.socket_path = unique_socket("version");
    TestCoordinator tc(copts, inline_jobs());
    ASSERT_TRUE(tc.start());

    std::string error;
    net::RetryOptions retry;
    retry.attempts = 40;
    retry.backoff_ms = 25;
    auto client = Client::connect(copts.socket_path, retry, error);
    ASSERT_TRUE(client.has_value()) << error;

    JsonValue params = JsonValue::object();
    params.set("schema", JsonValue(dist::kDistSchema));
    params.set("version", JsonValue("svlc-0.0.1"));
    params.set("worker", JsonValue("old"));
    RpcMessage response;
    ASSERT_TRUE(client->call("register", params, response, error)) << error;
    EXPECT_TRUE(response.has_error);
    EXPECT_NE(response.error_message.find("version"), std::string::npos);

    client.reset();
    tc.coord.request_stop();
    tc.join();
    // Stopped before any work: jobs report as infrastructure errors,
    // never silently vanish.
    ASSERT_EQ(tc.report.results.size(), 3u);
    for (const auto& r : tc.report.results)
        EXPECT_EQ(r.status, driver::JobStatus::Error);
}

} // namespace
} // namespace svlc::test
