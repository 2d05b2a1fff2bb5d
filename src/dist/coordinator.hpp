// The distributed batch coordinator (`svlc coordinator`): owns a batch
// manifest, shards it by job fingerprint across registered `svlc
// worker` processes (dist/protocol.hpp), and aggregates their results
// into the same deterministic BatchReport a single-process `svlc batch`
// produces.
//
// Architecture mirrors serve::Server — a single-threaded poll() loop on
// a Unix socket, whole-frame responses — because the coordinator does
// no verification itself: every request is answered in microseconds, so
// one thread serves a fleet without locks. All the heavy lifting
// happens inside workers between their lease and result calls, while
// the coordinator's loop stays free to hand shards to everyone else.
//
// Determinism: results land in manifest order keyed by job index, a job
// is retired exactly once (first result wins; duplicate results from
// steals or expired leases are acknowledged and dropped), and the
// final report's verdict subset (BatchReport::to_json(false), the
// summary table) is byte-identical to a single-process run over the
// same manifest — worker death, lease re-issue, and stealing can change
// *who* verified a job, never what the report says about it.
#pragma once

#include "driver/driver.hpp"
#include "serve/protocol.hpp"
#include "support/net.hpp"

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace svlc::dist {

struct CoordinatorOptions {
    std::string socket_path;
    /// Merged store: verdicts write through as results arrive, pushed
    /// records merge in at sync time. Empty disables persistence
    /// (results are still aggregated and reported).
    std::string store_dir;
    /// Default per-job verify deadline shipped to workers; 0 = unlimited.
    uint64_t timeout_ms = 0;
    /// Lease deadline: a leased job with no result after this long is
    /// re-queued (the worker may be dead, wedged, or just slow — a late
    /// result is still accepted if it arrives first).
    uint64_t lease_ms = 120000;
    /// Base backoff before a reclaimed job is re-leased; grows linearly
    /// with the job's lease attempts.
    uint64_t backoff_ms = 250;
    /// Lease re-issues per job before the coordinator gives up and
    /// reports the job as an infrastructure error (a job that kills
    /// every worker sent to it must not stall the batch forever).
    int max_lease_attempts = 8;
    /// After every job is decided, how long to keep serving so workers
    /// can finish their final delta-sync before the socket goes away.
    uint64_t drain_ms = 10000;
    /// Checker configuration broadcast to workers at register time.
    check::CheckOptions check;
};

struct CoordinatorStats {
    uint64_t workers_registered = 0;
    uint64_t leases_issued = 0;
    uint64_t leases_expired = 0;   ///< deadline passed, job re-queued
    uint64_t leases_reclaimed = 0; ///< worker connection died
    uint64_t steals = 0;           ///< duplicate lease on a straggler
    uint64_t results_accepted = 0;
    uint64_t duplicate_results = 0;
    uint64_t corrupt_results = 0;
    uint64_t store_skips = 0; ///< answered from the coordinator's store
    uint64_t sync_verdicts_received = 0;
    uint64_t sync_obligations_received = 0;
};

/// What one registered worker did, in registration order.
struct WorkerSummary {
    std::string name;
    uint64_t leases = 0;  ///< leases issued to it (steals included)
    uint64_t results = 0; ///< results accepted (first result per job)
};

class Coordinator {
public:
    Coordinator(CoordinatorOptions opts, std::vector<driver::JobSpec> jobs);
    ~Coordinator();

    /// Binds the socket, opens the store (fingerprint-skipping jobs the
    /// store already decided), reads every job's source. False with
    /// `error` on bind/IO failure. Unreadable job files are not fatal:
    /// they report as Error jobs, exactly like `svlc batch`.
    bool start(std::string& error);

    /// Serves until every job is decided and the fleet has drained (or
    /// request_stop / a shutdown RPC). Unlinks the socket before
    /// returning.
    driver::BatchReport run();

    /// Thread-safe stop request; pending jobs report as errors.
    void request_stop();

    [[nodiscard]] const std::string& socket_path() const {
        return opts_.socket_path;
    }
    [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }
    /// Per-worker lease and result counts, by registration index.
    [[nodiscard]] std::vector<WorkerSummary> worker_summaries() const;

private:
    using Clock = std::chrono::steady_clock;

    struct Conn;

    enum class Phase { Pending, Leased, Done };

    struct JobState {
        driver::JobSpec spec;
        std::string text;        ///< resolved source bytes
        std::string fingerprint; ///< shard key + store address
        Phase phase = Phase::Pending;
        int lease_attempts = 0;
        Clock::time_point not_before{}; ///< backoff gate while Pending
        driver::JobResult result;
    };

    struct Lease {
        size_t job = 0;
        uint64_t worker_id = 0;
        uint64_t conn_id = 0;
        Clock::time_point issued{};
        Clock::time_point deadline{};
    };

    struct WorkerInfo {
        std::string name;
        uint64_t index = 0; ///< dense registration index, the shard id
        uint64_t leases = 0;
        uint64_t results = 0;
    };

    void handle_payload(Conn& conn, const std::string& payload);
    JsonValue do_register(const JsonValue& params, Conn& conn, int& err_code,
                          std::string& err_msg);
    JsonValue do_lease(const JsonValue& params, int& err_code,
                       std::string& err_msg);
    JsonValue do_result(const JsonValue& params, Conn& conn);
    JsonValue do_sync(const JsonValue& params);
    JsonValue do_push(const JsonValue& params);
    JsonValue do_status();

    /// Retires job `idx` with `res` (first result wins); drops every
    /// outstanding lease on it. False when the job was already decided.
    bool decide(size_t idx, driver::JobResult res);
    /// Re-queues the job behind lease `id` with backoff (deadline expiry
    /// or worker death) and drops the lease.
    void reclaim_lease(uint64_t id, bool expired);
    void check_deadlines();
    void drop_conn_leases(uint64_t conn_id);
    [[nodiscard]] bool all_done() const { return done_count_ == jobs_.size(); }

    CoordinatorOptions opts_;
    std::vector<JobState> jobs_;
    size_t done_count_ = 0;
    std::unique_ptr<incr::ArtifactStore> store_;
    std::unique_ptr<net::UnixListener> listener_;
    std::list<std::unique_ptr<Conn>> conns_;
    std::unordered_map<uint64_t, Lease> leases_;
    std::unordered_map<uint64_t, WorkerInfo> workers_;
    uint64_t next_conn_id_ = 1;
    uint64_t next_worker_id_ = 1;
    uint64_t next_lease_id_ = 1;
    CoordinatorStats stats_;
    int wake_pipe_[2] = {-1, -1};
    std::atomic<bool> stop_{false};
    bool started_ = false;
};

} // namespace svlc::dist
