// The three closed-loop workloads and what a run of one reports.
#pragma once

#include "trace.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct RunConfig {
    uint64_t seed = 1;
    /// Length of the timed phase; 0 runs set-up (and its counts) only.
    double seconds = 10;
    /// Trace half of the timed phase's ops.
    bool trace = false;
    /// Set-up is repeated this many times; set-up time is their median.
    int setup_repeats = 5;
    /// Worker threads of the batch workload (already capped at nproc).
    size_t batch_workers = 1;
    /// Parent of this run's private temp dir (socket and stores).
    std::string tmp_root;
    std::string hdl_dir;
    /// Test hook: the cold-check CPU of this name gets a deliberately
    /// wrong expected failed count, so its ops must be counted as failed.
    std::string wrong_expectation;
};

/// Op-level counters summed over traced ops (and, for the exact-repeat
/// counts, over set-up's deterministic count pass).
struct LayerSums {
    uint64_t obligations = 0;
    uint64_t queries = 0;
    uint64_t syntactic_hits = 0;
    uint64_t enumerations = 0;
    uint64_t candidates = 0;
    uint64_t conflicts = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t nets = 0;
    uint64_t parsed_bytes = 0;
    uint64_t hunt_states = 0;
    uint64_t hunt_unconfirmed = 0;
    uint64_t replayed = 0;
    uint64_t solved = 0;
    uint64_t session_hits = 0;
};

struct Outcome {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /// Untraced op latencies of the timed phase.
    std::vector<double> latency_ms;
    /// Traced op latencies (trace runs only).
    std::vector<double> traced_latency_ms;
    double measured_s = 0;
    std::vector<double> setup_s;
    /// Per-layer metrics by name (trace runs only).
    std::map<std::string, double> layers;
    /// Exact-repeat counts from set-up's deterministic count pass.
    std::vector<std::pair<std::string, uint64_t>> counts;
    /// Set-up failed; the run has no result.
    std::string setup_error;
    /// Descriptions of the first few failed ops.
    std::vector<std::string> failures;
};

/// Linear-interpolated percentile of `v`, q in [0, 1]; 0 when empty.
double percentile(std::vector<double> v, double q);

Outcome run_cold_check(const RunConfig& cfg, Tracer& tracer);
Outcome run_batch_corpus(const RunConfig& cfg, Tracer& tracer);
Outcome run_edit_loop(const RunConfig& cfg, Tracer& tracer);

} // namespace e2e
