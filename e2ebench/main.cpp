// svlc_e2e: the repository's end-to-end benchmark driver.
//
//   svlc_e2e --workload cold-check|batch-corpus|edit-loop --seed N
//            --seconds S --trace 0|1 [--tmp-root DIR] [--trace-out FILE]
//   svlc_e2e --self-test [--tmp-root DIR]
//
// A run sets its workload up several times (set-up time is their
// median), then runs the workload's closed loop for S seconds and checks
// every verdict against the hand-written answers in inputs.cpp. The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the metrics are the end-to-end ones with --trace 0 and the
// per-layer ones with --trace 1. The line before it records the
// environment, the sample counts and the exact-repeat counts.
#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace {

using e2e::Outcome;
using e2e::RunConfig;
using e2e::percentile;

struct Metric {
    const char* name;
    const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p90_ms", "ms"},
    {"peak_rss_mb", "MB"},     {"ok_op_ratio", "ratio"},
};

const Metric kPerLayer[] = {
    {"parse.ms", "ms"},
    {"parse.mb_per_s", "MB/s"},
    {"sem.elaborate_ms", "ms"},
    {"sem.wellformed_ms", "ms"},
    {"sem.nets", "count"},
    {"pipeline.elaborate_ms", "ms"},
    {"check.walk_ms", "ms"},
    {"check.obligations", "count"},
    {"solver.ms", "ms"},
    {"solver.queries", "count"},
    {"solver.syntactic_hit_ratio", "ratio"},
    {"solver.enumerations", "count"},
    {"solver.candidates", "count"},
    {"solver.conflicts", "count"},
    {"solver.cache_hit_ratio", "ratio"},
    {"pipeline.render_ms", "ms"},
    {"incr.replay_ms", "ms"},
    {"incr.record_ms", "ms"},
    {"incr.replayed_ratio", "ratio"},
    {"incr.job_fingerprint_ms", "ms"},
    {"incr.store_bytes", "bytes"},
    {"driver.idle_ratio", "ratio"},
    {"serve.status_rtt_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.session_hit_ratio", "ratio"},
    {"serve.evictions", "count"},
    {"hunt.ms", "ms"},
    {"hunt.states", "count"},
    {"hunt.states_per_s", "1/s"},
    {"hunt.unconfirmed", "count"},
    {"trace.other_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.covered_ratio", "ratio"},
};

/// Worker threads the batch workload uses, at most nproc. Two keep a
/// real pool (quad is the straggler, the cache is shared across
/// threads) while leaving half of a 4-core machine free: with four, one
/// busy core elsewhere on the host stretched the batch up to 2.4x.
constexpr size_t kBatchWorkers = 2;

size_t nproc() {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string number(double v) {
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

Outcome run_workload(const std::string& name, const RunConfig& cfg,
                     e2e::Tracer& tracer, bool& known) {
    known = true;
    if (name == "cold-check")
        return e2e::run_cold_check(cfg, tracer);
    if (name == "batch-corpus")
        return e2e::run_batch_corpus(cfg, tracer);
    if (name == "edit-loop")
        return e2e::run_edit_loop(cfg, tracer);
    known = false;
    return {};
}

std::string counts_json(const Outcome& out) {
    std::string s = "{";
    for (size_t i = 0; i < out.counts.size(); ++i)
        s += (i ? ", \"" : "\"") + out.counts[i].first +
             "\": " + std::to_string(out.counts[i].second);
    return s + "}";
}

/// Prints the report line and the result line.
void report(const std::string& workload, const RunConfig& cfg,
           const Outcome& out, const std::string& trace_out) {
    for (const std::string& f : out.failures)
        std::fprintf(stderr, "svlc_e2e: %s: failed %s\n", workload.c_str(),
                     f.c_str());
    size_t samples = out.latency_ms.size();
    std::printf("{\"e2e\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %s, \"trace\": %d, \"env\": {\"nproc\": %zu, "
                "\"hardware_concurrency\": %u, \"build_type\": \"%s\", "
                "\"compiler\": \"GCC %s\", \"backend\": \"cdcl\", "
                "\"batch_workers\": %zu}, \"samples\": {\"latency\": %zu, "
                "\"traced_latency\": %zu, \"setup\": %zu}, "
                "\"counts\": %s, \"trace_file\": \"%s\"}}\n",
                workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                number(cfg.seconds).c_str(), cfg.trace ? 1 : 0, nproc(),
                std::thread::hardware_concurrency(), SVLC_E2E_BUILD_TYPE,
                __VERSION__, cfg.batch_workers, samples,
                out.traced_latency_ms.size(), out.setup_s.size(),
                counts_json(out).c_str(), trace_out.c_str());

    std::string metrics;
    auto add = [&](const Metric& m, double v) {
        metrics += (metrics.empty() ? "\"" : ", \"") + std::string(m.name) +
                   "\": {\"value\": " + number(v) + ", \"unit\": \"" +
                   m.unit + "\"}";
    };
    if (cfg.trace) {
        for (const Metric& m : kPerLayer) {
            auto it = out.layers.find(m.name);
            add(m, it == out.layers.end() ? 0.0 : it->second);
        }
    } else {
        double attempted = static_cast<double>(out.attempted);
        double values[] = {
            percentile(out.setup_s, 0.5),
            out.measured_s > 0 ? attempted / out.measured_s : 0.0,
            percentile(out.latency_ms, 0.5),
            percentile(out.latency_ms, 0.9),
            peak_rss_mb(),
            out.attempted ? 1.0 - static_cast<double>(out.failed) / attempted
                          : 0.0,
        };
        for (size_t i = 0; i < std::size(kEndToEnd); ++i)
            add(kEndToEnd[i], values[i]);
    }
    bool correct = out.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), metrics.c_str());
    std::fflush(stdout);
}

/// The benchmark's own test: a wrong expectation is counted as failed
/// ops (not skipped), and the exact-repeat counts repeat exactly.
int self_test(RunConfig cfg) {
    int failures = 0;
    auto expect = [&](bool cond, const std::string& what) {
        std::printf("%s: %s\n", cond ? "ok" : "FAIL", what.c_str());
        failures += cond ? 0 : 1;
    };
    e2e::Tracer tracer;

    RunConfig wrong = cfg;
    wrong.seconds = 1;
    wrong.setup_repeats = 1;
    wrong.wrong_expectation = "labeled";
    Outcome w = e2e::run_cold_check(wrong, tracer);
    // Every fourth op is the labeled CPU, and each must fail.
    uint64_t labeled_ops = (w.attempted + 3) / 4;
    expect(w.setup_error.empty() && w.attempted >= 4 &&
               w.failed + 1 >= labeled_ops && w.failed <= labeled_ops,
           "cold-check counts a wrong expectation as failed ops (" +
               std::to_string(w.failed) + " of " +
               std::to_string(w.attempted) + ")");

    RunConfig counts = cfg;
    counts.seconds = 0;
    counts.setup_repeats = 1;
    for (const char* name : {"cold-check", "batch-corpus", "edit-loop"}) {
        bool known = false;
        Outcome a = run_workload(name, counts, tracer, known);
        Outcome b = run_workload(name, counts, tracer, known);
        expect(a.setup_error.empty() && b.setup_error.empty() &&
                   !a.counts.empty() && a.counts == b.counts,
               std::string(name) + " counts repeat exactly: " +
                   counts_json(a) + (a.setup_error.empty() ? "" : " " +
                                     a.setup_error));
    }
    return failures ? 1 : 0;
}

} // namespace

int main(int argc, char** argv) {
    RunConfig cfg;
    cfg.batch_workers = std::min(kBatchWorkers, nproc());
    cfg.hdl_dir = SVLC_E2E_HDL_DIR;
    cfg.tmp_root = ".bench_build/tmp";
    std::string workload, trace_out;
    bool self = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--self-test") {
            self = true;
            continue;
        }
        if (!v) {
            std::fprintf(stderr, "svlc_e2e: %s needs a value\n", arg.c_str());
            return 2;
        }
        ++i;
        if (arg == "--workload")
            workload = v;
        else if (arg == "--seed")
            cfg.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            cfg.seconds = std::strtod(v, nullptr);
        else if (arg == "--trace")
            cfg.trace = std::strcmp(v, "1") == 0;
        else if (arg == "--tmp-root")
            cfg.tmp_root = v;
        else if (arg == "--trace-out")
            trace_out = v;
        else {
            std::fprintf(stderr, "svlc_e2e: unknown argument %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (self)
        return self_test(cfg);
    // Set-up time is reported by untraced runs only.
    if (cfg.trace)
        cfg.setup_repeats = 1;

    e2e::Tracer tracer;
    bool known = false;
    Outcome out = run_workload(workload, cfg, tracer, known);
    if (!known) {
        std::fprintf(stderr, "svlc_e2e: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    if (!out.setup_error.empty()) {
        std::fprintf(stderr, "svlc_e2e: %s: set-up failed: %s\n",
                     workload.c_str(), out.setup_error.c_str());
        return 1;
    }
    if (cfg.trace && !trace_out.empty() && !tracer.write_chrome(trace_out))
        std::fprintf(stderr, "svlc_e2e: cannot write %s\n", trace_out.c_str());
    report(workload, cfg, out, trace_out);
    return 0;
}
