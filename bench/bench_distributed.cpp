// Distributed fleet benchmark (src/dist): one in-process Coordinator vs
// 1/2/4 Worker threads over a corpus of independent CPU-class jobs,
// against the single-process sequential driver as baseline.
//
// Every job is the labeled evaluation processor under its own name.
// Workers run without stores, so no worker replays obligation records
// another job left behind — each job costs full pipeline + solver work
// no matter who runs it. That isolates what this subsystem claims:
// wall-clock scaling from sharding real verification across workers,
// plus the warm rerun where the coordinator's merged store answers
// everything by fingerprint.
// Emits BENCH_distributed.json alongside the table; the acceptance bar
// is >= 2.5x at 4 workers (cold) and a 100% store-hit warm rerun.
#include "bench_util.hpp"

#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "driver/driver.hpp"
#include "proc/sources.hpp"
#include "support/json.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace {

using namespace svlc;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using dist::Coordinator;
using dist::CoordinatorOptions;
using dist::Worker;
using dist::WorkerOptions;
using driver::BatchReport;
using driver::JobSpec;

constexpr size_t kJobs = 15;
/// The committed BENCH_distributed.json was measured on the enum
/// reference backend; pinning it keeps a rerun comparable to that
/// baseline. Workers take the backend from each lease.
constexpr solver::BackendKind kBackend = solver::BackendKind::Enum;

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

fs::path bench_root() {
    return fs::temp_directory_path() /
           ("svlc_bench_dist_" + std::to_string(::getpid()));
}

std::string bench_socket(const char* tag) {
    return (bench_root() / (std::string(tag) + ".sock")).string();
}

/// kJobs copies of the labeled CPU; the distinct names give distinct
/// job fingerprints in the coordinator's store.
std::vector<JobSpec> corpus() {
    std::vector<JobSpec> jobs;
    for (size_t i = 0; i < kJobs; ++i) {
        JobSpec spec;
        spec.name = "bench:dist-" + std::to_string(i);
        spec.source = proc::labeled_cpu_source();
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

struct FleetRun {
    BatchReport report;
    double wall_ms = 0.0;
    dist::CoordinatorStats stats;
};

/// One coordinator + `workers` store-less Worker threads over `jobs`.
/// The coordinator's merged store lands in `store_dir`, so a run is cold
/// unless `store_dir` was populated by a previous run.
FleetRun run_fleet(const std::vector<JobSpec>& jobs, size_t workers,
                   const std::string& store_dir, const char* tag) {
    CoordinatorOptions copts;
    copts.socket_path = bench_socket(tag);
    copts.store_dir = store_dir;
    copts.check.solver.backend = kBackend;
    Coordinator coord(copts, jobs);
    std::string error;
    if (!coord.start(error))
        throw std::runtime_error("coordinator: " + error);

    Clock::time_point t0 = Clock::now();
    std::vector<std::thread> fleet;
    fleet.reserve(workers);
    for (size_t i = 0; i < workers; ++i) {
        fleet.emplace_back([&, i] {
            WorkerOptions wopts;
            wopts.socket_path = copts.socket_path;
            wopts.name = "bench-w" + std::to_string(i);
            wopts.retry.attempts = 40;
            wopts.retry.backoff_ms = 25;
            Worker worker(std::move(wopts));
            std::string werror;
            if (!worker.run(werror))
                std::fprintf(stderr, "bench worker %zu: %s\n", i,
                             werror.c_str());
        });
    }

    FleetRun run;
    run.report = coord.run();
    run.wall_ms = ms_between(t0, Clock::now());
    for (auto& t : fleet)
        t.join();
    run.stats = coord.stats();
    if (!run.report.all_ran())
        throw std::runtime_error("fleet run had error/timeout jobs");
    return run;
}

void print_table() {
    bench::heading(
        "E12: distributed fleet — coordinator/worker sharding + merged store",
        "store-less workers make every shard pay full verification cost,\n"
        "so the fleet's speedup is real sharding, not replay; the\n"
        "coordinator's merged store then answers the entire rerun by\n"
        "fingerprint");

    std::error_code ec;
    fs::remove_all(bench_root(), ec);
    fs::create_directories(bench_root());

    auto jobs = corpus();
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    std::printf("corpus: %zu labeled-CPU jobs; hardware "
                "concurrency: %zu\n\n",
                jobs.size(), hw);

    // Baseline: the existing single-process sequential driver — the
    // exact `svlc batch --jobs 1 --no-store` path.
    driver::DriverOptions dopts;
    dopts.jobs = 1;
    dopts.check.solver.backend = kBackend;
    Clock::time_point t0 = Clock::now();
    BatchReport solo = driver::VerificationDriver(dopts).run(jobs);
    double solo_ms = ms_between(t0, Clock::now());
    if (!solo.all_ran())
        throw std::runtime_error("baseline run had error/timeout jobs");

    std::printf("%-30s %-12s %-10s\n", "configuration", "wall ms",
                "speedup");
    std::printf("%-30s %-12.1f %-10s\n", "svlc batch --jobs 1", solo_ms,
                "1.00x");

    JsonWriter w;
    w.begin_object();
    w.kv("bench", "distributed");
    w.kv("jobs", jobs.size());
    w.kv("hardware_concurrency", uint64_t{hw});
    w.kv("backend", solver::backend_id(kBackend));
    w.kv("baseline_batch_ms", solo_ms, 3);
    w.key("fleet");
    w.begin_array();
    double fleet4_speedup = 0;
    std::string merged_store = (bench_root() / "merged-store").string();
    for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
        // Each worker count gets its own merged store so every fleet run
        // is cold; the 4-worker store feeds the warm rerun below.
        std::string store =
            (bench_root() / ("store-" + std::to_string(workers))).string();
        if (workers == 4)
            store = merged_store;
        std::string tag = "fleet" + std::to_string(workers);
        FleetRun run = run_fleet(jobs, workers, store, tag.c_str());
        double speedup = solo_ms / run.wall_ms;
        if (workers == 4)
            fleet4_speedup = speedup;
        std::printf("%-30s %-12.1f %.2fx\n",
                    ("fleet, " + std::to_string(workers) + " worker(s)")
                        .c_str(),
                    run.wall_ms, speedup);
        // The verdict subset must be what the single process said.
        if (run.report.to_json(false) != solo.to_json(false))
            throw std::runtime_error("fleet report diverged from baseline");
        w.begin_object();
        w.kv("workers", uint64_t{workers});
        w.kv("wall_ms", run.wall_ms, 3);
        w.kv("speedup", speedup, 2);
        w.kv("leases_issued", run.stats.leases_issued);
        w.kv("steals", run.stats.steals);
        w.kv("report_matches_baseline", true);
        w.end_object();
    }
    w.end_array();

    // Warm rerun: a cold `svlc batch --store` over the 4-worker fleet's
    // merged store must skip every job via fingerprint.
    driver::DriverOptions warm_opts;
    warm_opts.jobs = 1;
    warm_opts.check.solver.backend = kBackend;
    warm_opts.store_dir = merged_store;
    t0 = Clock::now();
    BatchReport warm = driver::VerificationDriver(warm_opts).run(jobs);
    double warm_ms = ms_between(t0, Clock::now());
    std::printf("%-30s %-12.1f %.2fx  (%zu/%zu store hits)\n",
                "cold batch on merged store", warm_ms, solo_ms / warm_ms,
                warm.skipped_count(), jobs.size());
    if (warm.skipped_count() != jobs.size())
        throw std::runtime_error("merged store missed a fingerprint");

    w.kv("warm_batch_on_merged_store_ms", warm_ms, 3);
    w.kv("warm_store_hits", warm.skipped_count());
    w.kv("warm_store_hit_rate", 1.0, 2);
    w.kv("fleet4_speedup", fleet4_speedup, 2);
    if (hw < 4) {
        // Verification is CPU-bound: with fewer cores than workers the
        // shards time-slice one another and the cold curve cannot beat
        // sequential, no matter how good the sharding is. Record that so
        // a dashboard reading this file off a small CI box doesn't flag
        // a regression that is really a hardware ceiling.
        w.kv("note", "fleet speedup is core-bound: " +
                         std::to_string(hw) +
                         " hardware thread(s) < 4 workers; the >= 2.5x "
                         "cold bar requires >= 4 cores");
    }
    w.end_object();
    std::ofstream out("BENCH_distributed.json");
    out << w.str() << "\n";
    std::printf("\nwrote BENCH_distributed.json\n");

    fs::remove_all(bench_root(), ec);

    std::printf("-> sharding scales because the jobs genuinely don't share "
                "solver work;\n   the merged store then converts the whole "
                "corpus into fingerprint\n   lookups for every later cold "
                "process (acceptance: >= 2.5x at 4 workers\n   on a >= "
                "4-core host, 100%% warm store hits)\n");
    if (hw < 4)
        std::printf("   note: this host has %zu hardware thread(s) — the "
                    "cold scale-out curve\n   is core-bound here and the "
                    "2.5x bar only applies on >= 4 cores\n",
                    hw);
}

void bm_fleet_4workers_cold(benchmark::State& state) {
    auto jobs = corpus();
    std::error_code ec;
    fs::create_directories(bench_root());
    size_t round = 0;
    for (auto _ : state) {
        std::string tag = "bm" + std::to_string(round++);
        FleetRun run =
            run_fleet(jobs, 4, (bench_root() / tag).string(), tag.c_str());
        benchmark::DoNotOptimize(run.report.results.size());
    }
    fs::remove_all(bench_root(), ec);
}
BENCHMARK(bm_fleet_4workers_cold)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

int main(int argc, char** argv) {
    print_table();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
