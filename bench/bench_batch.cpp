// Batch-verification driver benchmark: the hdl/ designs plus the four
// generated CPU variants on 1 vs N worker threads. The headline number
// is the parallel speedup, bounded by hardware concurrency and by the
// slowest single job (the quad core).
// Emits BENCH_batch.json alongside the table for dashboard ingestion.
#include "bench_util.hpp"

#include "driver/driver.hpp"
#include "support/json.hpp"

#include <benchmark/benchmark.h>

#include <fstream>
#include <thread>

#ifndef SVLC_HDL_DIR
#define SVLC_HDL_DIR ""
#endif

namespace {

using namespace svlc;
using driver::BatchReport;
using driver::DriverOptions;
using driver::JobSpec;
using driver::VerificationDriver;

/// The committed BENCH_batch.json was measured on the enum reference
/// backend; pinning it keeps a rerun comparable to that baseline.
constexpr solver::BackendKind kBackend = solver::BackendKind::Enum;

DriverOptions bench_options() {
    DriverOptions opts;
    opts.check.solver.backend = kBackend;
    return opts;
}

std::vector<JobSpec> corpus() {
    std::vector<JobSpec> jobs;
    std::string error;
    std::string hdl_dir = SVLC_HDL_DIR;
    if (!hdl_dir.empty() &&
        !driver::jobs_from_directory(hdl_dir, jobs, error))
        std::fprintf(stderr, "note: %s (continuing with builtins only)\n",
                     error.c_str());
    auto cpus = driver::builtin_cpu_jobs();
    jobs.insert(jobs.end(), std::make_move_iterator(cpus.begin()),
                std::make_move_iterator(cpus.end()));
    return jobs;
}

BatchReport run_once(const std::vector<JobSpec>& jobs, size_t workers) {
    DriverOptions opts = bench_options();
    opts.jobs = workers;
    return VerificationDriver(opts).run(jobs);
}

void print_table() {
    svlc::bench::heading(
        "E9: batch verification — thread pool over independent jobs",
        "corpus-shaped IFC workloads (SEIF; Li & Zhang) are embarrassingly\n"
        "parallel across designs");

    auto jobs = corpus();
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    std::printf("corpus: %zu job(s); hardware concurrency: %zu\n\n",
                jobs.size(), hw);

    struct Row {
        const char* name;
        size_t workers;
    } rows[] = {
        {"sequential", 1},
        {"parallel", hw},
    };

    std::printf("%-26s %-10s %-10s %-10s\n", "configuration", "wall ms",
                "secure", "rejected");
    double base_ms = 0;
    JsonWriter w;
    w.begin_object();
    w.kv("bench", "batch");
    w.kv("jobs", jobs.size());
    w.kv("hardware_concurrency", uint64_t{hw});
    w.kv("backend", solver::backend_id(kBackend));
    w.key("rows");
    w.begin_array();
    for (const auto& row : rows) {
        BatchReport report = run_once(jobs, row.workers);
        if (base_ms == 0)
            base_ms = report.wall_ms;
        std::printf("%-26s %-10.1f %-10zu %-10zu (%.2fx)\n", row.name,
                    report.wall_ms, report.count(driver::JobStatus::Secure),
                    report.count(driver::JobStatus::Rejected),
                    base_ms / report.wall_ms);
        w.begin_object();
        w.kv("configuration", row.name);
        w.kv("workers", uint64_t{row.workers});
        w.kv("wall_ms", report.wall_ms, 3);
        w.kv("secure", report.count(driver::JobStatus::Secure));
        w.kv("rejected", report.count(driver::JobStatus::Rejected));
        w.kv("speedup", base_ms / report.wall_ms, 2);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream out("BENCH_batch.json");
    out << w.str() << "\n";
    std::printf("\nwrote BENCH_batch.json\n");
    std::printf("\n-> the thread pool is bounded by hardware concurrency "
                "and by the slowest\n   job; each job pays its own solver "
                "work\n");
}

void bm_batch_sequential(benchmark::State& state) {
    auto jobs = corpus();
    for (auto _ : state) {
        auto report = run_once(jobs, 1);
        benchmark::DoNotOptimize(report.results.size());
    }
}
BENCHMARK(bm_batch_sequential)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void bm_batch_parallel(benchmark::State& state) {
    auto jobs = corpus();
    for (auto _ : state) {
        auto report = run_once(jobs, 0); // 0 = hardware concurrency
        benchmark::DoNotOptimize(report.results.size());
    }
}
BENCHMARK(bm_batch_parallel)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

int main(int argc, char** argv) {
    print_table();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
