// Persistent incremental verification benchmark: the full corpus (the
// hdl/ designs plus the four generated CPU variants) checked
//   cold              — fresh driver, no persistence
//   fingerprint-warm  — fresh driver over a populated store: every job
//                       replays its verdict, nothing is parsed at all
// The fingerprint-warm row is the edit–recheck steady state `svlc watch`
// and CI-cached batches live in; the acceptance bar is >= 50x over cold.
// A second table drives the obligation-level edit loop on the labeled
// CPU: a comment-only edit replays every proof, a one-label edit
// re-solves only the dependent slice (bar: >= 10x over cold).
// Emits BENCH_incr.json (svlc-bench-incr/v3) alongside the tables.
#include "bench_util.hpp"

#include "driver/driver.hpp"
#include "support/json.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#ifndef SVLC_HDL_DIR
#define SVLC_HDL_DIR ""
#endif

namespace {

using namespace svlc;
using driver::BatchReport;
using driver::DriverOptions;
using driver::JobSpec;
using driver::VerificationDriver;

namespace fs = std::filesystem;

/// The committed BENCH_incr.json was measured on the enum reference
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

fs::path fresh_store_dir() {
    fs::path dir = fs::temp_directory_path() / "svlc_bench_incr_store";
    std::error_code ec;
    fs::remove_all(dir, ec);
    return dir;
}

void print_table() {
    bench::heading(
        "E10: persistent incremental verification — fingerprint store",
        "edit-recheck loops re-pay nothing for unchanged designs; the "
        "on-disk\nstore turns cross-process reruns into stat+hash time "
        "(SEIF-style audit\nworkloads are dominated by unchanged jobs)");

    auto jobs = corpus();
    fs::path store = fresh_store_dir();
    std::printf("corpus: %zu job(s); store: %s\n\n", jobs.size(),
                store.string().c_str());

    DriverOptions plain = bench_options();
    plain.jobs = 1;

    // cold: no persistence at all.
    BatchReport cold = VerificationDriver(plain).run(jobs);

    // populate the store (untimed), then measure a fresh driver over it.
    DriverOptions stored = plain;
    stored.store_dir = store.string();
    (void)VerificationDriver(stored).run(jobs);
    VerificationDriver warm_drv(stored);
    BatchReport fp_warm = warm_drv.run(jobs);

    struct Row {
        const char* name;
        const BatchReport* r;
    } rows[] = {{"cold", &cold}, {"fingerprint-warm", &fp_warm}};
    std::printf("%-18s %-10s %-9s %-10s %-10s\n", "configuration",
                "wall ms", "skipped", "secure", "rejected");
    for (const auto& row : rows)
        std::printf("%-18s %-10.1f %-9zu %-10zu %-10zu (%.1fx)\n",
                    row.name, row.r->wall_ms, row.r->skipped_count(),
                    row.r->count(driver::JobStatus::Secure),
                    row.r->count(driver::JobStatus::Rejected),
                    cold.wall_ms / row.r->wall_ms);

    // ------------------------------------------------------------------
    // Edit loop: one labeled-CPU job, per-obligation granularity.
    // Every pass uses a *fresh* driver so the only warmth is on disk.
    // ------------------------------------------------------------------
    std::printf("\nedit loop: builtin:labeled against a persistent "
                "store, fresh driver per pass\n\n");
    JobSpec quad;
    driver::builtin_job("labeled", quad);
    fs::path estore = fs::temp_directory_path() / "svlc_bench_incr_edit";
    std::error_code eec;
    fs::remove_all(estore, eec);

    DriverOptions eopts = bench_options();
    eopts.jobs = 1;
    eopts.store_dir = estore.string();

    auto run_pass = [&](const JobSpec& job) {
        VerificationDriver drv(eopts);
        return drv.run({job});
    };
    auto counters = [](const BatchReport& r, size_t& replayed,
                       size_t& solved) {
        replayed = solved = 0;
        for (const auto& jr : r.results) {
            replayed += jr.obligations_replayed;
            solved += jr.obligations_solved;
        }
    };

    BatchReport ecold = run_pass(quad);

    // Comment-only edit: a new job fingerprint, but every obligation
    // fingerprint survives — the whole proof set replays.
    JobSpec ws = quad;
    ws.source += "\n// benchmark whitespace edit\n";
    BatchReport ews = run_pass(ws);

    // Small-fanout edit: tighten the guard of the MMIO output register.
    // Only net_out's write-site path condition changes (rst is T and
    // net_out is U, so the design stays secure); everything else replays.
    JobSpec label = ws;
    auto pos = label.source.find("if (em_valid && em_is_store && m_mmio_out)");
    if (pos != std::string::npos)
        label.source.insert(pos + 42 - 1, " && !rst");
    BatchReport elabel = run_pass(label);

    struct ERow {
        const char* name;
        const BatchReport* r;
    } erows[] = {{"cold", &ecold},
                 {"whitespace-edit", &ews},
                 {"guard-edit", &elabel}};
    std::printf("%-18s %-10s %-10s %-10s\n", "pass", "wall ms",
                "replayed", "re-solved");
    for (const auto& row : erows) {
        size_t replayed = 0, solved = 0;
        counters(*row.r, replayed, solved);
        std::printf("%-18s %-10.1f %-10zu %-10zu (%.1fx)\n", row.name,
                    row.r->wall_ms, replayed, solved,
                    ecold.wall_ms / row.r->wall_ms);
    }

    size_t ws_replayed = 0, ws_solved = 0;
    counters(ews, ws_replayed, ws_solved);
    size_t ed_replayed = 0, ed_solved = 0;
    counters(elabel, ed_replayed, ed_solved);

    JsonWriter w;
    w.begin_object();
    w.kv("schema", "svlc-bench-incr/v3");
    w.kv("bench", "incr");
    w.kv("jobs", jobs.size());
    w.kv("backend", solver::backend_id(kBackend));
    w.kv("cold_ms", cold.wall_ms, 3);
    w.kv("fingerprint_warm_ms", fp_warm.wall_ms, 3);
    w.kv("fingerprint_warm_speedup", cold.wall_ms / fp_warm.wall_ms, 2);
    w.kv("fingerprint_skipped", fp_warm.skipped_count());
    w.kv("edit_cold_ms", ecold.wall_ms, 3);
    w.kv("edit_whitespace_ms", ews.wall_ms, 3);
    w.kv("edit_whitespace_replayed", ws_replayed);
    w.kv("edit_whitespace_solved", ws_solved);
    w.kv("edit_guard_ms", elabel.wall_ms, 3);
    w.kv("edit_guard_replayed", ed_replayed);
    w.kv("edit_guard_solved", ed_solved);
    w.kv("edit_whitespace_speedup", ecold.wall_ms / ews.wall_ms, 2);
    w.kv("edit_guard_speedup", ecold.wall_ms / elabel.wall_ms, 2);
    w.end_object();
    std::ofstream out("BENCH_incr.json");
    out << w.str() << "\n";
    std::printf("\nwrote BENCH_incr.json\n");

    std::error_code ec;
    fs::remove_all(store, ec);
    fs::remove_all(estore, eec);

    std::printf("-> the fingerprint store collapses an unchanged rerun to "
                "per-job hash+stat\n   cost; obligation records carry the "
                "edit loop — a comment edit replays\n   every proof and a "
                "one-label edit re-solves only its dependency slice\n");
}

void bm_incr_fingerprint_warm(benchmark::State& state) {
    auto jobs = corpus();
    fs::path store = fresh_store_dir();
    DriverOptions opts = bench_options();
    opts.store_dir = store.string();
    (void)VerificationDriver(opts).run(jobs); // populate
    for (auto _ : state) {
        VerificationDriver drv(opts); // fresh driver: disk-only warmth
        auto report = drv.run(jobs);
        benchmark::DoNotOptimize(report.skipped_count());
    }
    std::error_code ec;
    fs::remove_all(store, ec);
}
BENCHMARK(bm_incr_fingerprint_warm)->Unit(benchmark::kMillisecond);

void bm_incr_guard_edit(benchmark::State& state) {
    JobSpec labeled;
    driver::builtin_job("labeled", labeled);
    fs::path pristine =
        fs::temp_directory_path() / "svlc_bench_incr_bm_edit_pristine";
    fs::path store = fs::temp_directory_path() / "svlc_bench_incr_bm_edit";
    std::error_code ec;
    fs::remove_all(pristine, ec);
    DriverOptions opts = bench_options();
    opts.jobs = 1;
    opts.store_dir = pristine.string();
    (void)VerificationDriver(opts).run({labeled}); // populate
    opts.store_dir = store.string();
    JobSpec edited = labeled;
    auto pos =
        edited.source.find("if (em_valid && em_is_store && m_mmio_out)");
    if (pos != std::string::npos)
        edited.source.insert(pos + 41, " && !rst");
    bool checked = false;
    for (auto _ : state) {
        // Every iteration starts from the store of the unedited job: a
        // run stores the edited job's verdict, so reusing its store would
        // time a whole-job fingerprint skip instead of an edit.
        state.PauseTiming();
        fs::remove_all(store, ec);
        fs::copy(pristine, store, fs::copy_options::recursive, ec);
        state.ResumeTiming();
        VerificationDriver drv(opts); // fresh driver: disk-only warmth
        auto report = drv.run({edited});
        benchmark::DoNotOptimize(report.wall_ms);
        if (!checked) {
            state.PauseTiming();
            const driver::JobResult& r = report.results[0];
            if (ec || r.skipped || r.obligations_solved == 0 ||
                r.obligations_replayed + r.obligations_solved !=
                    r.obligations) {
                state.SkipWithError("guard edit did not re-solve its "
                                    "slice and replay the rest");
                break;
            }
            checked = true;
            state.ResumeTiming();
        }
    }
    fs::remove_all(store, ec);
    fs::remove_all(pristine, ec);
}
BENCHMARK(bm_incr_guard_edit)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    print_table();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
