// `svlc serve` benchmark: 100 verify requests for the labeled processor
// through a live daemon (real Unix socket, framed JSON-RPC) versus the
// same 100 requests paid cold — a fresh pipeline per request, i.e. what
// a per-process `svlc check` loop costs before even counting
// exec/startup overhead. The daemon answers
// repeats from its session cache with zero re-elaboration and zero
// solver calls; the acceptance bar is >= 10x over cold.
// Emits BENCH_serve.json alongside the table for dashboard ingestion.
#include "bench_util.hpp"

#include "driver/driver.hpp"
#include "proc/sources.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

namespace {

using namespace svlc;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kRequests = 100;
/// The committed BENCH_serve.json was measured on the enum reference
/// backend; pinning it keeps a rerun comparable to that baseline.
constexpr solver::BackendKind kBackend = solver::BackendKind::Enum;

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string bench_socket() {
    return (fs::temp_directory_path() /
            ("svlc_bench_serve_" + std::to_string(::getpid()) + ".sock"))
        .string();
}

/// One cold verification: a fresh Compilation — the work a separate
/// `svlc check` process repeats on every invocation.
double one_cold_check(const std::string& source) {
    pipeline::CompilationOptions copts;
    copts.check.solver.backend = kBackend;
    pipeline::Compilation comp(std::move(copts));
    driver::JobSpec spec;
    spec.name = "builtin:labeled";
    Clock::time_point t0 = Clock::now();
    driver::JobResult res = driver::verify_text(comp, spec, source, 0);
    if (res.status != driver::JobStatus::Secure)
        throw std::runtime_error("bench job unexpectedly not secure");
    return ms_between(t0, Clock::now());
}

/// Server on a thread + a real client; stopped on destruction.
struct BenchServer {
    serve::Server server;
    std::thread thread;

    BenchServer()
        : server([] {
              serve::ServeOptions opts;
              opts.socket_path = bench_socket();
              opts.install_signal_handlers = false;
              opts.default_check.solver.backend = kBackend;
              return opts;
          }()) {
        std::string error;
        if (!server.start(error))
            throw std::runtime_error("bench server: " + error);
        thread = std::thread([this] { server.run(); });
    }
    ~BenchServer() {
        server.request_stop();
        thread.join();
    }
};

double serve_loop_ms(BenchServer& bs, const std::string& source,
                     int requests) {
    std::string error;
    auto client = serve::Client::connect(bs.server.socket_path(), error);
    if (!client)
        throw std::runtime_error("bench client: " + error);
    JsonValue params = JsonValue::object();
    params.set("name", JsonValue("builtin:labeled"));
    params.set("source", JsonValue(source));

    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < requests; ++i) {
        serve::RpcMessage response;
        std::vector<serve::RpcMessage> notes;
        if (!client->call("verify", params, response, error, &notes) ||
            !response.has_result)
            throw std::runtime_error("bench verify failed: " + error);
        if (response.result.get_string("status") != "secure")
            throw std::runtime_error("bench job unexpectedly not secure");
    }
    return ms_between(t0, Clock::now());
}

void print_table() {
    bench::heading(
        "E11: `svlc serve` — resident daemon vs per-process checking",
        "an editor loop re-verifying an unchanged design should pay "
        "socket\nround-trip time, not pipeline time; the daemon's session "
        "cache answers\nrepeats with zero re-elaboration and zero solver "
        "calls");

    std::string source = proc::labeled_cpu_source();

    // Cold: every request is a fresh pipeline (a strict lower bound on
    // per-process `svlc check`, which additionally pays fork/exec and
    // binary startup). Averaged over a few requests —
    // repeating the full 100 cold would only add minutes, not accuracy.
    constexpr int kColdReps = 5;
    double cold_total = 0;
    for (int i = 0; i < kColdReps; ++i)
        cold_total += one_cold_check(source);
    double cold_avg = cold_total / kColdReps;
    double cold_loop = cold_avg * kRequests;

    // Serve: one daemon, one client, 100 verify requests for the same
    // job. Request 1 is the session miss; 2..100 are warm hits.
    BenchServer bs;
    double serve_loop = serve_loop_ms(bs, source, kRequests);
    double serve_avg = serve_loop / kRequests;
    double speedup = cold_loop / serve_loop;

    std::printf("job: builtin:labeled (labeled 3-stage CPU), %d requests\n\n",
                kRequests);
    std::printf("%-22s %-14s %-14s\n", "configuration", "per-request ms",
                "loop ms");
    std::printf("%-22s %-14.2f %-14.1f\n", "cold per-process", cold_avg,
                cold_loop);
    std::printf("%-22s %-14.2f %-14.1f (%.1fx)\n", "svlc serve (warm)",
                serve_avg, serve_loop, speedup);

    JsonWriter w;
    w.begin_object();
    w.kv("bench", "serve");
    w.kv("requests", uint64_t{kRequests});
    w.kv("backend", solver::backend_id(kBackend));
    w.kv("cold_request_ms", cold_avg, 3);
    w.kv("cold_loop_ms", cold_loop, 3);
    w.kv("serve_request_ms", serve_avg, 3);
    w.kv("serve_loop_ms", serve_loop, 3);
    w.kv("speedup", speedup, 2);
    w.end_object();
    std::ofstream out("BENCH_serve.json");
    out << w.str() << "\n";
    std::printf("\nwrote BENCH_serve.json\n");

    std::printf("-> a resident verifier turns the edit-recheck inner loop "
                "into IPC cost;\n   the >= 10x bar holds with room to "
                "spare because a session hit does\n   no parsing, no "
                "elaboration, and no entailment queries at all\n");
}

void bm_serve_warm_verify(benchmark::State& state) {
    std::string source = proc::labeled_cpu_source();
    BenchServer bs;
    (void)serve_loop_ms(bs, source, 1); // prime the session
    for (auto _ : state)
        benchmark::DoNotOptimize(serve_loop_ms(bs, source, 1));
}
BENCHMARK(bm_serve_warm_verify)->Unit(benchmark::kMillisecond);

void bm_cold_check(benchmark::State& state) {
    std::string source = proc::labeled_cpu_source();
    for (auto _ : state)
        benchmark::DoNotOptimize(one_cold_check(source));
}
BENCHMARK(bm_cold_check)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    print_table();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
