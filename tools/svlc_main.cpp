// svlc — the SecVerilogLC command-line driver.
//
//   svlc check <file.svlc> [--top M] [--classic] [--no-hold]
//              [--json out.json] [--stats] [--remote SOCKET] [--store DIR]
//   svlc serve --socket PATH [--store DIR] [--max-sessions N]
//              [--idle-timeout SEC] [--timeout-ms T]
//              [--classic] [--no-hold]
//   svlc client --socket PATH [--retry N] [--backoff MS]
//              <method> [params-json]
//   svlc coordinator --socket PATH <manifest|dir|file.svlc|builtin:V>
//              [--cpus] [--store DIR] [--json F] [--timeout-ms T]
//              [--lease-ms T] [--backoff-ms T] [--classic] [--no-hold]
//   svlc worker --connect PATH [--store DIR] [--name S] [--retry N]
//              [--backoff MS]
//   svlc emit-verilog <file.svlc> [--top M] [--compat]
//   svlc sim <file.svlc> [--top M] --cycles N [--set in=val]...
//            [--vcd out.vcd] [--watch net]...
//   svlc synth <file.svlc> [--top M] [--no-enable-ff] [--clock NS]
//   svlc taint <file.svlc> [--top M] --cycles N [--set in=val]...
//   svlc hunt <file.svlc> [--top M] [--depth N] [--observer L]
//            [--beam N] [--branch K] [--seed S] [--no-minimize]
//            [--json out.json]
//   svlc hunt-corpus [--out DIR]
//   svlc dump-cpu <labeled|baseline|vulnerable|quad> [outfile]
//   svlc batch <manifest|dir|file.svlc|builtin:V> [--jobs N] [--json F]
//              [--timeout-ms T] [--cpus] [--store DIR] [--no-store]
//   svlc watch <manifest|dir|file.svlc|builtin:V> [--store DIR]
//              [--interval-ms T] [--iterations N] [--jobs N] [--cpus]
//   svlc diff-backends <manifest|dir|file.svlc|builtin:V> [--jobs N]
//              [--cpus] [--classic] [--no-hold]
//
// Every checking command funnels through pipeline::Compilation — the CLI
// owns flag parsing and rendering, never phase plumbing.
#include "check/typecheck.hpp"
#include "codegen/verilog.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "driver/driver.hpp"
#include "driver/watch.hpp"
#include "fuzz/reducer.hpp"
#include "fuzz/runner.hpp"
#include "hunt/corpus.hpp"
#include "hunt/hunter.hpp"
#include "incr/replay.hpp"
#include "incr/store.hpp"
#include "pipeline/compilation.hpp"
#include "proc/assembler.hpp"
#include "proc/isa.hpp"
#include "proc/sources.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "sim/vcd.hpp"
#include "support/diagnostics.hpp"
#include "support/fsutil.hpp"
#include "support/json.hpp"
#include "support/json_reader.hpp"
#include "synth/synthesize.hpp"
#include "verify/taint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace svlc;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage:\n"
                 "  svlc check <file.svlc> [--top M] [--classic] [--no-hold]\n"
                 "             [--json out.json] [--stats] [--remote SOCKET]\n"
                 "             [--store DIR]\n"
                 "  svlc serve --socket PATH [--store DIR] [--max-sessions N]\n"
                 "             [--idle-timeout SEC] [--timeout-ms T]\n"
                 "             [--classic] [--no-hold]\n"
                 "  svlc client --socket PATH [--retry N] [--backoff MS]\n"
                 "             <method> [params-json]\n"
                 "  svlc coordinator --socket PATH\n"
                 "             <manifest|dir|file.svlc|builtin:V> [--cpus]\n"
                 "             [--store DIR] [--json out.json] [--timeout-ms T]\n"
                 "             [--lease-ms T] [--backoff-ms T] [--classic]\n"
                 "             [--no-hold]\n"
                 "  svlc worker --connect PATH [--store DIR] [--name S]\n"
                 "             [--retry N] [--backoff MS]\n"
                 "  svlc batch <manifest|dir|file.svlc|builtin:V> [--jobs N]\n"
                 "             [--json out.json] [--timeout-ms T] [--cpus]\n"
                 "             [--classic] [--no-hold] [--store DIR] [--no-store]\n"
                 "  svlc watch <manifest|dir|file.svlc|builtin:V> [--store DIR]\n"
                 "             [--interval-ms T] [--iterations N] [--jobs N]\n"
                 "             [--cpus] [--classic] [--no-hold]\n"
                 "  svlc diff-backends <manifest|dir|file.svlc|builtin:V>\n"
                 "             [--jobs N] [--cpus] [--classic] [--no-hold]\n"
                 "  svlc emit-verilog <file.svlc> [--top M] [--compat]\n"
                 "  svlc sim <file.svlc> [--top M] --cycles N [--set in=val]...\n"
                 "           [--vcd out.vcd] [--watch net]...\n"
                 "  svlc synth <file.svlc> [--top M] [--no-enable-ff] [--clock NS]\n"
                 "  svlc taint <file.svlc> [--top M] --cycles N [--set in=val]...\n"
                 "  svlc hunt <file.svlc> [--top M] [--depth N] [--observer L]\n"
                 "            [--beam N] [--branch K] [--seed S]\n"
                 "            [--no-minimize] [--json out.json]\n"
                 "  svlc hunt-corpus [--out DIR]\n"
                 "  svlc dump-cpu <labeled|baseline|vulnerable|quad> [outfile]\n"
                 "  svlc asm <file.s> [outfile.hex]\n"
                 "  svlc disasm <file.hex>\n"
                 "  svlc fuzz [--seed N] [--count M] [--oracle all|LIST]\n"
                 "            [--corpus DIR] [--no-reduce] [--dump]\n"
                 "  svlc reduce <file.svlc> [--oracle NAME|diag:CODE]\n"
                 "            [--out out.svlc]\n");
    return 2;
}

struct Args {
    std::string command;
    std::string file;
    std::string top;
    bool classic = false;
    bool no_hold = false;
    bool compat = false;
    bool no_enable_ff = false;
    double clock = 2.0;
    uint64_t cycles = 100;
    std::vector<std::pair<std::string, uint64_t>> sets;
    std::vector<std::string> watches;
    std::string vcd_path;
    std::string extra; // dump-cpu variant / outfile
    std::string outfile;
    // check --stats
    bool stats = false;
    // batch
    uint64_t jobs = 0;
    std::string json_path;
    uint64_t timeout_ms = 0;
    bool cpus = false;
    // batch/watch persistent store
    std::string store_dir;
    bool no_store = false;
    // watch
    uint64_t interval_ms = 500;
    uint64_t iterations = 0;
    // check --remote / serve / client / coordinator / worker
    std::string socket_path;
    uint64_t max_sessions = 16;
    uint64_t idle_timeout_sec = 0;
    std::string client_method;
    std::string client_params = "{}";
    // client / worker / check --remote reconnect policy
    uint64_t retry_attempts = 0;
    uint64_t retry_backoff_ms = 100;
    // coordinator
    uint64_t lease_ms = 120000;
    uint64_t coord_backoff_ms = 250;
    // worker
    std::string worker_name;
    // fuzz / reduce
    uint64_t fuzz_seed = 1;
    uint64_t fuzz_count = 100;
    std::string oracle; // fuzz: oracle set; reduce: oracle or diag:CODE
    std::string corpus_dir = "fuzz-corpus";
    bool no_reduce = false;
    bool dump = false;
    // hunt
    uint64_t hunt_depth = 16;
    std::string observer;
    uint64_t hunt_beam = 8;
    uint64_t hunt_branch = 4;
    uint64_t hunt_seed = 0x5eed;
    bool no_minimize = false;
    // hunt-corpus
    std::string corpus_out = "hunt-corpus";
};

bool parse_args(int argc, char** argv, Args& args) {
    if (argc < 2)
        return false;
    args.command = argv[1];
    int i = 2;
    if (args.command == "dump-cpu") {
        if (i < argc)
            args.extra = argv[i++];
        if (i < argc)
            args.outfile = argv[i++];
        return !args.extra.empty();
    }
    if (args.command == "asm" || args.command == "disasm") {
        if (i < argc)
            args.file = argv[i++];
        if (i < argc)
            args.outfile = argv[i++];
        return !args.file.empty();
    }
    if (args.command == "serve") {
        // No positional argument; everything is a flag.
        for (; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> const char* {
                return i + 1 < argc ? argv[++i] : nullptr;
            };
            const char* v = nullptr;
            if (arg == "--socket" && (v = next()))
                args.socket_path = v;
            else if (arg == "--store" && (v = next()))
                args.store_dir = v;
            else if (arg == "--max-sessions" && (v = next()))
                args.max_sessions = std::strtoull(v, nullptr, 0);
            else if (arg == "--idle-timeout" && (v = next()))
                args.idle_timeout_sec = std::strtoull(v, nullptr, 0);
            else if (arg == "--timeout-ms" && (v = next()))
                args.timeout_ms = std::strtoull(v, nullptr, 0);
            else if (arg == "--classic")
                args.classic = true;
            else if (arg == "--no-hold")
                args.no_hold = true;
            else {
                std::fprintf(stderr, "serve: unknown option '%s'\n",
                             arg.c_str());
                return false;
            }
        }
        if (args.socket_path.empty()) {
            std::fprintf(stderr, "serve: --socket PATH is required\n");
            return false;
        }
        return true;
    }
    if (args.command == "client") {
        for (; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--socket") {
                if (i + 1 >= argc)
                    return false;
                args.socket_path = argv[++i];
            } else if (arg == "--retry") {
                if (i + 1 >= argc)
                    return false;
                args.retry_attempts = std::strtoull(argv[++i], nullptr, 0);
            } else if (arg == "--backoff") {
                if (i + 1 >= argc)
                    return false;
                args.retry_backoff_ms = std::strtoull(argv[++i], nullptr, 0);
            } else if (args.client_method.empty()) {
                args.client_method = arg;
            } else {
                args.client_params = arg;
            }
        }
        if (args.socket_path.empty() || args.client_method.empty()) {
            std::fprintf(stderr,
                         "client: --socket PATH and a method are required\n");
            return false;
        }
        return true;
    }
    if (args.command == "coordinator") {
        // One positional target (anywhere), the rest are flags.
        for (; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> const char* {
                return i + 1 < argc ? argv[++i] : nullptr;
            };
            const char* v = nullptr;
            if (arg == "--socket" && (v = next()))
                args.socket_path = v;
            else if (arg == "--store" && (v = next()))
                args.store_dir = v;
            else if (arg == "--json" && (v = next()))
                args.json_path = v;
            else if (arg == "--timeout-ms" && (v = next()))
                args.timeout_ms = std::strtoull(v, nullptr, 0);
            else if (arg == "--lease-ms" && (v = next()))
                args.lease_ms = std::strtoull(v, nullptr, 0);
            else if (arg == "--backoff-ms" && (v = next()))
                args.coord_backoff_ms = std::strtoull(v, nullptr, 0);
            else if (arg == "--cpus")
                args.cpus = true;
            else if (arg == "--classic")
                args.classic = true;
            else if (arg == "--no-hold")
                args.no_hold = true;
            else if (arg.rfind("--", 0) != 0 && args.file.empty()) {
                args.file = arg;
            } else {
                std::fprintf(stderr, "coordinator: unknown option '%s'\n",
                             arg.c_str());
                return false;
            }
        }
        if (args.socket_path.empty()) {
            std::fprintf(stderr, "coordinator: --socket PATH is required\n");
            return false;
        }
        if (args.file.empty() && !args.cpus) {
            std::fprintf(stderr,
                         "coordinator: a target (or --cpus) is required\n");
            return false;
        }
        return true;
    }
    if (args.command == "worker") {
        // No positional argument; everything is a flag.
        for (; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> const char* {
                return i + 1 < argc ? argv[++i] : nullptr;
            };
            const char* v = nullptr;
            if (arg == "--connect" && (v = next()))
                args.socket_path = v;
            else if (arg == "--store" && (v = next()))
                args.store_dir = v;
            else if (arg == "--name" && (v = next()))
                args.worker_name = v;
            else if (arg == "--retry" && (v = next()))
                args.retry_attempts = std::strtoull(v, nullptr, 0);
            else if (arg == "--backoff" && (v = next()))
                args.retry_backoff_ms = std::strtoull(v, nullptr, 0);
            else {
                std::fprintf(stderr, "worker: unknown option '%s'\n",
                             arg.c_str());
                return false;
            }
        }
        if (args.socket_path.empty()) {
            std::fprintf(stderr, "worker: --connect PATH is required\n");
            return false;
        }
        return true;
    }
    if (args.command == "fuzz") {
        // No positional argument; everything is a flag.
        for (; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> const char* {
                return i + 1 < argc ? argv[++i] : nullptr;
            };
            const char* v = nullptr;
            if (arg == "--seed" && (v = next()))
                args.fuzz_seed = std::strtoull(v, nullptr, 0);
            else if (arg == "--count" && (v = next()))
                args.fuzz_count = std::strtoull(v, nullptr, 0);
            else if (arg == "--oracle" && (v = next()))
                args.oracle = v;
            else if (arg == "--corpus" && (v = next()))
                args.corpus_dir = v;
            else if (arg == "--no-reduce")
                args.no_reduce = true;
            else if (arg == "--dump")
                args.dump = true;
            else {
                std::fprintf(stderr, "fuzz: unknown option '%s'\n",
                             arg.c_str());
                return false;
            }
        }
        return true;
    }
    if (args.command == "hunt-corpus") {
        // No positional argument; everything is a flag.
        for (; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--out" && i + 1 < argc) {
                args.corpus_out = argv[++i];
            } else {
                std::fprintf(stderr, "hunt-corpus: unknown option '%s'\n",
                             arg.c_str());
                return false;
            }
        }
        return true;
    }
    if (i >= argc)
        return false;
    args.file = argv[i++];
    for (; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--top") {
            const char* v = next();
            if (!v)
                return false;
            args.top = v;
        } else if (arg == "--classic") {
            args.classic = true;
        } else if (arg == "--no-hold") {
            args.no_hold = true;
        } else if (arg == "--compat") {
            args.compat = true;
        } else if (arg == "--no-enable-ff") {
            args.no_enable_ff = true;
        } else if (arg == "--clock") {
            const char* v = next();
            if (!v)
                return false;
            args.clock = std::atof(v);
        } else if (arg == "--cycles") {
            const char* v = next();
            if (!v)
                return false;
            args.cycles = std::strtoull(v, nullptr, 0);
        } else if (arg == "--set") {
            const char* v = next();
            if (!v)
                return false;
            std::string s = v;
            size_t eq = s.find('=');
            if (eq == std::string::npos)
                return false;
            args.sets.emplace_back(s.substr(0, eq),
                                   std::strtoull(s.c_str() + eq + 1, nullptr,
                                                 0));
        } else if (arg == "--watch") {
            const char* v = next();
            if (!v)
                return false;
            args.watches.push_back(v);
        } else if (arg == "--vcd") {
            const char* v = next();
            if (!v)
                return false;
            args.vcd_path = v;
        } else if (arg == "--stats") {
            args.stats = true;
        } else if (arg == "--remote") {
            const char* v = next();
            if (!v)
                return false;
            args.socket_path = v;
        } else if (arg == "--retry") {
            const char* v = next();
            if (!v)
                return false;
            args.retry_attempts = std::strtoull(v, nullptr, 0);
        } else if (arg == "--backoff") {
            const char* v = next();
            if (!v)
                return false;
            args.retry_backoff_ms = std::strtoull(v, nullptr, 0);
        } else if (arg == "--jobs") {
            const char* v = next();
            if (!v)
                return false;
            char* end = nullptr;
            args.jobs = std::strtoull(v, &end, 0);
            if (!*v || *end) {
                std::fprintf(stderr, "--jobs: bad count '%s'\n", v);
                return false;
            }
        } else if (arg == "--json") {
            const char* v = next();
            if (!v)
                return false;
            args.json_path = v;
        } else if (arg == "--timeout-ms") {
            const char* v = next();
            if (!v)
                return false;
            char* end = nullptr;
            args.timeout_ms = std::strtoull(v, &end, 0);
            if (!*v || *end) {
                std::fprintf(stderr, "--timeout-ms: bad value '%s'\n", v);
                return false;
            }
        } else if (arg == "--store") {
            const char* v = next();
            if (!v)
                return false;
            args.store_dir = v;
        } else if (arg == "--no-store") {
            args.no_store = true;
        } else if (arg == "--interval-ms") {
            const char* v = next();
            if (!v)
                return false;
            char* end = nullptr;
            args.interval_ms = std::strtoull(v, &end, 0);
            if (!*v || *end) {
                std::fprintf(stderr, "--interval-ms: bad value '%s'\n", v);
                return false;
            }
        } else if (arg == "--iterations") {
            const char* v = next();
            if (!v)
                return false;
            char* end = nullptr;
            args.iterations = std::strtoull(v, &end, 0);
            if (!*v || *end) {
                std::fprintf(stderr, "--iterations: bad count '%s'\n", v);
                return false;
            }
        } else if (arg == "--cpus") {
            args.cpus = true;
        } else if (arg == "--oracle") {
            const char* v = next();
            if (!v)
                return false;
            args.oracle = v;
        } else if (arg == "--depth") {
            const char* v = next();
            if (!v)
                return false;
            char* end = nullptr;
            args.hunt_depth = std::strtoull(v, &end, 0);
            if (!*v || *end || args.hunt_depth == 0) {
                std::fprintf(stderr, "--depth: bad cycle count '%s'\n", v);
                return false;
            }
        } else if (arg == "--observer") {
            const char* v = next();
            if (!v)
                return false;
            args.observer = v;
        } else if (arg == "--beam") {
            const char* v = next();
            if (!v)
                return false;
            char* end = nullptr;
            args.hunt_beam = std::strtoull(v, &end, 0);
            if (!*v || *end || args.hunt_beam == 0) {
                std::fprintf(stderr, "--beam: bad width '%s'\n", v);
                return false;
            }
        } else if (arg == "--branch") {
            const char* v = next();
            if (!v)
                return false;
            char* end = nullptr;
            args.hunt_branch = std::strtoull(v, &end, 0);
            if (!*v || *end || args.hunt_branch == 0) {
                std::fprintf(stderr, "--branch: bad count '%s'\n", v);
                return false;
            }
        } else if (arg == "--seed") {
            const char* v = next();
            if (!v)
                return false;
            args.hunt_seed = std::strtoull(v, nullptr, 0);
        } else if (arg == "--no-minimize") {
            args.no_minimize = true;
        } else if (arg == "--out") {
            const char* v = next();
            if (!v)
                return false;
            args.outfile = v;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return false;
        }
    }
    return true;
}

/// Reconnect policy shared by client/worker/check --remote.
net::RetryOptions retry_options(const Args& args) {
    net::RetryOptions retry;
    retry.attempts = static_cast<int>(args.retry_attempts);
    retry.backoff_ms = args.retry_backoff_ms;
    return retry;
}

/// Checker configuration shared by check/batch/watch: mode and hold
/// obligations.
check::CheckOptions check_options(const Args& args) {
    check::CheckOptions opts;
    if (args.classic)
        opts.mode = check::CheckerMode::ClassicSecVerilog;
    opts.hold_obligations = !args.no_hold;
    return opts;
}

/// Elaborates args.file through the unified pipeline for the non-checking
/// commands (emit/sim/synth/taint). Prints diagnostics and returns null
/// on any phase failure.
std::unique_ptr<pipeline::Compilation> elaborate_file(const Args& args) {
    pipeline::CompilationOptions popts;
    popts.top = args.top;
    auto comp = std::make_unique<pipeline::Compilation>(std::move(popts));
    if (!comp->load_file(args.file) || !comp->elaborate()) {
        std::fputs(comp->render_diagnostics().c_str(), stderr);
        return nullptr;
    }
    return comp;
}

int cmd_check(const Args& args) {
    // --remote: forward the request to a running `svlc serve` daemon and
    // fall back silently to the in-process path when nothing is
    // listening. The daemon renders through the same pipeline helpers,
    // so both paths are byte-identical.
    if (!args.socket_path.empty()) {
        serve::RemoteCheckResult remote;
        if (serve::remote_check(args.socket_path, args.file, args.top,
                                check_options(args), remote,
                                retry_options(args))) {
            std::fputs(remote.diagnostics.c_str(), stderr);
            std::fputs(remote.human.c_str(), stdout);
            if (remote.status == "error")
                return 1;
            if (!args.json_path.empty()) {
                std::ofstream out(args.json_path);
                if (!out) {
                    std::fprintf(stderr, "cannot write '%s'\n",
                                 args.json_path.c_str());
                    return 2;
                }
                out << remote.report_json;
                std::fprintf(stderr, "wrote %s\n", args.json_path.c_str());
            }
            if (args.stats)
                std::fputs(remote.stats_line.c_str(), stderr);
            return remote.status == "secure" ? 0 : 1;
        }
    }
    pipeline::CompilationOptions popts;
    popts.top = args.top;
    popts.check = check_options(args);
    pipeline::Compilation comp(std::move(popts));
    if (!comp.load_file(args.file)) {
        std::fputs(comp.render_diagnostics().c_str(), stderr);
        return 1;
    }
    // --store: replay unchanged obligations from the persistent store and
    // write freshly solved verdicts through. A broken store degrades to a
    // cold check, never a failed one.
    std::unique_ptr<incr::ArtifactStore> store;
    if (!args.store_dir.empty()) {
        incr::StoreOptions sopts;
        sopts.dir = args.store_dir;
        auto s = std::make_unique<incr::ArtifactStore>(sopts);
        std::string serror;
        if (s->open(serror))
            store = std::move(s);
        else
            std::fprintf(stderr, "svlc: store disabled: %s\n",
                         serror.c_str());
    }
    std::optional<incr::ObligationReplayer> oracle;
    if (store && comp.elaborate()) {
        oracle.emplace(*store, *comp.design(), comp.options().check);
        comp.options().check.oracle = &*oracle;
    }
    const check::CheckResult* checked = comp.check();
    comp.options().check.oracle = nullptr;
    std::fputs(comp.render_diagnostics().c_str(), stderr);
    if (!checked)
        return 1;
    const check::CheckResult& result = *checked;
    std::fputs(pipeline::check_human_summary(comp, result).c_str(), stdout);
    if (!args.json_path.empty()) {
        std::ofstream out(args.json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         args.json_path.c_str());
            return 2;
        }
        out << pipeline::check_report_json(comp, result, args.file);
        std::fprintf(stderr, "wrote %s\n", args.json_path.c_str());
    }
    if (args.stats) {
        std::fputs(pipeline::solver_stats_line(result.solver_stats).c_str(),
                   stderr);
        if (store)
            std::fprintf(stderr, "incremental: %zu replayed, %zu re-solved\n",
                         result.obligations_replayed,
                         result.obligations_solved);
    }
    return result.ok ? 0 : 1;
}

int cmd_serve(const Args& args) {
    serve::ServeOptions opts;
    opts.socket_path = args.socket_path;
    opts.store_dir = args.store_dir;
    if (args.max_sessions)
        opts.max_sessions = args.max_sessions;
    opts.idle_timeout_sec = args.idle_timeout_sec;
    opts.default_timeout_ms = args.timeout_ms;
    opts.default_check = check_options(args);
    serve::Server server(std::move(opts));
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "svlc serve: %s\n", error.c_str());
        return 2;
    }
    std::fprintf(stderr, "svlc serve: listening on %s\n",
                 server.socket_path().c_str());
    return server.run();
}

int cmd_client(const Args& args) {
    std::string error;
    auto client =
        serve::Client::connect(args.socket_path, retry_options(args), error);
    if (!client) {
        std::fprintf(stderr, "svlc client: %s\n", error.c_str());
        return 2;
    }
    JsonValue params;
    if (!JsonReader::parse(args.client_params, params, error)) {
        std::fprintf(stderr, "svlc client: bad params: %s\n", error.c_str());
        return 2;
    }
    serve::RpcMessage response;
    std::vector<serve::RpcMessage> notifications;
    if (!client->call(args.client_method, params, response, error,
                      &notifications)) {
        std::fprintf(stderr, "svlc client: %s\n", error.c_str());
        return 2;
    }
    for (const serve::RpcMessage& n : notifications)
        std::fprintf(stderr, "notification %s: %s\n", n.method.c_str(),
                     n.params.dump().c_str());
    if (response.has_error) {
        std::fprintf(stderr, "error %d: %s\n", response.error_code,
                     response.error_message.c_str());
        return 1;
    }
    std::printf("%s\n", response.result.dump(2).c_str());
    return 0;
}

int cmd_coordinator(const Args& args) {
    std::vector<driver::JobSpec> jobs;
    std::string error;
    if (!args.file.empty() && !driver::collect_jobs(args.file, jobs, error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    if (args.cpus) {
        auto cpu_jobs = driver::builtin_cpu_jobs();
        jobs.insert(jobs.end(), std::make_move_iterator(cpu_jobs.begin()),
                    std::make_move_iterator(cpu_jobs.end()));
    }

    dist::CoordinatorOptions opts;
    opts.socket_path = args.socket_path;
    if (!args.no_store)
        opts.store_dir = args.store_dir;
    opts.timeout_ms = args.timeout_ms;
    if (args.lease_ms)
        opts.lease_ms = args.lease_ms;
    if (args.coord_backoff_ms)
        opts.backoff_ms = args.coord_backoff_ms;
    opts.check = check_options(args);

    size_t job_count = jobs.size();
    dist::Coordinator coord(std::move(opts), std::move(jobs));
    if (!coord.start(error)) {
        std::fprintf(stderr, "svlc coordinator: %s\n", error.c_str());
        return 2;
    }
    std::fprintf(stderr, "svlc coordinator: serving %zu job(s) on %s\n",
                 job_count, coord.socket_path().c_str());
    driver::BatchReport report = coord.run();

    // Same split as `svlc batch`: the deterministic verdict summary on
    // stdout (diffable against a single-process run), telemetry on
    // stderr and in the JSON report.
    std::fputs(report.summary().c_str(), stdout);
    const dist::CoordinatorStats& st = coord.stats();
    std::fprintf(
        stderr,
        "coordinator wall %.1f ms, %llu worker(s); %llu lease(s) issued, "
        "%llu expired, %llu reclaimed, %llu steal(s), %llu duplicate "
        "result(s), %llu store skip(s)\n",
        report.wall_ms,
        static_cast<unsigned long long>(st.workers_registered),
        static_cast<unsigned long long>(st.leases_issued),
        static_cast<unsigned long long>(st.leases_expired),
        static_cast<unsigned long long>(st.leases_reclaimed),
        static_cast<unsigned long long>(st.steals),
        static_cast<unsigned long long>(st.duplicate_results),
        static_cast<unsigned long long>(st.store_skips));
    for (const dist::WorkerSummary& w : coord.worker_summaries())
        std::fprintf(stderr,
                     "coordinator worker %s: %llu lease(s), %llu result(s) "
                     "accepted\n",
                     w.name.c_str(), static_cast<unsigned long long>(w.leases),
                     static_cast<unsigned long long>(w.results));
    if (!args.json_path.empty()) {
        std::ofstream out(args.json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         args.json_path.c_str());
            return 2;
        }
        out << report.to_json(true);
        std::fprintf(stderr, "wrote %s\n", args.json_path.c_str());
    }
    return report.all_ran() ? 0 : 1;
}

int cmd_worker(const Args& args) {
    dist::WorkerOptions opts;
    opts.socket_path = args.socket_path;
    opts.store_dir = args.store_dir;
    opts.name = args.worker_name;
    opts.retry = retry_options(args);
    dist::Worker worker(std::move(opts));
    std::string error;
    if (!worker.run(error)) {
        std::fprintf(stderr, "svlc worker: %s\n", error.c_str());
        return 2;
    }
    const dist::WorkerStats& st = worker.stats();
    std::fprintf(
        stderr,
        "svlc worker: %llu lease(s), %llu verified, %llu store hit(s), "
        "%llu verdict(s) + %llu obligation record(s) pushed\n",
        static_cast<unsigned long long>(st.leases),
        static_cast<unsigned long long>(st.verified),
        static_cast<unsigned long long>(st.store_hits),
        static_cast<unsigned long long>(st.pushed_verdicts),
        static_cast<unsigned long long>(st.pushed_obligations));
    return 0;
}

int cmd_batch(const Args& args) {
    std::vector<driver::JobSpec> jobs;
    std::string error;
    if (!driver::collect_jobs(args.file, jobs, error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    if (args.cpus) {
        auto cpu_jobs = driver::builtin_cpu_jobs();
        jobs.insert(jobs.end(), std::make_move_iterator(cpu_jobs.begin()),
                    std::make_move_iterator(cpu_jobs.end()));
    }

    driver::DriverOptions opts;
    opts.jobs = args.jobs;
    opts.timeout_ms = args.timeout_ms;
    if (!args.no_store)
        opts.store_dir = args.store_dir;
    opts.check = check_options(args);

    driver::VerificationDriver drv(opts);
    driver::BatchReport report = drv.run(jobs);

    // The stdout summary is deterministic (verdicts only); timings go to
    // stderr and the JSON report.
    std::fputs(report.summary().c_str(), stdout);
    std::fprintf(stderr, "batch wall %.1f ms on %zu worker(s)\n",
                 report.wall_ms, report.workers);
    if (report.store_enabled) {
        std::fprintf(
            stderr,
            "store: %zu skipped via fingerprint, %llu stored, %llu corrupt "
            "discarded\n",
            report.skipped_count(),
            static_cast<unsigned long long>(report.store.verdict_stores),
            static_cast<unsigned long long>(report.store.corrupt_discarded));
        size_t replayed = 0, solved = 0;
        for (const auto& r : report.results) {
            replayed += r.obligations_replayed;
            solved += r.obligations_solved;
        }
        std::fprintf(
            stderr,
            "store: %zu obligation(s) replayed, %zu re-solved, %llu "
            "obligation record(s) written\n",
            replayed, solved,
            static_cast<unsigned long long>(report.store.obligation_stores));
    }
    if (!args.json_path.empty()) {
        std::ofstream out(args.json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         args.json_path.c_str());
            return 2;
        }
        out << report.to_json(true);
        std::fprintf(stderr, "wrote %s\n", args.json_path.c_str());
    }
    // Rejected designs are a successful verification outcome; only
    // infrastructure failures (error/timeout) fail the batch.
    return report.all_ran() ? 0 : 1;
}

int cmd_watch(const Args& args) {
    driver::WatchOptions opts;
    opts.driver.jobs = args.jobs;
    opts.driver.timeout_ms = args.timeout_ms;
    if (!args.no_store)
        opts.driver.store_dir = args.store_dir;
    opts.driver.check = check_options(args);
    opts.interval_ms = args.interval_ms;
    opts.max_iterations = args.iterations;
    opts.include_cpus = args.cpus;
    return driver::run_watch(args.file, opts, stdout, stderr);
}

int cmd_diff(const Args& args) {
    std::vector<driver::JobSpec> jobs;
    std::string error;
    if (!driver::collect_jobs(args.file, jobs, error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    if (args.cpus) {
        auto cpu_jobs = driver::builtin_cpu_jobs();
        jobs.insert(jobs.end(), std::make_move_iterator(cpu_jobs.begin()),
                    std::make_move_iterator(cpu_jobs.end()));
    }
    driver::DriverOptions opts;
    opts.jobs = args.jobs;
    opts.timeout_ms = args.timeout_ms;
    opts.check = check_options(args);
    std::vector<driver::BackendDiff> diffs = driver::diff_backends(jobs, opts);
    if (diffs.empty()) {
        std::printf("diff-backends: %zu job(s), enum and cdcl agree on "
                    "every verdict\n",
                    jobs.size());
        return 0;
    }
    for (const auto& d : diffs)
        std::printf("DIFF %s %s: enum=%s %s=%s\n", d.job.c_str(),
                    d.field.c_str(), d.enum_value.c_str(), d.backend.c_str(),
                    d.other_value.c_str());
    std::printf("diff-backends: %zu disagreement(s) across %zu job(s) — "
                "backend contract violated\n",
                diffs.size(), jobs.size());
    return 1;
}

int cmd_emit(const Args& args) {
    auto comp = elaborate_file(args);
    if (!comp)
        return 1;
    codegen::EmitOptions opts;
    if (args.compat)
        opts.dialect = codegen::Dialect::SvlcCompat;
    std::string verilog =
        codegen::emit_verilog(*comp->design(), comp->diags(), opts);
    if (comp->diags().has_errors()) {
        std::fputs(comp->render_diagnostics().c_str(), stderr);
        return 1;
    }
    std::fputs(verilog.c_str(), stdout);
    return 0;
}

int cmd_sim(const Args& args) {
    auto comp = elaborate_file(args);
    if (!comp)
        return 1;
    const hir::Design* design = comp->design();
    sim::Simulator simulator(*design);
    for (const auto& [name, value] : args.sets)
        simulator.set_input(name, value);

    std::ofstream vcd_file;
    std::unique_ptr<sim::VcdWriter> vcd;
    std::vector<hir::NetId> watch_ids;
    for (const auto& w : args.watches) {
        hir::NetId id = design->find_net(w);
        if (id == hir::kInvalidNet) {
            std::fprintf(stderr, "no net named '%s'\n", w.c_str());
            return 1;
        }
        watch_ids.push_back(id);
    }
    if (!args.vcd_path.empty()) {
        vcd_file.open(args.vcd_path);
        vcd = std::make_unique<sim::VcdWriter>(*design, vcd_file, watch_ids);
        vcd->begin();
    }
    for (uint64_t i = 0; i < args.cycles; ++i) {
        simulator.step();
        if (vcd)
            vcd->sample(simulator);
    }
    simulator.settle();
    std::printf("ran %llu cycles\n",
                static_cast<unsigned long long>(args.cycles));
    const auto& nets = watch_ids.empty() ? [&] {
        std::vector<hir::NetId> all;
        for (const auto& net : design->nets)
            if (net.array_size == 0)
                all.push_back(net.id);
        return all;
    }() : watch_ids;
    for (hir::NetId id : nets) {
        const auto& net = design->net(id);
        std::printf("  %-24s = 0x%llx", net.name.c_str(),
                    static_cast<unsigned long long>(
                        simulator.get(id).value()));
        if (!net.label.is_static())
            std::printf("  {%s}",
                        design->policy.lattice()
                            .name(simulator.current_label(id))
                            .c_str());
        std::printf("\n");
    }
    for (const auto& v : simulator.violations())
        std::printf("assume violated at cycle %llu\n",
                    static_cast<unsigned long long>(v.cycle));
    return 0;
}

int cmd_synth(const Args& args) {
    auto comp = elaborate_file(args);
    if (!comp)
        return 1;
    const hir::Design* design = comp->design();
    synth::SynthOptions opts;
    opts.use_enable_ff = !args.no_enable_ff;
    opts.target_clock_ns = args.clock;
    auto report = synth::synthesize(*design, opts);
    std::printf("%s\n", report.summary().c_str());
    for (const auto& [name, count] : report.cells.by_name)
        std::printf("  %-8s %8llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));
    if (report.sram_bits)
        std::printf("  SRAM     %8llu bits (%.0f um^2)\n",
                    static_cast<unsigned long long>(report.sram_bits),
                    report.sram_area_um2);
    return report.meets_target ? 0 : 1;
}

int cmd_taint(const Args& args) {
    auto comp = elaborate_file(args);
    if (!comp)
        return 1;
    const hir::Design* design = comp->design();
    sim::Simulator simulator(*design);
    verify::TaintTracker tracker(*design);
    for (const auto& [name, value] : args.sets)
        simulator.set_input(name, value);
    for (uint64_t i = 0; i < args.cycles; ++i)
        tracker.step(simulator);
    std::printf("ran %llu cycles with GLIFT-style tracking: %zu "
                "violation(s)\n",
                static_cast<unsigned long long>(args.cycles),
                tracker.violations().size());
    for (const auto& v : tracker.violations()) {
        std::printf("  cycle %llu: net '%s' tainted %s but labeled %s\n",
                    static_cast<unsigned long long>(v.cycle),
                    design->net(v.net).name.c_str(),
                    design->policy.lattice().name(v.taint).c_str(),
                    design->policy.lattice().name(v.declared).c_str());
        if (tracker.violations().size() > 10)
            break;
    }
    return tracker.violations().empty() ? 0 : 1;
}

int cmd_hunt(const Args& args) {
    auto comp = elaborate_file(args);
    if (!comp)
        return 1;
    const hir::Design* design = comp->design();

    hunt::HuntOptions opts;
    opts.depth = args.hunt_depth;
    opts.beam = static_cast<size_t>(args.hunt_beam);
    opts.branch = static_cast<size_t>(args.hunt_branch);
    opts.seed = args.hunt_seed;
    opts.minimize = !args.no_minimize;
    if (!args.observer.empty()) {
        auto lvl = design->policy.lattice().find(args.observer);
        if (!lvl) {
            std::fprintf(stderr, "hunt: unknown observer level '%s'\n",
                         args.observer.c_str());
            return 2;
        }
        opts.observer = *lvl;
    }

    hunt::HuntResult result = hunt::hunt(*design, opts);
    std::fputs(hunt::render_hunt(*design, result).c_str(), stdout);
    if (!args.json_path.empty()) {
        std::string json = hunt::hunt_json(*design, result);
        if (args.json_path == "-") {
            std::fputs(json.c_str(), stdout);
            std::fputc('\n', stdout);
        } else {
            std::string err;
            if (!write_file_atomic(args.json_path, json, &err)) {
                std::fprintf(stderr, "hunt: %s\n", err.c_str());
                return 1;
            }
        }
    }
    return result.verdict == hunt::HuntVerdict::Leak ? 1 : 0;
}

int cmd_hunt_corpus(const Args& args) {
    std::vector<hunt::Scenario> scenarios = hunt::builtin_scenarios();
    std::string error;
    if (!hunt::write_corpus(args.corpus_out, scenarios, error)) {
        std::fprintf(stderr, "hunt-corpus: %s\n", error.c_str());
        return 1;
    }
    size_t planted = 0;
    for (const hunt::Scenario& sc : scenarios)
        planted += sc.planted_leak ? 1 : 0;
    std::printf("wrote %zu scenario(s) (%zu with planted leaks) and a "
                "hunt manifest to %s\n",
                scenarios.size(), planted, args.corpus_out.c_str());
    return 0;
}

int cmd_dump_cpu(const Args& args) {
    std::string text;
    std::string suggested;
    if (args.extra == "labeled") {
        text = proc::labeled_cpu_source();
        suggested = "cpu_labeled.svlc";
    } else if (args.extra == "baseline") {
        text = proc::baseline_cpu_source();
        suggested = "cpu_baseline.svlc";
    } else if (args.extra == "vulnerable") {
        text = proc::vulnerable_cpu_source();
        suggested = "cpu_vulnerable.svlc";
    } else if (args.extra == "quad") {
        text = proc::quad_core_source();
        suggested = "quad.svlc";
    } else {
        std::fprintf(stderr, "unknown variant '%s'\n", args.extra.c_str());
        return 2;
    }
    if (args.outfile.empty()) {
        std::fputs(text.c_str(), stdout);
    } else {
        std::ofstream out(args.outfile);
        out << text;
        std::printf("wrote %s (%zu bytes)\n", args.outfile.c_str(),
                    text.size());
    }
    (void)suggested;
    return 0;
}

int cmd_asm(const Args& args) {
    std::ifstream in(args.file);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", args.file.c_str());
        return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    auto result = proc::assemble(buf.str());
    if (!result.ok) {
        std::fprintf(stderr, "%s\n", result.error.c_str());
        return 1;
    }
    std::ostream* out = &std::cout;
    std::ofstream file;
    if (!args.outfile.empty()) {
        file.open(args.outfile);
        out = &file;
    }
    char line[16];
    for (uint32_t w : result.words) {
        std::snprintf(line, sizeof line, "%08x\n", w);
        *out << line;
    }
    std::fprintf(stderr, "%zu words", result.words.size());
    for (const auto& [name, addr] : result.labels)
        std::fprintf(stderr, "  %s=0x%x", name.c_str(), addr);
    std::fprintf(stderr, "\n");
    return 0;
}

int cmd_disasm(const Args& args) {
    std::ifstream in(args.file);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", args.file.c_str());
        return 1;
    }
    std::string line;
    uint32_t addr = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        uint32_t word = static_cast<uint32_t>(
            std::strtoul(line.c_str(), nullptr, 16));
        std::printf("%08x:  %08x  %s\n", addr, word,
                    proc::disassemble(word).c_str());
        addr += 4;
    }
    return 0;
}

int cmd_fuzz(const Args& args) {
    fuzz::FuzzOptions opts;
    opts.seed = args.fuzz_seed;
    opts.count = args.fuzz_count;
    opts.corpus_dir = args.corpus_dir;
    opts.reduce_failures = !args.no_reduce;
    opts.dump_only = args.dump;
    if (!args.oracle.empty() &&
        !fuzz::parse_oracle_set(args.oracle, opts.oracles)) {
        std::fprintf(stderr,
                     "fuzz: unknown oracle set '%s' (expected all or a "
                     "comma list of no-crash,diff,soundness,roundtrip,"
                     "xform)\n",
                     args.oracle.c_str());
        return 2;
    }
    fuzz::FuzzStats stats = fuzz::run_fuzz(opts, stdout);
    if (stats.violations.empty())
        return 0;
    std::fprintf(stderr, "fuzz: %zu oracle violation(s); reports in %s\n",
                 stats.violations.size(), opts.corpus_dir.c_str());
    return 1;
}

/// Builds the reduce predicate from --oracle: "diag:<code>" keeps
/// shrinking while the named diagnostic is still reported; an oracle set
/// keeps shrinking while any of those oracles still fires.
bool reduce_predicate(const Args& args, const std::string& spec,
                      std::function<bool(const std::string&)>& pred,
                      std::string& describe) {
    if (spec.rfind("diag:", 0) == 0) {
        std::string name = spec.substr(5);
        DiagCode code;
        if (!diag_code_from_name(name, code)) {
            std::fprintf(stderr, "reduce: unknown diagnostic code '%s'\n",
                         name.c_str());
            return false;
        }
        check::CheckOptions copts = check_options(args);
        pred = [code, copts](const std::string& cand) {
            pipeline::CompilationOptions popts;
            popts.check = copts;
            pipeline::Compilation comp(popts);
            comp.load_text(cand, "reduce.svlc");
            comp.check();
            return comp.diags().has_code(code);
        };
        describe = "diagnostic " + name;
        return true;
    }
    fuzz::OracleSet set;
    if (!fuzz::parse_oracle_set(spec, set)) {
        std::fprintf(stderr, "reduce: unknown oracle '%s'\n", spec.c_str());
        return false;
    }
    fuzz::OracleConfig cfg;
    pred = [set, cfg](const std::string& cand) {
        return !fuzz::run_oracles(set, cand, cfg).empty();
    };
    describe = "oracle set " + spec;
    return true;
}

int cmd_reduce(const Args& args) {
    std::string source;
    if (!read_file(args.file, source)) {
        std::fprintf(stderr, "reduce: cannot read %s\n", args.file.c_str());
        return 1;
    }
    std::string spec = args.oracle;
    if (spec.empty()) {
        // Auto-detect: find which oracle the input fails.
        fuzz::OracleConfig cfg;
        auto findings =
            fuzz::run_oracles(fuzz::OracleSet::all(), source, cfg);
        if (findings.empty()) {
            std::fprintf(stderr,
                         "reduce: %s does not violate any oracle; pass "
                         "--oracle NAME or --oracle diag:CODE for a "
                         "different predicate\n",
                         args.file.c_str());
            return 1;
        }
        spec = fuzz::oracle_name(findings.front().oracle);
        std::fprintf(stderr, "reduce: input fails oracle %s\n",
                     spec.c_str());
    }
    std::function<bool(const std::string&)> pred;
    std::string describe;
    if (!reduce_predicate(args, spec, pred, describe))
        return 2;
    fuzz::ReduceResult res = fuzz::reduce_text(source, pred);
    if (res.text == source && !pred(source)) {
        std::fprintf(stderr,
                     "reduce: input does not reproduce %s; nothing to do\n",
                     describe.c_str());
        return 1;
    }
    std::fprintf(stderr, "reduce: %zu -> %zu bytes (%zu predicate runs)\n",
                 source.size(), res.text.size(), res.attempts);
    if (!args.outfile.empty()) {
        std::string err;
        if (!write_file_atomic(args.outfile, res.text, &err)) {
            std::fprintf(stderr, "reduce: %s\n", err.c_str());
            return 1;
        }
        std::fprintf(stderr, "reduce: wrote %s\n", args.outfile.c_str());
    } else {
        std::fputs(res.text.c_str(), stdout);
    }
    return 0;
}

int dispatch(const Args& args) {
    if (args.command == "check")
        return cmd_check(args);
    if (args.command == "serve")
        return cmd_serve(args);
    if (args.command == "client")
        return cmd_client(args);
    if (args.command == "coordinator")
        return cmd_coordinator(args);
    if (args.command == "worker")
        return cmd_worker(args);
    if (args.command == "batch")
        return cmd_batch(args);
    if (args.command == "watch")
        return cmd_watch(args);
    if (args.command == "diff-backends")
        return cmd_diff(args);
    if (args.command == "emit-verilog")
        return cmd_emit(args);
    if (args.command == "sim")
        return cmd_sim(args);
    if (args.command == "synth")
        return cmd_synth(args);
    if (args.command == "taint")
        return cmd_taint(args);
    if (args.command == "hunt")
        return cmd_hunt(args);
    if (args.command == "hunt-corpus")
        return cmd_hunt_corpus(args);
    if (args.command == "dump-cpu")
        return cmd_dump_cpu(args);
    if (args.command == "asm")
        return cmd_asm(args);
    if (args.command == "disasm")
        return cmd_disasm(args);
    if (args.command == "fuzz")
        return cmd_fuzz(args);
    if (args.command == "reduce")
        return cmd_reduce(args);
    return usage();
}

} // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args))
        return usage();
    try {
        return dispatch(args);
    } catch (const std::exception& e) {
        // Backstop for internal invariant violations (e.g. BitVecError):
        // a diagnostic and a distinct exit code instead of an abort.
        std::fprintf(stderr, "svlc: internal error: %s\n", e.what());
        return 3;
    }
}
