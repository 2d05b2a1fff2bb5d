#include "workloads.hpp"

#include "inputs.hpp"

#include "check/typecheck.hpp"
#include "driver/driver.hpp"
#include "hunt/hunter.hpp"
#include "incr/fingerprint.hpp"
#include "incr/replay.hpp"
#include "incr/store.hpp"
#include "parse/parser.hpp"
#include "pipeline/compilation.hpp"
#include "sem/elaborate.hpp"
#include "sem/wellformed.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <list>
#include <memory>
#include <optional>
#include <thread>

namespace e2e {

namespace fs = std::filesystem;
using namespace svlc;

namespace {

/// An op slower than this counts as failed (a timeout).
constexpr double kOpTimeoutMs = 10000;
/// Failed ops described on stderr, at most.
constexpr size_t kMaxFailureNotes = 5;

/// Every workload pins the cdcl backend and leaves every other option
/// at the default a user gets from the CLI.
check::CheckOptions cdcl_check_options() {
    check::CheckOptions opts;
    opts.solver.backend = solver::BackendKind::Cdcl;
    return opts;
}

pipeline::CompilationOptions cdcl_compilation(const std::string& top = "") {
    pipeline::CompilationOptions opts;
    opts.top = top;
    opts.check = cdcl_check_options();
    return opts;
}

Expect expectation(const RunConfig& cfg, const std::string& name,
                   Expect e) {
    if (!cfg.wrong_expectation.empty() && name == cfg.wrong_expectation)
        ++e.failed;
    return e;
}

double solve_ms(const check::CheckResult& res) {
    double ms = 0;
    for (const check::Obligation& ob : res.obligations)
        ms += ob.solve_ms;
    return ms;
}

void add_solver_stats(LayerSums& s, const solver::EntailmentEngine::Stats& st) {
    s.queries += st.queries;
    s.syntactic_hits += st.syntactic_hits;
    s.enumerations += st.enumerations;
    s.candidates += st.total_candidates;
    s.conflicts += st.conflicts;
    s.cache_hits += st.cache_hits;
    s.cache_misses += st.cache_misses;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A fresh private directory under `root`, removed on destruction.
class TempDir {
public:
    explicit TempDir(const std::string& root) {
        std::error_code ec;
        fs::create_directories(root, ec);
        std::string tmpl = root + "/run-XXXXXX";
        if (char* p = ::mkdtemp(tmpl.data()))
            path_ = p;
    }
    ~TempDir() {
        if (!path_.empty()) {
            std::error_code ec;
            fs::remove_all(path_, ec);
        }
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    [[nodiscard]] bool ok() const { return !path_.empty(); }
    [[nodiscard]] const std::string& path() const { return path_; }

private:
    std::string path_;
};

/// Moves the calling thread to the next CPU of its affinity mask; the
/// mask is restored on destruction. On a VM the vCPUs do not run at one
/// speed: while the host runs other work next to a vCPU (most likely on
/// its sibling hyperthread), that vCPU is about 1.4x slower for tens of
/// seconds. A single-threaded
/// loop stays on one vCPU, so a run would report that vCPU's state;
/// moving every op to the next CPU makes each run see the mean of all of
/// them.
class CpuRotor {
public:
    CpuRotor() {
        if (pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_))
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &saved_))
                cpus_.push_back(c);
    }
    ~CpuRotor() {
        if (!cpus_.empty())
            pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
    }
    CpuRotor(const CpuRotor&) = delete;
    CpuRotor& operator=(const CpuRotor&) = delete;

    void next() {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    }

private:
    cpu_set_t saved_{};
    std::vector<int> cpus_;
    size_t next_ = 0;
};

/// A trace run traces whole blocks of this many ops (a cold-check round,
/// an edit-loop visit), each picked by a seeded coin: no block position
/// or buffer is always traced, so traced and untraced ops see the same
/// mix.
constexpr uint64_t kTraceBlock = 4;

/// Runs `op(index, tracer_or_null, latency_ms, why)` in a closed loop for
/// cfg.seconds. In a trace run about half the ops are traced; the
/// untraced ones give the latencies the tracing overhead is measured
/// against.
template <class Op>
void closed_loop(const RunConfig& cfg, Tracer& tracer, Outcome& out,
                 Op&& op) {
    Rng coin(cfg.seed ^ 0x7ace7aceull);
    bool traced = false;
    Clock::time_point start = Clock::now();
    Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.seconds));
    for (uint64_t i = 0; Clock::now() < stop; ++i) {
        if (i % kTraceBlock == 0)
            traced = cfg.trace && coin.below(2) == 1;
        double ms = 0;
        std::string why;
        bool ok = op(i, traced ? &tracer : nullptr, ms, why);
        if (ok && ms > kOpTimeoutMs) {
            ok = false;
            why = "timed out";
        }
        ++out.attempted;
        if (!ok) {
            ++out.failed;
            if (out.failures.size() < kMaxFailureNotes)
                out.failures.push_back("op " + std::to_string(i) + ": " +
                                       why);
        }
        (traced ? out.traced_latency_ms : out.latency_ms).push_back(ms);
    }
    out.measured_s =
        std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs set-up cfg.setup_repeats times (at least once), recording each
/// duration; `setup(last)` builds the state the timed phase uses when
/// `last` is set. Returns false when any repetition fails.
template <class Setup>
bool repeated_setup(const RunConfig& cfg, Outcome& out, Setup&& setup) {
    int reps = std::max(1, cfg.setup_repeats);
    for (int r = 0; r < reps; ++r) {
        Clock::time_point t0 = Clock::now();
        if (!setup(r + 1 == reps))
            return false;
        out.setup_s.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return true;
}

/// The front end run phase by phase through its public functions, each
/// in its own span: gives parse and sem their split, which the
/// pipeline::Compilation facade runs as one call.
void front_probe(Tracer* t, const std::string& text, const std::string& name,
                 const std::string& top, LayerSums& sums) {
    Scope root(t, "probe");
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    ast::CompilationUnit unit;
    {
        Scope s(t, "parse");
        unit = Parser::parse_text(text, sm, diags, name);
    }
    std::unique_ptr<hir::Design> design;
    {
        Scope s(t, "sem.elaborate");
        sem::ElaborateOptions eopts;
        eopts.top = top;
        design = sem::elaborate(unit, diags, eopts);
    }
    if (design) {
        Scope s(t, "sem.wellformed");
        sem::analyze_wellformed(*design, diags);
        sums.nets += design->nets.size();
    }
    sums.parsed_bytes += text.size();
}

/// Per-layer metrics common to every workload, as means per traced op.
void common_layers(const Tracer& tracer, const LayerSums& s,
                   const Outcome& out, std::map<std::string, double>& m) {
    auto totals = tracer.totals();
    double n = static_cast<double>(out.traced_latency_ms.size());
    auto self = [&](const char* name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : ratio(it->second.self_ms, n);
    };
    auto per_op = [&](uint64_t v) { return ratio(static_cast<double>(v), n); };
    m["parse.ms"] = self("parse");
    m["parse.mb_per_s"] =
        ratio(static_cast<double>(s.parsed_bytes) / 1e6,
              totals["parse"].self_ms / 1e3);
    m["sem.elaborate_ms"] = self("sem.elaborate");
    m["sem.wellformed_ms"] = self("sem.wellformed");
    m["sem.nets"] = per_op(s.nets);
    m["pipeline.elaborate_ms"] = self("pipeline.elaborate");
    m["pipeline.render_ms"] = self("pipeline.render");
    m["check.walk_ms"] = self("check");
    m["check.obligations"] = per_op(s.obligations);
    m["solver.ms"] = self("solver");
    m["solver.queries"] = per_op(s.queries);
    m["solver.syntactic_hit_ratio"] =
        ratio(static_cast<double>(s.syntactic_hits),
              static_cast<double>(s.queries));
    m["solver.enumerations"] = per_op(s.enumerations);
    m["solver.candidates"] = per_op(s.candidates);
    m["solver.conflicts"] = per_op(s.conflicts);
    m["solver.cache_hit_ratio"] =
        ratio(static_cast<double>(s.cache_hits),
              static_cast<double>(s.cache_hits + s.cache_misses));
    m["incr.replay_ms"] = self("incr.replay");
    m["incr.record_ms"] = self("incr.record");
    m["incr.job_fingerprint_ms"] = self("incr.job_fingerprint");
    m["hunt.ms"] = self("hunt");
    m["hunt.states"] = per_op(s.hunt_states);
    m["hunt.states_per_s"] = ratio(static_cast<double>(s.hunt_states),
                                   totals["hunt"].self_ms / 1e3);
    m["hunt.unconfirmed"] = per_op(s.hunt_unconfirmed);
    const Tracer::Totals& op = totals["op"];
    m["trace.other_ms"] = ratio(op.self_ms, n);
    m["trace.covered_ratio"] = 1.0 - ratio(op.self_ms, op.dur_ms);
    double untraced = percentile(out.latency_ms, 0.5);
    m["trace.overhead_ratio"] =
        untraced > 0 ? percentile(out.traced_latency_ms, 0.5) / untraced - 1.0
                     : 0.0;
}

} // namespace

double percentile(std::vector<double> v, double q) {
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// cold-check: `svlc check --solver cdcl` on one of the four CPUs per op,
// in seeded order, on one thread, with no cache and no store.
// ---------------------------------------------------------------------------

Outcome run_cold_check(const RunConfig& cfg, Tracer& tracer) {
    Outcome out;
    std::vector<CpuInput> cpus;
    Rng rng(cfg.seed);
    std::vector<size_t> round;

    // One op: a fresh Compilation, check, and the three renderings the
    // CLI prints. Returns the verdict check; `sums` gets the counters.
    auto check_one = [&](const CpuInput& cpu, Tracer* t, double& ms,
                         std::string& why, LayerSums& sums) {
        Clock::time_point t0 = Clock::now();
        bool ok = false;
        {
            Scope op(t, "op");
            pipeline::Compilation comp(cdcl_compilation());
            comp.load_text(cpu.source, cpu.name + ".svlc");
            {
                Scope s(t, "pipeline.elaborate");
                comp.elaborate();
            }
            const check::CheckResult* res = nullptr;
            {
                Scope s(t, "check");
                res = comp.check();
                if (t && res)
                    t->child("solver", solve_ms(*res));
            }
            if (!res) {
                why = cpu.name + ": did not elaborate";
                return false;
            }
            std::string diags, human, report;
            {
                Scope s(t, "pipeline.render");
                diags = comp.render_diagnostics();
                human = pipeline::check_human_summary(comp, *res);
                report = pipeline::check_report_json(comp, *res,
                                                     cpu.name + ".svlc");
            }
            std::string status = res->ok ? "secure" : "rejected";
            ok = verdict_ok(expectation(cfg, cpu.name, cpu.expect), status,
                            res->failed, res->obligations.size(), why);
            if (ok && (human.rfind(res->ok ? "SECURE" : "REJECTED", 0) != 0 ||
                       report.find("\"" + status + "\"") == std::string::npos)) {
                ok = false;
                why = "rendered outputs disagree with the verdict";
            }
            if (!ok)
                why = cpu.name + ": " + why;
            sums.obligations += res->obligations.size();
            add_solver_stats(sums, res->solver_stats);
        }
        ms = ms_between(t0, Clock::now());
        return ok;
    };

    LayerSums counts;
    bool setup_ok = repeated_setup(cfg, out, [&](bool last) {
        cpus = cpu_inputs();
        // Warm-up and count pass: each CPU once, in table order.
        LayerSums pass;
        for (const CpuInput& cpu : cpus) {
            double ms = 0;
            std::string why;
            if (!check_one(cpu, nullptr, ms, why, pass) &&
                cfg.wrong_expectation.empty()) {
                out.setup_error = why;
                return false;
            }
        }
        if (last)
            counts = pass;
        return true;
    });
    if (!setup_ok)
        return out;
    out.counts = {{"obligations", counts.obligations},
                  {"enumerations", counts.enumerations},
                  {"candidates", counts.candidates},
                  {"conflicts", counts.conflicts}};
    if (cfg.seconds <= 0)
        return out;

    LayerSums sums;
    CpuRotor rotor;
    closed_loop(cfg, tracer, out,
                [&](uint64_t i, Tracer* t, double& ms, std::string& why) {
                    rotor.next();
                    // Seeded order: each round of four is a permutation.
                    if (i % 4 == 0) {
                        round = {0, 1, 2, 3};
                        rng.shuffle(round);
                    }
                    const CpuInput& cpu = cpus[round[i % 4]];
                    LayerSums scratch;
                    bool ok = check_one(cpu, t, ms, why, t ? sums : scratch);
                    if (t)
                        front_probe(t, cpu.source, cpu.name + ".svlc", "",
                                    sums);
                    return ok;
                });
    if (cfg.trace)
        common_layers(tracer, sums, out, out.layers);
    return out;
}

// ---------------------------------------------------------------------------
// batch-corpus: one VerificationDriver::run over the seeded corpus per op,
// on a fresh driver with default options and a fixed worker count.
// ---------------------------------------------------------------------------

namespace {

/// Elaborates a hunt job and runs the hunter on it in a "hunt" span, with
/// the options driver::hunt_text uses.
void hunt_probe(Tracer* t, const driver::JobSpec& spec, LayerSums& sums) {
    Scope root(t, "probe");
    pipeline::Compilation comp(cdcl_compilation(spec.top));
    comp.load_text(spec.source, spec.name);
    if (!comp.elaborate())
        return;
    hunt::HuntOptions hopts;
    hopts.depth = spec.hunt_depth;
    hunt::HuntResult hr;
    {
        Scope s(t, "hunt");
        hr = hunt::hunt(*comp.design(), hopts);
    }
    sums.hunt_states += hr.states_explored;
    sums.hunt_unconfirmed += hr.unconfirmed_candidates;
}

} // namespace

Outcome run_batch_corpus(const RunConfig& cfg, Tracer& tracer) {
    Outcome out;
    std::vector<BatchJob> corpus;
    std::vector<driver::JobSpec> specs;

    // One batch on a fresh driver. `idle` gets the pool's idle share.
    auto run_batch = [&](size_t workers, Tracer* t, double& ms,
                         std::string& why, LayerSums& sums, double& idle) {
        driver::DriverOptions dopts;
        dopts.jobs = workers;
        dopts.check = cdcl_check_options();
        Clock::time_point t0 = Clock::now();
        driver::BatchReport report;
        {
            Scope op(t, "op");
            Scope s(t, "driver.run");
            driver::VerificationDriver drv(dopts);
            report = drv.run(specs);
        }
        ms = ms_between(t0, Clock::now());
        if (report.results.size() != corpus.size()) {
            why = "batch returned " + std::to_string(report.results.size()) +
                  " results for " + std::to_string(corpus.size()) + " jobs";
            return false;
        }
        bool ok = true;
        double busy_ms = 0;
        for (size_t j = 0; j < corpus.size(); ++j) {
            const driver::JobResult& res = report.results[j];
            std::string job_why;
            if (!batch_result_ok(corpus[j], res, job_why)) {
                if (ok)
                    why = corpus[j].spec.name + ": " + job_why;
                ok = false;
            }
            busy_ms += res.wall_ms;
            sums.obligations += res.obligations;
        }
        add_solver_stats(sums, report.solver_totals());
        idle = 1.0 - ratio(busy_ms, static_cast<double>(report.workers) *
                                        report.wall_ms);
        return ok;
    };

    LayerSums counts;
    bool setup_ok = repeated_setup(cfg, out, [&](bool last) {
        std::string error;
        if (!batch_corpus(cfg.seed, cfg.hdl_dir, corpus, error)) {
            out.setup_error = error;
            return false;
        }
        specs.clear();
        for (const BatchJob& job : corpus)
            specs.push_back(job.spec);
        // Count pass on one worker, so cache hits (and with them the
        // enumeration counts) do not depend on thread timing; then a
        // warm-up batch on the timed configuration.
        LayerSums pass;
        double ms = 0, idle = 0;
        std::string why;
        bool ok = run_batch(1, nullptr, ms, why, pass, idle);
        for (const BatchJob& job : corpus)
            if (job.spec.hunt_depth)
                hunt_probe(nullptr, job.spec, pass);
        LayerSums warm;
        ok = run_batch(cfg.batch_workers, nullptr, ms, why, warm, idle) && ok;
        if (!ok) {
            out.setup_error = why;
            return false;
        }
        if (last)
            counts = pass;
        return true;
    });
    if (!setup_ok)
        return out;
    out.counts = {{"jobs", corpus.size()},
                  {"obligations", counts.obligations},
                  {"enumerations", counts.enumerations},
                  {"candidates", counts.candidates},
                  {"conflicts", counts.conflicts},
                  {"hunt_states", counts.hunt_states}};
    if (cfg.seconds <= 0)
        return out;

    LayerSums sums;
    double idle_sum = 0;
    closed_loop(cfg, tracer, out,
                [&](uint64_t, Tracer* t, double& ms, std::string& why) {
                    LayerSums scratch;
                    double idle = 0;
                    bool ok = run_batch(cfg.batch_workers, t, ms, why,
                                        t ? sums : scratch, idle);
                    if (t) {
                        idle_sum += idle;
                        for (const BatchJob& job : corpus) {
                            if (job.spec.hunt_depth)
                                hunt_probe(t, job.spec, sums);
                            else
                                front_probe(t, job.spec.source,
                                            job.spec.name, job.spec.top,
                                            sums);
                        }
                    }
                    return ok;
                });
    if (cfg.trace) {
        common_layers(tracer, sums, out, out.layers);
        out.layers["driver.idle_ratio"] =
            ratio(idle_sum, static_cast<double>(out.traced_latency_ms.size()));
    }
    return out;
}

// ---------------------------------------------------------------------------
// edit-loop: an in-process serve::Server on its own thread with a fresh
// store; one client sends a seeded closed loop of didChange requests.
// ---------------------------------------------------------------------------

namespace {

enum class EditKind { Resend, Comment, Flip };

/// The editor: which buffer has focus, each buffer's twin and revision,
/// and the seeded stream of edits.
class Editor {
public:
    explicit Editor(uint64_t seed)
        : docs_(edit_docs(seed)), planted_(docs_.size()),
          rev_(docs_.size(), 0), rng_(seed) {
        for (size_t d = 0; d < docs_.size(); ++d) {
            planted_[d] = rng_.below(2) == 1;
            order_.push_back(d);
        }
        rng_.shuffle(order_);
    }

    [[nodiscard]] size_t size() const { return docs_.size(); }
    [[nodiscard]] const EditDoc& doc(size_t d) const { return docs_[d]; }
    [[nodiscard]] size_t focus() const { return focus_; }

    void flip(size_t d) { planted_[d] = !planted_[d]; }

    /// Advances the stream by one edit. The stream is a series of visits:
    /// a switch to the next buffer of a seeded cyclic order, then a
    /// resend, a comment edit and a flip in seeded order. Every buffer
    /// gets the same edits per cycle, so only their order depends on the
    /// seed.
    void next() {
        if (block_.empty()) {
            pos_ = (pos_ + 1) % order_.size();
            focus_ = order_[pos_];
            block_ = {EditKind::Resend, EditKind::Comment, EditKind::Flip};
            rng_.shuffle(block_);
            return;
        }
        EditKind kind = block_.back();
        block_.pop_back();
        if (kind == EditKind::Comment)
            rev_[focus_] = ++revs_;
        else if (kind == EditKind::Flip)
            flip(focus_);
    }

    /// Edits in one full cycle over every buffer.
    [[nodiscard]] size_t cycle_length() const { return 4 * docs_.size(); }

    [[nodiscard]] std::string text(size_t d) const {
        std::string t = planted_[d] ? docs_[d].planted : docs_[d].clean;
        if (rev_[d])
            t += "// rev " + std::to_string(rev_[d]) + "\n";
        return t;
    }
    [[nodiscard]] const Expect& expect(size_t d) const {
        return planted_[d] ? docs_[d].planted_expect : docs_[d].clean_expect;
    }

private:
    std::vector<EditDoc> docs_;
    std::vector<bool> planted_;
    std::vector<uint64_t> rev_;
    std::vector<size_t> order_;
    std::vector<EditKind> block_;
    Rng rng_;
    size_t focus_ = 0;
    size_t pos_ = 0;
    uint64_t revs_ = 0;
};

/// Times the store's obligation replayer through the public
/// check::ObligationOracle interface.
class TimedReplayer final : public check::ObligationOracle {
public:
    TimedReplayer(incr::ArtifactStore& store, const hir::Design& design,
                  const check::CheckOptions& opts)
        : inner_(store, design, opts) {}

    bool replay(const check::ObligationContext& ctx,
                solver::EntailResult& out) override {
        Clock::time_point t0 = Clock::now();
        bool hit = inner_.replay(ctx, out);
        replay_ms += ms_between(t0, Clock::now());
        return hit;
    }
    void record(const check::ObligationContext& ctx,
                const solver::EntailResult& result) override {
        Clock::time_point t0 = Clock::now();
        inner_.record(ctx, result);
        record_ms += ms_between(t0, Clock::now());
    }

    double replay_ms = 0;
    double record_ms = 0;

private:
    incr::ObligationReplayer inner_;
};

/// The in-process twin of the daemon's verify path (driver::verify_text
/// on a session Compilation), on its own store and entailment cache: the
/// job fingerprint, elaborate, check with the obligation replayer, and
/// the three renderings. It is told of every request, so its store, cache
/// and session LRU see the same history as the daemon's.
class Twin {
public:
    explicit Twin(const std::string& store_dir)
        : cache_(serve::ServeOptions{}.cache_capacity),
          store_(incr::StoreOptions{store_dir}) {}

    bool open(std::string& error) { return store_.open(error); }

    /// A session hit: the daemon only moves the buffer's session to the
    /// front of its LRU.
    void touch(const std::string& name) {
        for (auto it = sessions_.begin(); it != sessions_.end(); ++it)
            if (it->first == name) {
                sessions_.splice(sessions_.begin(), sessions_, it);
                return;
            }
    }

    /// A re-verify. Returns the twin's wall time in ms.
    double verify(const EditDoc& doc, const std::string& text, Tracer* t) {
        Clock::time_point t0 = Clock::now();
        {
            Scope root(t, "twin");
            check::CheckOptions copts = cdcl_check_options();
            {
                Scope s(t, "incr.job_fingerprint");
                incr::job_fingerprint(doc.name, text, doc.top, copts);
            }
            pipeline::Compilation& comp = session(doc);
            comp.options().check.solver.cache = &cache_;
            {
                Scope s(t, "pipeline.elaborate");
                comp.reload_text(text, doc.name);
                if (!comp.elaborate())
                    return ms_between(t0, Clock::now());
            }
            TimedReplayer oracle(store_, *comp.design(),
                                 comp.options().check);
            comp.options().check.oracle = &oracle;
            const check::CheckResult* res = nullptr;
            {
                Scope s(t, "check");
                res = comp.check();
                if (t) {
                    t->child("solver", solve_ms(*res));
                    t->child("incr.replay", oracle.replay_ms);
                    t->child("incr.record", oracle.record_ms);
                }
            }
            comp.options().check.oracle = nullptr;
            {
                Scope s(t, "pipeline.render");
                std::string diags = comp.render_diagnostics();
                std::string human = pipeline::check_human_summary(comp, *res);
                std::string report =
                    pipeline::check_report_json(comp, *res, doc.name);
            }
        }
        return ms_between(t0, Clock::now());
    }

private:
    /// The buffer's Compilation, kept like the daemon's sessions: most
    /// recent first, the oldest dropped beyond the default session count.
    pipeline::Compilation& session(const EditDoc& doc) {
        touch(doc.name);
        if (sessions_.empty() || sessions_.front().first != doc.name) {
            sessions_.emplace_front(doc.name,
                                    std::make_unique<pipeline::Compilation>(
                                        cdcl_compilation(doc.top)));
            while (sessions_.size() > serve::ServeOptions{}.max_sessions)
                sessions_.pop_back();
        }
        return *sessions_.front().second;
    }

    solver::EntailCache cache_;
    incr::ArtifactStore store_;
    std::list<std::pair<std::string, std::unique_ptr<pipeline::Compilation>>>
        sessions_;
};

/// Daemon on a thread plus one client connection, in a private temp dir
/// (socket, store, twin store) removed on destruction.
class EditRig {
public:
    EditRig(const RunConfig& cfg, std::string& error) : dir_(cfg.tmp_root) {
        if (!dir_.ok()) {
            error = "cannot create a temp dir under " + cfg.tmp_root;
            return;
        }
        serve::ServeOptions opts;
        opts.socket_path = dir_.path() + "/serve.sock";
        opts.store_dir = dir_.path() + "/store";
        opts.default_check = cdcl_check_options();
        opts.install_signal_handlers = false;
        server_ = std::make_unique<serve::Server>(opts);
        if (!server_->start(error)) {
            server_.reset();
            return;
        }
        thread_ = std::thread([this] { server_->run(); });
        client_ = serve::Client::connect(opts.socket_path, error);
        twin_ = std::make_unique<Twin>(dir_.path() + "/twin-store");
        if (client_ && twin_->open(error))
            ready_ = true;
    }
    ~EditRig() {
        client_.reset();
        if (server_) {
            server_->request_stop();
            thread_.join();
        }
    }
    EditRig(const EditRig&) = delete;
    EditRig& operator=(const EditRig&) = delete;

    [[nodiscard]] bool ready() const { return ready_; }
    [[nodiscard]] serve::Client& client() { return *client_; }
    [[nodiscard]] Twin& twin() { return *twin_; }
    [[nodiscard]] std::string store_dir() const {
        return dir_.path() + "/store";
    }

private:
    TempDir dir_;
    std::unique_ptr<serve::Server> server_;
    std::thread thread_;
    std::optional<serve::Client> client_;
    std::unique_ptr<Twin> twin_;
    bool ready_ = false;
};

struct ServeCounters {
    uint64_t verifies = 0;
    uint64_t session_hits = 0;
    uint64_t evicted = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
};

bool serve_status(serve::Client& client, ServeCounters& c) {
    serve::RpcMessage resp;
    std::string error;
    if (!client.call("status", JsonValue::object(), resp, error) ||
        resp.has_error)
        return false;
    if (const JsonValue* st = resp.result.find("stats")) {
        c.verifies = st->get_uint("verifies");
        c.session_hits = st->get_uint("session_hits");
        c.evicted = st->get_uint("sessions_evicted");
    }
    if (const JsonValue* cache = resp.result.find("cache")) {
        c.cache_hits = cache->get_uint("hits");
        c.cache_misses = cache->get_uint("misses");
    }
    return true;
}

uint64_t dir_bytes(const std::string& dir) {
    uint64_t bytes = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec))
        if (it->is_regular_file(ec))
            bytes += it->file_size(ec);
    return bytes;
}

/// Solver counters from the daemon's `svlc check --stats` line.
void add_stats_line(LayerSums& s, const std::string& line) {
    unsigned long long q = 0, syn = 0, en = 0, cand = 0, conf = 0;
    if (std::sscanf(line.c_str(),
                    "solver stats: %llu queries, %llu syntactic hits, %llu "
                    "enumerations, %llu candidates",
                    &q, &syn, &en, &cand) == 4) {
        s.queries += q;
        s.syntactic_hits += syn;
        s.enumerations += en;
        s.candidates += cand;
    }
    size_t at = line.find("solver search: ");
    if (at != std::string::npos &&
        std::sscanf(line.c_str() + at, "solver search: %llu conflicts",
                    &conf) == 1)
        s.conflicts += conf;
}

/// One didChange round trip, the pushed diagnostics included, checked
/// against the expectation of the buffer's current twin.
struct EditResult {
    bool ok = false;
    bool cached = false;
    double ms = 0;
};

EditResult send_edit(EditRig& rig, const Editor& ed, size_t d,
                     const std::string& text, Tracer* t, std::string& why,
                     LayerSums& sums) {
    const EditDoc& doc = ed.doc(d);
    JsonValue params = JsonValue::object();
    params.set("name", JsonValue(doc.name));
    params.set("source", JsonValue(text));
    if (!doc.top.empty())
        params.set("top", JsonValue(doc.top));
    EditResult r;
    serve::RpcMessage resp;
    std::vector<serve::RpcMessage> pushed;
    std::string error;
    Clock::time_point t0 = Clock::now();
    bool sent;
    {
        Scope op(t, "op");
        Scope s(t, "serve.didChange");
        sent = rig.client().call("didChange", params, resp, error, &pushed);
    }
    r.ms = ms_between(t0, Clock::now());
    if (!sent || resp.has_error) {
        why = doc.name + ": " + (sent ? resp.error_message : error);
        return r;
    }
    const JsonValue& res = resp.result;
    r.cached = res.get_bool("cached");
    bool pushed_ok = false;
    for (const serve::RpcMessage& m : pushed)
        if (m.method == "svlc/publishDiagnostics" &&
            m.params.get_string("name") == doc.name)
            pushed_ok = true;
    r.ok = verdict_ok(ed.expect(d), res.get_string("status"),
                      res.get_uint("failed"), res.get_uint("obligations"),
                      why);
    if (r.ok && !pushed_ok) {
        r.ok = false;
        why = "no diagnostics pushed";
    }
    if (!r.ok)
        why = doc.name + ": " + why;
    if (r.cached) {
        ++sums.session_hits;
    } else {
        sums.obligations += res.get_uint("obligations");
        sums.replayed += res.get_uint("obligations_replayed");
        sums.solved += res.get_uint("obligations_solved");
        add_stats_line(sums, res.get_string("stats_line"));
    }
    return r;
}

} // namespace

Outcome run_edit_loop(const RunConfig& cfg, Tracer& tracer) {
    Outcome out;
    std::unique_ptr<EditRig> rig;
    std::unique_ptr<Editor> ed;
    // The twin is told of every request, traced or not, so its store,
    // cache and sessions keep the daemon's history; it only runs in trace
    // runs.
    auto mirror = [&](const EditResult& r, size_t d, const std::string& text,
                      Tracer* t) {
        if (!cfg.trace)
            return 0.0;
        if (r.cached) {
            rig->twin().touch(ed->doc(d).name);
            return 0.0;
        }
        return rig->twin().verify(ed->doc(d), text, t);
    };

    LayerSums counts;
    bool setup_ok = repeated_setup(cfg, out, [&](bool last) {
        rig.reset();
        std::string error;
        rig = std::make_unique<EditRig>(cfg, error);
        if (!rig->ready()) {
            out.setup_error = "serve: " + error;
            return false;
        }
        ed = std::make_unique<Editor>(cfg.seed);
        // Store priming: every buffer in its initial twin, flipped, and
        // flipped back.
        LayerSums pass;
        bool ok = true;
        std::string why;
        auto edit = [&](size_t d) {
            std::string text = ed->text(d);
            std::string w;
            EditResult r = send_edit(*rig, *ed, d, text, nullptr, w, pass);
            mirror(r, d, text, nullptr);
            if (!r.ok && ok) {
                ok = false;
                why = w;
            }
        };
        for (size_t d = 0; d < ed->size(); ++d) {
            edit(d);
            ed->flip(d);
            edit(d);
            ed->flip(d);
            edit(d);
        }
        // Count pass: the first cycle of the seeded stream.
        for (size_t i = 0; i < ed->cycle_length(); ++i) {
            ed->next();
            edit(ed->focus());
        }
        if (!ok) {
            out.setup_error = why;
            return false;
        }
        if (last)
            counts = pass;
        return true;
    });
    if (!setup_ok)
        return out;
    out.counts = {{"requests", 3 * ed->size() + ed->cycle_length()},
                  {"session_hits", counts.session_hits},
                  {"obligations", counts.obligations},
                  {"replayed", counts.replayed},
                  {"solved", counts.solved},
                  {"enumerations", counts.enumerations},
                  {"candidates", counts.candidates},
                  {"conflicts", counts.conflicts}};
    if (cfg.seconds <= 0)
        return out;

    ServeCounters before, after;
    if (!serve_status(rig->client(), before)) {
        out.setup_error = "serve: status failed";
        return out;
    }
    LayerSums sums;
    double status_ms = 0, overhead_ms = 0;
    uint64_t status_calls = 0, twins = 0;
    closed_loop(cfg, tracer, out,
                [&](uint64_t, Tracer* t, double& ms, std::string& why) {
                    ed->next();
                    size_t d = ed->focus();
                    std::string text = ed->text(d);
                    LayerSums scratch;
                    LayerSums& s = t ? sums : scratch;
                    EditResult r = send_edit(*rig, *ed, d, text, t, why, s);
                    ms = r.ms;
                    double twin_ms = mirror(r, d, text, t);
                    if (t) {
                        if (!r.cached) {
                            overhead_ms += r.ms - twin_ms;
                            ++twins;
                            front_probe(t, text, ed->doc(d).name,
                                        ed->doc(d).top, s);
                        }
                        Clock::time_point t0 = Clock::now();
                        ServeCounters ignored;
                        Scope st(t, "serve.status");
                        if (serve_status(rig->client(), ignored)) {
                            status_ms += ms_between(t0, Clock::now());
                            ++status_calls;
                        }
                    }
                    return r.ok;
                });
    bool status_ok = serve_status(rig->client(), after);
    if (cfg.trace) {
        common_layers(tracer, sums, out, out.layers);
        std::map<std::string, double>& m = out.layers;
        m["serve.status_rtt_ms"] =
            ratio(status_ms, static_cast<double>(status_calls));
        m["serve.overhead_ms"] = ratio(overhead_ms, static_cast<double>(twins));
        m["incr.replayed_ratio"] =
            ratio(static_cast<double>(sums.replayed),
                  static_cast<double>(sums.obligations));
        m["incr.store_bytes"] = static_cast<double>(dir_bytes(rig->store_dir()));
        if (status_ok) {
            double hits = static_cast<double>(after.session_hits -
                                              before.session_hits);
            double verifies =
                static_cast<double>(after.verifies - before.verifies);
            double requests = static_cast<double>(out.attempted);
            m["serve.session_hit_ratio"] = ratio(hits, hits + verifies);
            m["serve.evictions"] =
                ratio(static_cast<double>(after.evicted - before.evicted),
                      requests);
            m["solver.cache_hit_ratio"] = ratio(
                static_cast<double>(after.cache_hits - before.cache_hits),
                static_cast<double>(after.cache_hits + after.cache_misses -
                                    before.cache_hits - before.cache_misses));
        }
    }
    return out;
}

} // namespace e2e
