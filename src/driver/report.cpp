// Batch report rendering: JSON (for CI dashboards / the bench harness)
// and a deterministic human-readable summary.
#include "driver/driver.hpp"

#include "support/json.hpp"

#include <cstdio>

namespace svlc::driver {

size_t BatchReport::count(JobStatus s) const {
    size_t n = 0;
    for (const auto& r : results)
        n += r.status == s;
    return n;
}

bool BatchReport::all_ran() const {
    for (const auto& r : results)
        if (r.status == JobStatus::Error || r.status == JobStatus::Timeout)
            return false;
    return true;
}

size_t BatchReport::skipped_count() const {
    size_t n = 0;
    for (const auto& r : results)
        n += r.skipped;
    return n;
}

solver::EntailmentEngine::Stats BatchReport::solver_totals() const {
    solver::EntailmentEngine::Stats t;
    for (const auto& r : results) {
        t.queries += r.solver.queries;
        t.syntactic_hits += r.solver.syntactic_hits;
        t.enumerations += r.solver.enumerations;
        t.total_candidates += r.solver.total_candidates;
        t.conflicts += r.solver.conflicts;
        t.propagations += r.solver.propagations;
        t.learned_clauses += r.solver.learned_clauses;
        t.restarts += r.solver.restarts;
    }
    return t;
}

namespace {

void put_solver_stats(JsonWriter& w,
                      const solver::EntailmentEngine::Stats& s) {
    w.begin_object();
    w.kv("queries", s.queries);
    w.kv("syntactic_hits", s.syntactic_hits);
    w.kv("enumerations", s.enumerations);
    w.kv("candidates", s.total_candidates);
    // CDCL search telemetry; identically zero for the enum reference,
    // which enumerates instead of deciding/propagating.
    w.kv("conflicts", s.conflicts);
    w.kv("propagations", s.propagations);
    w.kv("learned_clauses", s.learned_clauses);
    w.kv("restarts", s.restarts);
    w.end_object();
}

} // namespace

std::string BatchReport::to_json(bool full) const {
    // `full` adds timings, store provenance and solver telemetry, which
    // depend on the machine and the store's history. With `full` off,
    // every emitted field is a verification verdict — invariant across
    // worker counts, store states, and runs.
    JsonWriter w;
    w.begin_object();
    w.kv("schema", "svlc-batch-report/v3");

    if (full) {
        w.key("config").begin_object();
        w.kv("workers", workers);
        w.kv("timeout_ms", timeout_ms);
        w.kv("solver", solver_backend);
        w.end_object();
    }

    w.key("jobs").begin_array();
    for (const auto& r : results) {
        w.begin_object();
        w.kv("name", r.name);
        w.kv("status", job_status_name(r.status));
        w.kv("obligations", r.obligations);
        w.kv("failed", r.failed);
        w.kv("downgrades", r.downgrades);
        w.kv("diagnostics", r.diagnostics);
        if (!r.flagged.empty()) {
            // Non-proven obligations with stable ids and witnesses. Part
            // of the stable subset: the records replay losslessly from
            // the store, so warm and cold runs still agree byte-for-byte
            // (solve_ms is run-dependent and only emitted with `full`).
            w.key("flagged").begin_array();
            for (const auto& rec : r.flagged)
                pipeline::write_obligation_record(w, rec, full);
            w.end_array();
        }
        if (full) {
            // Skip provenance and telemetry are store/scheduling state,
            // not verdicts, so they stay out of the stable subset —
            // warm (all-skipped) and cold runs must agree byte-for-byte
            // on to_json(false).
            if (r.skipped)
                w.kv("skipped", "fingerprint-hit");
            if (!r.fingerprint.empty())
                w.kv("fingerprint", r.fingerprint);
            w.kv("attempts", r.attempts);
            w.kv("obligations_replayed", r.obligations_replayed);
            w.kv("obligations_solved", r.obligations_solved);
            w.key("solver");
            put_solver_stats(w, r.solver);
            w.kv("wall_ms", r.wall_ms, 3);
            w.kv("cpu_ms", r.cpu_ms, 3);
        }
        w.end_object();
    }
    w.end_array();

    w.key("totals").begin_object();
    w.kv("jobs", results.size());
    w.kv("secure", count(JobStatus::Secure));
    w.kv("rejected", count(JobStatus::Rejected));
    w.kv("error", count(JobStatus::Error));
    w.kv("timeout", count(JobStatus::Timeout));
    if (full) {
        w.kv("skipped", skipped_count());
        size_t replayed = 0, solved = 0;
        for (const auto& r : results) {
            replayed += r.obligations_replayed;
            solved += r.obligations_solved;
        }
        w.kv("obligations_replayed", replayed);
        w.kv("obligations_solved", solved);
        w.key("solver");
        put_solver_stats(w, solver_totals());
    }
    w.end_object();

    if (full) {
        w.key("store").begin_object();
        w.kv("enabled", store_enabled);
        w.kv("hits", store.verdict_hits);
        w.kv("misses", store.verdict_misses);
        w.kv("stores", store.verdict_stores);
        w.kv("obligation_hits", store.obligation_hits);
        w.kv("obligation_misses", store.obligation_misses);
        w.kv("obligation_stores", store.obligation_stores);
        w.kv("corrupt_discarded", store.corrupt_discarded);
        w.kv("legacy_discarded", store.legacy_discarded);
        w.end_object();
        w.kv("wall_ms", wall_ms, 3);
    }
    w.end_object();
    std::string out = w.str();
    out += '\n';
    return out;
}

std::string BatchReport::summary() const {
    std::string out;
    char buf[256];
    for (const auto& r : results) {
        std::snprintf(buf, sizeof buf,
                      "%-10s %s: %zu obligations, %zu failed, %zu "
                      "downgrade site(s)\n",
                      job_status_name(r.status), r.name.c_str(),
                      r.obligations, r.failed, r.downgrades);
        out += buf;
    }
    auto totals = solver_totals();
    std::snprintf(buf, sizeof buf,
                  "batch: %zu job(s) — %zu secure, %zu rejected, %zu "
                  "error, %zu timeout\n",
                  results.size(), count(JobStatus::Secure),
                  count(JobStatus::Rejected), count(JobStatus::Error),
                  count(JobStatus::Timeout));
    out += buf;
    // Worker-count-invariant only without a store: replayed obligations
    // never reach the solver, so with a store this line depends on the
    // store's history.
    // Enumeration and search counters go to stderr and full JSON.
    std::snprintf(buf, sizeof buf, "solver: %llu queries, %llu syntactic\n",
                  static_cast<unsigned long long>(totals.queries),
                  static_cast<unsigned long long>(totals.syntactic_hits));
    out += buf;
    return out;
}

} // namespace svlc::driver
