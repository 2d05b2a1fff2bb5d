// Batch-verification driver: runs the full parse → elaborate →
// well-formedness → typecheck pipeline over a *set* of jobs on a worker
// thread pool.
//
// Design points:
//   * Deterministic aggregation — results land in input order regardless
//     of which worker finishes first, so a batch's report is
//     byte-identical for --jobs 1 and --jobs 8.
//   * Per-job isolation — each job owns its SourceManager, diagnostics,
//     design, and entailment engine; the only shared state is the
//     optional persistent store. A cooperative per-job deadline cuts off
//     enumeration blow-ups so one pathological design cannot stall the
//     batch.
//   * Retry-once — a job that throws (OOM, filesystem race) is retried
//     one time before being reported as an error.
#pragma once

#include "check/typecheck.hpp"
#include "incr/store.hpp"
#include "pipeline/compilation.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace svlc::driver {

struct JobSpec {
    /// Display name (file path, or "builtin:<variant>").
    std::string name;
    /// File to read; empty when `source` carries the text directly.
    std::string path;
    /// Inline source text (builtins and tests).
    std::string source;
    /// Top module override; empty = auto-detect.
    std::string top;
    /// Per-job deadline override in milliseconds; 0 = use the driver's
    /// DriverOptions::timeout_ms.
    uint64_t timeout_ms = 0;
    /// Non-zero turns this into a *hunt* job: instead of the static
    /// checker, run the bounded symbolic leak hunter (src/hunt) to this
    /// depth. Hunt jobs bypass the verdict store — their outcome depends
    /// on search parameters the job fingerprint does not cover.
    uint64_t hunt_depth = 0;
};

enum class JobStatus {
    Secure,   ///< type-checked, no failing obligations
    Rejected, ///< flow violations (or structural errors) reported
    Error,    ///< could not run: unreadable file, exception (after retry)
    Timeout,  ///< gave up at the per-job deadline
};

const char* job_status_name(JobStatus s);

struct JobResult {
    std::string name;
    JobStatus status = JobStatus::Error;
    /// Verdict replayed from the persistent store (fingerprint hit); the
    /// job was not parsed, elaborated, or checked this run.
    bool skipped = false;
    /// Job fingerprint (64 hex chars) when a store is configured.
    std::string fingerprint;
    int attempts = 1;
    size_t obligations = 0;
    size_t failed = 0;
    size_t downgrades = 0;
    /// Per-obligation records for every non-proven obligation (stable
    /// ids, verdicts, counterexample witnesses). Survives store replay.
    std::vector<pipeline::ObligationRecord> flagged;
    /// Obligation-level incrementality counters: how many of this job's
    /// obligations were replayed from per-obligation store records vs.
    /// decided by the entailment engine. A whole-job fingerprint hit
    /// counts every obligation as replayed. Telemetry (full-mode JSON
    /// and --stats only); never part of the stable verdict set.
    size_t obligations_replayed = 0;
    size_t obligations_solved = 0;
    solver::EntailmentEngine::Stats solver;
    /// Rendered diagnostics (with source snippets), empty when clean.
    std::string diagnostics;
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
};

struct DriverOptions {
    /// Worker threads; 0 = hardware concurrency.
    size_t jobs = 0;
    /// Per-job deadline in milliseconds; 0 = unlimited.
    uint64_t timeout_ms = 0;
    /// Persistent store directory (incr/store.hpp); empty disables
    /// persistence. When set, unchanged jobs are answered from stored
    /// verdicts and edited jobs replay unchanged obligations.
    std::string store_dir;
    /// Checker configuration applied to every job (mode, solver budgets).
    check::CheckOptions check;
};

struct BatchReport {
    std::vector<JobResult> results;
    /// Persistent-store counter deltas for this run (when enabled).
    incr::ArtifactStore::Stats store;
    bool store_enabled = false;
    size_t workers = 1;
    uint64_t timeout_ms = 0;
    /// Entailment backend id ("cdcl", or "enum" for the reference) the
    /// batch ran with.
    std::string solver_backend;
    double wall_ms = 0.0;

    [[nodiscard]] size_t count(JobStatus s) const;
    /// Jobs answered from the store without re-verification.
    [[nodiscard]] size_t skipped_count() const;
    /// No infrastructure failures (Error/Timeout). Rejected designs are a
    /// *successful* verification outcome.
    [[nodiscard]] bool all_ran() const;
    /// Aggregated solver stats over all jobs.
    [[nodiscard]] solver::EntailmentEngine::Stats solver_totals() const;

    /// Machine-readable report (schema svlc-batch-report/v3; v2 added
    /// per-obligation records with stable ids and witnesses, and the
    /// solver backend in the config block; v3 dropped the entailment
    /// cache block). With `full` off, timings and solver telemetry are
    /// omitted and the output depends only on the verification verdicts
    /// — byte-identical across runs, worker counts, and warm/cold store
    /// states.
    [[nodiscard]] std::string to_json(bool full = true) const;
    /// Human-readable per-job table + totals; deterministic (no timings).
    [[nodiscard]] std::string summary() const;
};

/// The single-job verification entry shared by the batch driver and the
/// serve daemon: (re)loads `text` into `comp` — whose options carry the
/// checker configuration — runs the pipeline, and fills a JobResult with
/// verdict, per-obligation records, solver stats, diagnostics, and
/// timings. Installs spec.top and the per-run deadline (spec.timeout_ms,
/// falling back to `default_timeout_ms`; 0 = unlimited) into comp's
/// options before reloading, so a serve session can call this
/// repeatedly on one hot Compilation. Any entailment cache comes in
/// through comp.options().check.solver.cache.
///
/// When `store` is non-null, an incr::ObligationReplayer is installed for
/// the check phase: obligations whose structural fingerprint has a stored
/// record replay their verdict (and re-render diagnostics) instead of
/// re-solving, and freshly solved verdicts are written through. The
/// resulting report is byte-identical to a store-less run; only the
/// obligations_replayed/obligations_solved telemetry differs.
JobResult verify_text(pipeline::Compilation& comp, const JobSpec& spec,
                      const std::string& text, uint64_t default_timeout_ms,
                      incr::ArtifactStore* store = nullptr);

/// The hunt-job counterpart of verify_text: elaborates `text` and runs
/// the bounded symbolic leak hunter to spec.hunt_depth. A confirmed leak
/// trace maps to Rejected, no leak found (or a no-secrets design) to
/// Secure; the rendered hunt report travels in
/// JobResult::diagnostics.
JobResult hunt_text(const JobSpec& spec, const std::string& text);

/// Persists a job's verdict under fingerprint `fp`. Only deterministic
/// verdicts (Secure/Rejected) are stored — a timeout depends on the
/// deadline and an error on transient conditions, so replaying either
/// could mask a now-healthy run. Returns true when stored.
bool store_job_verdict(incr::ArtifactStore& store, const std::string& fp,
                       const JobResult& res);

class VerificationDriver {
public:
    explicit VerificationDriver(DriverOptions opts = {});

    /// Runs every job and aggregates results in input order. Can be
    /// called repeatedly.
    BatchReport run(const std::vector<JobSpec>& jobs);

    /// Non-null when DriverOptions::store_dir is set and the store
    /// opened successfully.
    [[nodiscard]] incr::ArtifactStore* store() { return store_.get(); }

private:
    JobResult run_job(const JobSpec& spec);
    JobResult run_job_once(const JobSpec& spec, const std::string& text);

    DriverOptions opts_;
    std::unique_ptr<incr::ArtifactStore> store_;
};

// --- backend differential harness ------------------------------------------

/// One disagreement between the enum and cdcl entailment backends. Any
/// instance is a backend-contract violation: the backends are required to
/// be verdict- and witness-equivalent.
struct BackendDiff {
    std::string job;
    /// What diverged: "status", "obligations", "failed", or a stable
    /// obligation id (for per-obligation record mismatches).
    std::string field;
    /// The backend that disagreed with the reference ("cdcl").
    std::string backend;
    /// Reference (enum) value vs the disagreeing backend's value.
    std::string enum_value;
    std::string other_value;
};

/// Runs every job once on the enum reference and once on cdcl — each run
/// with its own driver, no persistent store — and returns every
/// disagreement (empty = the backend contract holds).
/// `base` supplies checker budgets and worker count; its backend and
/// store settings are overridden.
std::vector<BackendDiff> diff_backends(const std::vector<JobSpec>& jobs,
                                       const DriverOptions& base = {});

// --- job discovery ---------------------------------------------------------

/// The four generated evaluation-processor variants (src/proc), named
/// builtin:labeled, builtin:baseline, builtin:vulnerable, builtin:quad.
std::vector<JobSpec> builtin_cpu_jobs();

/// Resolves "builtin:<variant>" to an inline-source job. Returns false
/// for an unknown variant.
bool builtin_job(const std::string& name, JobSpec& out);

/// Reads a manifest: one job per line, `#` comments. Each line is a path
/// (resolved relative to the manifest's directory) or builtin:<variant>,
/// optionally followed by `top=<module>`, `timeout=<ms>`, and/or
/// `hunt=<depth>` (run the symbolic leak hunter instead of the checker).
bool jobs_from_manifest(const std::string& manifest_path,
                        std::vector<JobSpec>& out, std::string& error);

/// Recursively collects *.svlc files, sorted by path for determinism.
bool jobs_from_directory(const std::string& dir, std::vector<JobSpec>& out,
                         std::string& error);

/// Dispatch: directory → glob, "builtin:X" → builtin, *.svlc → single
/// file, anything else → manifest.
bool collect_jobs(const std::string& target, std::vector<JobSpec>& out,
                  std::string& error);

} // namespace svlc::driver
