// Entailment engine: decides the type system's proof obligations
//     C(•η) ⇒ τ ⊔ pc ⊑ τ'
// over the constraint fragment SecVerilogLC emits — boolean structure over
// bit-vector terms, next-cycle symbols r', and lattice-valued label
// functions with explicit tables.
//
// Decision procedure (substitutes an external SMT solver):
//   1. a syntactic fast path (atom coverage, congruence through equation
//      facts, and label-function range bounding), then
//   2. dependency-closed domain enumeration, delegated to a pluggable
//      EntailBackend (solver/backend.hpp): the engine pulls the
//      statically-known defining equations of every referenced next-cycle
//      and combinational signal into the fact set, chooses the enumeration
//      set, and the backend evaluates facts and labels three-valued over
//      every candidate. A candidate refutes the flow only if every fact is
//      *definitely* true and the labels are known; "unknown" never proves
//      a flow (sound). The cdcl backend is verdict-equivalent to the enum
//      reference by contract (enforced by the differential harness,
//      `svlc diff-backends`).
#pragma once

#include "sem/hir.hpp"
#include "sem/updates.hpp"
#include "solver/eval3.hpp"
#include "solver/label.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace svlc::solver {

class EntailCache;
class EntailBackend;

/// Which enumeration backend decides non-syntactic obligations.
///   Cdcl  — the production backend (the default): treats the bits of the
///           packed level tuple as decision literals and searches
///           conflict-driven (unit propagation over the equation closure,
///           1UIP clause learning, restarts with phase saving) instead of
///           enumerating; learned clauses persist across the obligations
///           of a job while the fact/label context is unchanged.
///           Refutations are canonicalized by a clause-guided sweep in
///           mixed-radix order, so witnesses match enum's bit for bit.
///   Enum  — the reference oracle: plain mixed-radix enumeration. Kept
///           for differential testing (`svlc diff-backends`, the
///           backend-diff fuzz oracle) and as cdcl's >63-bit fallback.
enum class BackendKind { Enum, Cdcl };

/// Stable short id ("enum" / "cdcl") used in cache keys, fingerprints,
/// and JSON reports.
const char* backend_id(BackendKind kind);
/// Parses a backend id; nullopt for unknown names.
std::optional<BackendKind> parse_backend(std::string_view name);

struct EntailOptions {
    /// Nets wider than this are never enumerated (their values stay
    /// unknown during evaluation).
    uint32_t max_enum_width = 8;
    /// Upper bound on the candidate-assignment count (product of domain
    /// sizes of enumerated variables).
    uint64_t max_candidates = uint64_t{1} << 16;
    size_t max_enum_vars = 16;
    /// How many levels of defining equations to pull into the fact set.
    int closure_depth = 4;
    /// Disable the defining-equation closure entirely (ablation: this
    /// is what makes Fig. 2 / Fig. 4-style code provable).
    bool use_equations = true;
    /// Next-cycle (primed) equations r' = def(r) — the paper's key
    /// addition. Classic SecVerilog keeps combinational equations (its
    /// Hoare-style predicate analysis) but has no notion of these.
    bool use_primed_equations = true;
    /// Current-cycle combinational equations w = def(w).
    bool use_com_equations = true;
    /// Memoization cache for Proven enumeration verdicts, shared (and
    /// thread-safe) across engines whose designs use the same policy.
    /// Not owned; nullptr disables memoization.
    EntailCache* cache = nullptr;
    /// Cooperative deadline: once it passes, enumerations bail out with
    /// EntailStatus::Unknown and `EntailResult::timed_out` set, so one
    /// pathological query cannot stall a batch. Default-constructed
    /// time_point (the epoch) disables the deadline.
    std::chrono::steady_clock::time_point deadline{};
    /// Enumeration backend. Both are verdict- and witness-equivalent;
    /// Cdcl is the production path, Enum the reference. The id
    /// participates in cache keys and incremental fingerprints so memoized
    /// verdicts never cross backends.
    BackendKind backend = BackendKind::Cdcl;
};

enum class EntailStatus {
    Proven,  ///< the flow holds in every reachable case
    Refuted, ///< a concrete counterexample was found
    Unknown, ///< could not be decided (treated as a rejection)
};

/// One variable of a counterexample: the value a (possibly primed) net
/// takes in the violating assignment.
struct WitnessBinding {
    hir::NetId net = hir::kInvalidNet;
    bool primed = false;
    BitVec value;
};

/// Structured counterexample carried by every Refuted verdict: the
/// violating assignment to the enumerated nets (current and primed) plus
/// the label valuation that breaks the flow lhs ⊑ rhs.
struct Witness {
    std::vector<WitnessBinding> bindings;
    LevelId lhs_level = 0;
    LevelId rhs_level = 0;

    /// Renders "a=1 b'=0 gives U ⋢ T" — the engine's historical detail
    /// format, kept byte-compatible.
    [[nodiscard]] std::string str(const hir::Design& design) const;
};

struct EntailResult {
    EntailStatus status = EntailStatus::Unknown;
    /// Human-readable witness for Refuted / explanation for Unknown.
    std::string detail;
    /// Structured counterexample; present exactly when status is Refuted
    /// and the refutation came from enumeration (the syntactic fast path
    /// never refutes).
    std::optional<Witness> witness;
    uint64_t candidates = 0;
    bool syntactic = false;
    /// Set when the engine gave up because EntailOptions::deadline passed
    /// (status is Unknown in that case).
    bool timed_out = false;
    /// CDCL search telemetry (always zero for enum).
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    uint64_t learned_clauses = 0;
    uint64_t restarts = 0;

    [[nodiscard]] bool proven() const { return status == EntailStatus::Proven; }
};

class EntailmentEngine {
public:
    /// `eqs` is not copied: its term table receives the engine's
    /// defining-equation facts, and query facts must be terms of it.
    EntailmentEngine(const hir::Design& design, sem::Equations& eqs,
                     EntailOptions opts = {});
    ~EntailmentEngine();
    EntailmentEngine(EntailmentEngine&&) = delete;

    /// Checks C ⇒ lhs ⊑ rhs where `facts` are terms of the equations'
    /// table assumed non-zero. The engine augments facts with defining
    /// equations of the signals involved (the cycle-by-cycle reasoning of
    /// the paper).
    EntailResult check_flow(const SolverLabel& lhs, const SolverLabel& rhs,
                            const std::vector<sem::TermId>& facts);

    struct Stats {
        uint64_t queries = 0;
        uint64_t syntactic_hits = 0;
        uint64_t enumerations = 0;
        uint64_t total_candidates = 0;
        /// Queries answered from EntailOptions::cache without enumerating.
        uint64_t cache_hits = 0;
        /// Cacheable queries that missed and had to enumerate. Per-engine
        /// (hence per-job), unlike EntailCache::Stats which aggregates
        /// over every engine sharing the cache.
        uint64_t cache_misses = 0;
        /// CDCL search telemetry, summed over enumerations (always zero
        /// for enum).
        uint64_t conflicts = 0;
        uint64_t propagations = 0;
        uint64_t learned_clauses = 0;
        uint64_t restarts = 0;
    };
    [[nodiscard]] const Stats& stats() const { return stats_; }

    /// True once EntailOptions::deadline is set and in the past.
    [[nodiscard]] bool past_deadline() const;

private:
    bool syntactic_covered(const SolverAtom& atom, const SolverLabel& rhs,
                           const std::vector<sem::TermId>& facts) const;
    /// Returns the interned `x == def(x)` fact for `v` (kNoTerm when the
    /// variable has no equation under the current options).
    sem::TermId equation_fact(sem::TermVar v);

    const hir::Design& design_;
    const sem::Equations& eqs_;
    sem::TermTable& terms_; ///< eqs_.terms, which receives equation facts
    EntailOptions opts_;
    std::unique_ptr<EntailBackend> backend_;
    Stats stats_;
    /// equation_fact per (net, primed) key, kUnbuilt until first asked.
    /// The equation depends only on the net and the (immutable) design
    /// equations, so it is interned once per engine — and identical
    /// queries then carry identical fact ids, which is what lets the CDCL
    /// backend recognize an unchanged context and keep its learned
    /// clauses.
    static constexpr sem::TermId kUnbuilt = sem::kNoTerm - 1;
    std::vector<sem::TermId> eq_memo_;
    /// Per-query variable dedup: var_seen_[key] == query_stamp_ marks a
    /// variable already collected by the current query.
    std::vector<uint32_t> var_seen_;
    uint32_t query_stamp_ = 0;
    /// Cache-key prefix: policy fingerprint + enumeration budget. Built
    /// once, on first use, when a cache is attached.
    std::string key_prefix_;
};

} // namespace svlc::solver
