// Canonicalized per-obligation constraint contexts.
//
// `obligation_context` serializes everything one entailment query's
// verdict can depend on — the lattice order, the lhs/rhs labels, the
// constraint-context facts, and (via sem::dependency_slice) the
// declaration + label + defining equation of every net those transitively
// read, plus the tables of every referenced label function — into a
// canonical byte string. Nets and functions are renamed to dense indices
// in first-occurrence order, and nothing position- or name-dependent
// (net names, source locations, job name, site ordinals, level/function
// names) participates, so:
//
//   * whitespace/comment edits and edits to unrelated nets leave every
//     context byte-identical;
//   * renaming a net, level, function, or job moves no context (those
//     names are render-only — diagnostics are re-rendered on replay);
//   * any edit inside the slice (a label, an equation, a referenced
//     function table, the lattice) changes the bytes.
//
// The incr layer hashes these bytes (with the tool version and checker
// options) into the obligation fingerprint that keys the v2 store.
#pragma once

#include "sem/hir.hpp"
#include "sem/slice.hpp"
#include "sem/updates.hpp"
#include "solver/label.hpp"

#include <string>
#include <unordered_map>
#include <vector>

namespace svlc::check {

struct ObligationContext {
    /// Canonical serialization — the obligation-fingerprint hash input.
    std::string bytes;
    /// Canonical variable index → current NetId (the dependency slice in
    /// serialization order). Stored witnesses refer to variables by this
    /// index, which is what lets a replay rebind them to the — possibly
    /// renamed — nets of the edited design.
    std::vector<hir::NetId> nets;
    /// Lazily-filled fingerprint memo (incr::ObligationReplayer). The
    /// checker offers one context object per distinct constraint, so
    /// caching here collapses hashing of structurally repeated
    /// obligations to once per distinct context.
    mutable std::string fp;
};

/// Per-run cache of each net's serialized slice section (declaration,
/// label, defining equation) with net/function ids as binary
/// placeholders. Slices of different obligations overlap heavily, and a
/// net's section only depends on the design — one expression walk per
/// net per run, rewritten to per-obligation canonical indices on use.
/// Holds raw ids internally: never reuse across elaborations.
class ContextCache {
public:
    const std::string& section(const hir::Design& design,
                               const sem::Equations& eqs, hir::NetId n);
    /// Lazy per-net dependency edges shared by every slice closure.
    sem::SliceGraph& graph() { return graph_; }

private:
    std::unordered_map<hir::NetId, std::string> sections_;
    sem::SliceGraph graph_;
};

/// Builds the canonical context of one obligation `facts ⇒ lhs ⊑ rhs`.
/// `cache`, when supplied, carries per-net work across calls.
ObligationContext obligation_context(const hir::Design& design,
                                     const sem::Equations& eqs,
                                     const solver::SolverLabel& lhs,
                                     const solver::SolverLabel& rhs,
                                     const std::vector<sem::TermId>& facts,
                                     ContextCache* cache = nullptr);

/// Within-run memo key for `obligation_context`: the constraint as a
/// tuple of raw ids — each label's atoms (level, or function plus
/// argument nets) and the fact term ids. The constraint determines the
/// slice and hence the whole canonical context, so equal keys guarantee
/// equal contexts; and since term ids are structural, identical facts
/// built at different sites (hold-obligation guard negations) share one
/// entry. Raw ids are only stable within one elaboration and one term
/// table, which is exactly a memo's lifetime; never persist these.
std::u32string obligation_context_key(const solver::SolverLabel& lhs,
                                      const solver::SolverLabel& rhs,
                                      const std::vector<sem::TermId>& facts);

} // namespace svlc::check
