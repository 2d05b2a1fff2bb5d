// CdclBackend: conflict-driven entailment search.
//
// Where the enum reference *enumerates* the mixed-radix candidate space,
// this backend *searches* it: every bit of the packed level tuple
// (term.hpp) is a decision literal, facts propagate (a defining equation `x == E`
// whose right side becomes known forces x's bits; a fact that becomes
// definitely false raises a conflict), conflicts are analyzed to the
// first unique implication point, and the learned exclusion cubes prune
// whole subspaces. Restarts use a geometric schedule with phase saving.
//
// Verdict structure. Define, per candidate c,
//   bad_A(c) := possibly-sat(c)  ∧ ¬(labels known ∧ flows)   (blocks Proven)
//   bad_B(c) := definitely-sat(c) ∧ labels known ∧ ¬flows    (refutes)
// with bad_B ⊆ bad_A. Search A decides ∃ bad_A (UNSAT ⇒ Proven); search B
// decides ∃ bad_B (SAT ⇒ Refuted). Witnesses and Unknown notes are then
// canonicalized by a clause-guided sweep in ascending candidate order, so
// the backend is witness- and note-equivalent to enum by construction.
//
// Clause soundness across obligations. Every learned cube carries a tag:
//   valid_a   — derivation used only both-search-valid conflicts (a fact
//               definitely false, an equation implication, labels known
//               and flowing). ¬valid_a cubes came from "fact unknown at a
//               full assignment" steps, which only exclude bad_B.
//   label_dep — derivation consulted the current lhs/rhs labels.
// The per-backend ClauseDB persists while the fact (term-id-identical)
// set and enumeration layout are unchanged; a label change drops
// label_dep cubes, any other change drops everything. The engine keeps
// one backend per job, so clauses flow across that job's obligations and
// never further.
#pragma once

#include "solver/backend.hpp"

namespace svlc::solver {

std::unique_ptr<EntailBackend> make_cdcl_backend();

} // namespace svlc::solver
