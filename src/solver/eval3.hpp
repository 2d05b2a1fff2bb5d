// Three-valued (known/unknown) evaluation of interned terms under a
// partial assignment of current-cycle and next-cycle net values. Soundness
// contract: if eval3 returns a value, every total extension of the
// assignment evaluates to that value; `nullopt` means "unknown", never
// "error". The entailment engine relies on this to prune candidate
// assignments without missing counterexamples.
#pragma once

#include "sem/hir.hpp"
#include "sem/term_table.hpp"
#include "solver/label.hpp"
#include "support/bitvec.hpp"

#include <optional>
#include <unordered_map>

namespace svlc::solver {

/// Partial assignment: values for some current-cycle nets and some
/// next-cycle (primed) nets.
struct Assignment {
    std::unordered_map<hir::NetId, BitVec> plain;
    std::unordered_map<hir::NetId, BitVec> primed;

    [[nodiscard]] std::optional<BitVec> get(hir::NetId net, bool is_primed) const {
        const auto& map = is_primed ? primed : plain;
        auto it = map.find(net);
        if (it == map.end())
            return std::nullopt;
        return it->second;
    }
    void set(hir::NetId net, bool is_primed, BitVec v) {
        (is_primed ? primed : plain)[net] = v;
    }
};

/// Evaluates a term; nullopt = unknown. Array reads are unknown (the
/// assignment covers scalars only). Short-circuit rules keep results
/// known where possible: x && false == false, x || true == true,
/// 0 * x == 0, and a conditional with unknown selector but equal branches.
std::optional<BitVec> eval3(const sem::TermTable& terms, sem::TermId id,
                            const Assignment& asg);

/// Evaluates a label atom to a level: level atoms are always known; a
/// function atom is known when all arguments are.
std::optional<LevelId> eval_atom(const SolverAtom& atom,
                                 const hir::Design& design,
                                 const Assignment& asg);

/// Evaluates a whole label (join of atoms); unknown if any atom is.
std::optional<LevelId> eval_label(const SolverLabel& label,
                                  const hir::Design& design,
                                  const Assignment& asg);

} // namespace svlc::solver
