// Symbolic defining equations — the paper's key observation 2: "the
// signals which determine both the labels and the values of registers
// during the next clock cycle are available statically."
//
// For every scalar sequential net r this derives the next-value equation
//     r' = g_n ? e_n : ( ... ( g_1 ? e_1 : r ) ... )
// from its always block (later assignments take priority, matching
// non-blocking last-write-wins semantics), and for every combinational net
// w its defining equation in terms of process inputs. The type checker
// feeds these equations to the solver as constraint-context facts;
// synthesis and the dynamic-clearing transform read them through
// TermTable::to_expr.
//
// Equations live in a hash-consed TermTable (sem/term_table.hpp), so the
// guards and hold chains of one process share their subterms.
#pragma once

#include "sem/hir.hpp"
#include "sem/term_table.hpp"

#include <vector>

namespace svlc::sem {

/// A single guarded write of a sequential process, in program order
/// (later entries take priority).
struct GuardedWrite {
    TermId guard = kNoTerm; ///< kNoTerm = unconditional
    TermId index = kNoTerm; ///< array element writes only
    TermId rhs = kNoTerm;
    uint32_t node_id = 0;
    SourceLoc loc;
};

struct Equations {
    /// Owns every term below, and the facts the checker and solver of the
    /// same job intern on top of them.
    TermTable terms;
    /// defs[net] is the symbolic defining term: for a com net its
    /// current-cycle value, for a seq net the next-cycle value r'
    /// (in terms of current-cycle nets and primed reads the process makes).
    /// kNoTerm for inputs, arrays, and undriven nets.
    std::vector<TermId> defs;
    /// writes[net]: every guarded write of a sequential net (arrays
    /// included), recorded by the same symbolic walk. Empty otherwise.
    std::vector<std::vector<GuardedWrite>> writes;

    [[nodiscard]] TermId def(hir::NetId n) const {
        return n < defs.size() ? defs[n] : kNoTerm;
    }
};

/// Builds defining equations by symbolically executing every process.
/// Requires a well-formed design (run analyze_wellformed first).
Equations build_equations(const hir::Design& design);

} // namespace svlc::sem
