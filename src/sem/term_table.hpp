// Hash-consed term table: the one expression representation shared by the
// defining equations, the checker's constraint contexts and the solver's
// equation closure.
//
// Every distinct expression shape is stored exactly once, in a flat
// index-addressed arena, and named by a TermId. Building a term that
// already exists returns the existing id, so
//   * structural equality is id equality (O(1), no tree walk);
//   * substitution, conjunction, negation and `g ? e : prev` are O(1)
//     interned constructors that share their operands;
//   * per-term facts are cached once: a structural hash, and (lazily) the
//     free-variable list in first-occurrence DFS order.
//
// Invariants:
//   * loc-free: terms carry no SourceLoc. Interning an hir::Expr drops
//     its locs, and to_expr materializes loc-less trees;
//   * interning never rewrites shapes: no folding, no reordering, no
//     width changes. intern(e) holds exactly e's structure (field by field,
//     per kind), so to_expr(intern(e)) equals e up to locs and every
//     serialization of a term is byte-identical to that of its source
//     expression;
//   * widths of synthesized nodes follow hir::Expr::make_* exactly;
//   * ids are dense, stable for the table's lifetime, and meaningless
//     across tables.
//
// The table is owned by sem::Equations: build_equations creates it, and
// the checker and the entailment engine of that job intern their facts
// into the same table, so a fact and the equation it is closed over can
// share subterms. One table per job; never shared across threads.
#pragma once

#include "sem/hir.hpp"

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace svlc::sem {

using TermId = uint32_t;
/// "No term": an absent equation, an unconditional guard, no index.
constexpr TermId kNoTerm = ~TermId{0};

/// A free variable of a term: one scalar net, current-cycle or primed.
struct TermVar {
    hir::NetId net = hir::kInvalidNet;
    bool primed = false;
    friend bool operator==(const TermVar&, const TermVar&) = default;
};

/// One interned node. Only the fields of its kind are meaningful; the
/// rest stay at their defaults so that field-wise equality is structural
/// equality.
struct TermNode {
    hir::ExprKind kind = hir::ExprKind::Const;
    uint8_t op = 0;      ///< UnaryOp / BinaryOp / DowngradeKind
    bool primed = false; ///< NetRef / ArrayRead
    uint32_t width = 1;
    hir::NetId net = hir::kInvalidNet; ///< NetRef / ArrayRead
    uint32_t msb = 0, lsb = 0;         ///< Slice
    BitVec value;                      ///< Const
    uint32_t label = 0;                ///< Downgrade: declared label index
    /// Operands, in evaluation order: ArrayRead [index]; Slice, Unary,
    /// Downgrade [a]; Binary [a, b]; Cond [cond, then, else]; Concat
    /// parts, most significant first.
    uint32_t first = 0, count = 0;
    uint64_t hash = 0;
};

class TermTable {
public:
    TermTable();

    // --- interning ------------------------------------------------------
    /// Interns an HIR expression (locs dropped).
    TermId intern(const hir::Expr& e);
    /// Interns `e` with every plain (unprimed) NetRef whose net `subst`
    /// maps replaced by the mapped term: blocking-assignment substitution
    /// in one linear pass.
    TermId intern(const hir::Expr& e,
                  const std::unordered_map<hir::NetId, TermId>& subst);

    TermId constant(BitVec v);
    TermId net(hir::NetId n, uint32_t width, bool primed);
    TermId unary(hir::UnaryOp op, TermId a);
    TermId binary(hir::BinaryOp op, TermId a, TermId b);
    TermId cond(TermId c, TermId t, TermId f);

    // --- inspection -----------------------------------------------------
    [[nodiscard]] const TermNode& node(TermId id) const { return nodes_[id]; }
    [[nodiscard]] std::span<const TermId> operands(TermId id) const {
        const TermNode& n = nodes_[id];
        return {kids_.data() + n.first, n.count};
    }
    [[nodiscard]] TermId operand(TermId id, size_t i) const {
        return kids_[nodes_[id].first + i];
    }
    /// Number of distinct terms interned so far.
    [[nodiscard]] size_t size() const { return nodes_.size(); }

    /// Free variables in first-occurrence DFS order (operands left to
    /// right; an ArrayRead contributes its index's variables, not the
    /// array). Computed once per term, then cached. The span stays valid
    /// until the next vars() call on a term not yet cached.
    std::span<const TermVar> vars(TermId id);

    /// Every net read (arrays included), split into current-cycle and
    /// primed reads, each in first-occurrence DFS order without repeats —
    /// hir::Expr::collect_reads with duplicates removed.
    void collect_reads(TermId id, std::vector<hir::NetId>& plain,
                       std::vector<hir::NetId>& primed) const;

    /// Materializes a loc-less hir::Expr tree; nullptr for kNoTerm.
    [[nodiscard]] hir::ExprPtr to_expr(TermId id) const;

private:
    TermId make(TermNode key, std::span<const TermId> kids);
    TermId intern_rec(const hir::Expr& e,
                      const std::unordered_map<hir::NetId, TermId>* subst);
    uint32_t intern_label(const hir::Label& label);
    bool same(const TermNode& n, const TermNode& key,
              std::span<const TermId> kids) const;
    void rehash();
    /// Fresh DFS stamp (node_stamp_ sized to the table).
    uint32_t next_stamp() const;
    /// Marks a read with `stamp`; false when already marked.
    bool mark_var(hir::NetId net, bool primed, uint32_t stamp) const;

    std::vector<TermNode> nodes_;
    std::vector<TermId> kids_;
    std::vector<hir::Label> labels_;
    /// Open-addressing index over nodes_ (kNoTerm = empty slot).
    std::vector<TermId> slots_;

    // vars() cache: per-term span into var_pool_ (begin == kUncached
    // until computed), plus DFS stamps reused across walks (mutable: the
    // const collect_reads walks with them too).
    static constexpr uint32_t kUncached = ~uint32_t{0};
    struct VarSpan {
        uint32_t begin = kUncached, count = 0;
    };
    std::vector<VarSpan> var_spans_;
    std::vector<TermVar> var_pool_;
    mutable std::vector<uint32_t> node_stamp_;
    mutable std::vector<uint32_t> var_stamp_;
    mutable uint32_t stamp_ = 0;
};

} // namespace svlc::sem
