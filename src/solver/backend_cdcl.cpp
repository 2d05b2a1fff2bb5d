#include "solver/backend_cdcl.hpp"

#include "solver/term.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

namespace svlc::solver {

using namespace hir;

namespace {

constexpr size_t kMaxClauses = 4096;
/// Domains at or below this are classified directly in candidate order:
/// the search machinery cannot beat a sweep that small, and the direct
/// path is trivially enum-identical (covers the empty enumeration set and
/// domain=1 edge cases without touching the solver core).
constexpr uint64_t kDirectSweepDomain = 512;

/// Validity tag of a learned exclusion cube (see backend_cdcl.hpp).
struct Tag {
    bool valid_a = true;
    bool label_dep = false;

    void combine(const Tag& o) {
        valid_a = valid_a && o.valid_a;
        label_dep = label_dep || o.label_dep;
    }
};

/// An exclusion cube: no interesting candidate matches it, i.e. for every
/// candidate word c with (c & mask) == vals, ¬bad_A(c) (when valid_a) and
/// ¬bad_B(c) (always). Clause view: ⋁_{b∈mask} (bit b of c) ≠ (bit b of
/// vals) — conflict/unit detection is O(1) word arithmetic.
struct Cube {
    uint64_t mask = 0;
    uint64_t vals = 0;
    Tag tag;
};

enum class SearchKind { AnyViolation, DefiniteRefutation };

/// First index greater than `idx` at which some bit of `mask` differs
/// from `idx`: every index strictly in between only changes bits below
/// mask's lowest bit, so skipping to the result is sound for any
/// predicate that depends only on `mask` bits. Returns 0 on wrap
/// (callers compare against the domain anyway; domain < 2^63 keeps the
/// wrap unreachable except for the final skip).
uint64_t jump_past(uint64_t idx, uint64_t mask) {
    assert(mask != 0);
    uint64_t low = mask & (~mask + 1);
    return (idx | (low - 1)) + 1;
}

class CdclBackend final : public EntailBackend {
public:
    [[nodiscard]] BackendKind kind() const override {
        return BackendKind::Cdcl;
    }

    EntailResult enumerate(const EnumProblem& p) override;

private:
    // ------------------------------------------------------------------
    // Per-job persistent context (the ClauseDB and its identity).
    // ------------------------------------------------------------------
    struct EqProp {
        int target = -1; ///< field index forced by the equation
        TermProgram rhs;
    };
    struct CFact {
        TermProgram prog;
        std::vector<EqProp> eqs; ///< `x == E` propagation directions
    };
    struct CAtom {
        bool is_level = false;
        LevelId level = kInvalidLevel;
        const LabelFunction* fn = nullptr;
        std::vector<int> fields; ///< arg field indices; -1 = unenumerated
        bool complete = false;
        uint64_t support = 0;
    };
    struct Ctx {
        // Identity: a query matches while the facts are the same term ids
        // of the same table, the enumeration set is value-identical, and
        // the labels are value-identical (label mismatch only drops
        // label_dep cubes).
        const sem::TermTable* terms = nullptr;
        std::vector<sem::TermId> fact_ids;
        std::vector<EnumProblem::Var> vars;
        SolverLabel lhs, rhs;

        BitLayout layout;
        Arena arena;
        std::vector<CFact> facts;
        std::vector<CAtom> lhs_atoms, rhs_atoms;
        uint64_t label_support = 0;
        bool atoms_complete = false;

        // The ClauseDB proper, plus search heuristics worth keeping.
        std::vector<Cube> clauses;
        uint64_t phase = 0;
        std::array<double, 64> activity{};
    };

    void refresh_context(const EnumProblem& p);
    void compile_facts(const EnumProblem& p);
    void compile_atoms(const EnumProblem& p);

    Ctx ctx_;
    bool ctx_valid_ = false;
    std::unique_ptr<EntailBackend> fallback_; ///< >63-bit domains (unreachable
                                              ///< under default budgets)
    friend class Searcher;
};

// ---------------------------------------------------------------------------
// Context construction
// ---------------------------------------------------------------------------

void CdclBackend::compile_facts(const EnumProblem& p) {
    Ctx& cx = ctx_;
    cx.facts.clear();
    cx.arena.reset();
    cx.facts.reserve(p.facts.size());
    const sem::TermTable& terms = p.terms;
    for (sem::TermId f : p.facts) {
        CFact cf;
        cf.prog = compile_term(terms, f, cx.layout, cx.arena);
        // Equation shape `x == E` with x a full enumerated variable: when
        // E's value becomes known it forces x's bits (a constant E has
        // empty support, so the implication fires at decision level 0).
        const sem::TermNode& fn = terms.node(f);
        if (fn.kind == ExprKind::Binary &&
            static_cast<BinaryOp>(fn.op) == BinaryOp::Eq) {
            auto add_dir = [&](sem::TermId var_side, sem::TermId rhs_side) {
                const sem::TermNode& v = terms.node(var_side);
                if (v.kind != ExprKind::NetRef)
                    return;
                int fi = cx.layout.find(v.net, v.primed);
                if (fi < 0)
                    return;
                EqProp ep;
                ep.target = fi;
                ep.rhs = compile_term(terms, rhs_side, cx.layout, cx.arena);
                cf.eqs.push_back(std::move(ep));
            };
            add_dir(terms.operand(f, 0), terms.operand(f, 1));
            add_dir(terms.operand(f, 1), terms.operand(f, 0));
        }
        cx.facts.push_back(std::move(cf));
    }
}

void CdclBackend::compile_atoms(const EnumProblem& p) {
    Ctx& cx = ctx_;
    auto build = [&](const SolverLabel& label, std::vector<CAtom>& out) {
        out.clear();
        out.reserve(label.atoms.size());
        for (const SolverAtom& a : label.atoms) {
            CAtom ca;
            if (a.kind == SolverAtom::Kind::Level) {
                ca.is_level = true;
                ca.level = a.level;
                ca.complete = true;
            } else {
                ca.fn = &p.design.policy.function(a.func);
                ca.complete = true;
                for (const LabelArg& arg : a.args) {
                    int fi = cx.layout.find(arg.net, arg.primed);
                    ca.fields.push_back(fi);
                    if (fi < 0)
                        ca.complete = false;
                    else
                        ca.support |=
                            cx.layout.field_mask(static_cast<size_t>(fi));
                }
            }
            out.push_back(std::move(ca));
        }
    };
    build(p.lhs, cx.lhs_atoms);
    build(p.rhs, cx.rhs_atoms);
    cx.label_support = 0;
    cx.atoms_complete = true;
    for (const auto* side : {&cx.lhs_atoms, &cx.rhs_atoms})
        for (const CAtom& a : *side) {
            cx.label_support |= a.support;
            cx.atoms_complete = cx.atoms_complete && a.complete;
        }
}

void CdclBackend::refresh_context(const EnumProblem& p) {
    Ctx& cx = ctx_;
    bool same_facts = ctx_valid_ && cx.terms == &p.terms &&
                      cx.fact_ids == p.facts &&
                      cx.vars.size() == p.vars.size();
    if (same_facts)
        for (size_t i = 0; i < p.vars.size(); ++i)
            if (cx.vars[i].net != p.vars[i].net ||
                cx.vars[i].primed != p.vars[i].primed ||
                cx.vars[i].width != p.vars[i].width) {
                same_facts = false;
                break;
            }

    if (!same_facts) {
        // Full rebuild: layout, compiled facts, atoms; every clause and
        // heuristic is dropped — soundness never depends on sharing.
        cx.terms = &p.terms;
        cx.fact_ids = p.facts;
        cx.vars = p.vars;
        cx.layout.fields.clear();
        cx.layout.nbits = 0;
        for (const EnumProblem::Var& v : p.vars) {
            cx.layout.fields.push_back(
                {v.net, v.primed, v.width, cx.layout.nbits});
            cx.layout.nbits += v.width;
        }
        compile_facts(p);
        cx.lhs = p.lhs;
        cx.rhs = p.rhs;
        compile_atoms(p);
        cx.clauses.clear();
        cx.phase = 0;
        cx.activity.fill(0.0);
        ctx_valid_ = true;
        return;
    }

    if (!(cx.lhs == p.lhs) || !(cx.rhs == p.rhs)) {
        // Same facts, new labels: fact-only clauses survive, anything
        // whose derivation consulted the old labels is dropped.
        cx.lhs = p.lhs;
        cx.rhs = p.rhs;
        compile_atoms(p);
        std::erase_if(cx.clauses,
                      [](const Cube& c) { return c.tag.label_dep; });
    }
}

// ---------------------------------------------------------------------------
// The search + sweep engine for one enumerate() call
// ---------------------------------------------------------------------------

class Searcher {
public:
    Searcher(CdclBackend::Ctx& cx, const EnumProblem& p, EntailResult& out)
        : cx_(cx), p_(p), out_(out), gate_(p.deadline),
          full_mask_(cx.layout.full_mask()) {
        remaining_template_.resize(cx_.layout.fields.size());
        for (size_t i = 0; i < cx_.layout.fields.size(); ++i) {
            const BitLayout::Field& f = cx_.layout.fields[i];
            remaining_template_[i] = static_cast<uint8_t>(f.width);
            for (uint32_t b = 0; b < f.width; ++b)
                field_of_[f.offset + b] = static_cast<uint8_t>(i);
        }
    }

    enum class Outcome { Found, Unsat, Timeout };

    struct SearchResult {
        Outcome outcome = Outcome::Unsat;
        bool found_definite = false;
    };

    SearchResult search(SearchKind kind);

    /// Ascending classify-with-jumps sweep. `want_refutation` selects the
    /// target (first definite refutation vs first bad_A); the caller has
    /// already established a target exists, so the sweep terminates early.
    struct SweepResult {
        bool timed_out = false;
        bool found = false;
        uint64_t idx = 0;
        bool label_unknown = false; ///< bad_A kind (note selection)
        LevelId lhs_level = 0, rhs_level = 0;
    };
    SweepResult sweep(bool want_refutation);

    /// Enum-identical full classification (used for tiny domains): runs
    /// the complete state machine, returning the final EntailResult.
    EntailResult full_sweep();

    Assignment assignment_at(uint64_t idx) const;

private:
    // --- evaluation over the packed partial assignment ---
    std::optional<BitVec> eval(const TermProgram& prog) {
        return eval_term(prog, cx_.layout, values_, assigned_, scratch_);
    }
    std::optional<LevelId> eval_side(const std::vector<CdclBackend::CAtom>&);

    // --- assignment / trail ---
    struct Step {
        uint8_t bit = 0;
        bool decision = false;
        Cube reason; ///< literals implying this one (excludes the bit)
    };
    void assign(uint8_t bit, bool value, bool decision, const Cube& reason);
    void backtrack(uint32_t to_level);
    uint64_t complete_support_cube(uint64_t support) const;
    Cube fact_support_cube(const CdclBackend::CFact& f, Tag tag) const;

    // --- propagation / analysis ---
    std::optional<Cube> propagate();
    std::optional<Cube> check_fact(size_t fi);
    std::optional<Cube> check_labels();
    std::optional<Cube> scan_clauses_from(size_t first);
    bool clause_usable(const Cube& c) const {
        return b_clauses_ok_ || c.tag.valid_a;
    }
    bool analyze(Cube conflict);
    void bump(uint64_t mask);
    void decide();

    std::optional<Cube> classify_leaf(SearchKind kind, bool& definite);

    CdclBackend::Ctx& cx_;
    const EnumProblem& p_;
    EntailResult& out_;
    backend_detail::DeadlineGate gate_;
    uint64_t full_mask_ = 0;

    // Search state.
    uint64_t values_ = 0, assigned_ = 0;
    std::vector<Step> trail_;
    size_t qhead_ = 0;
    uint32_t level_ = 0;
    std::vector<uint32_t> level_start_;
    std::array<uint32_t, 64> bit_level_{};
    std::array<Tag, 64> l0_tag_{};
    std::vector<uint8_t> remaining_template_, remaining_;
    std::array<uint8_t, 64> field_of_{};
    TermScratch scratch_;
    std::vector<uint64_t> args_scratch_;
    bool b_clauses_ok_ = false;
    double act_inc_ = 1.0;
};

Assignment Searcher::assignment_at(uint64_t idx) const {
    Assignment asg;
    for (const BitLayout::Field& f : cx_.layout.fields)
        asg.set(f.net, f.primed,
                BitVec(f.width, (idx >> f.offset) & BitVec::mask(f.width)));
    return asg;
}

std::optional<LevelId>
Searcher::eval_side(const std::vector<CdclBackend::CAtom>& atoms) {
    const Lattice& lat = p_.design.policy.lattice();
    LevelId acc = lat.bottom();
    for (const CdclBackend::CAtom& a : atoms) {
        if (a.is_level) {
            acc = lat.join(acc, a.level);
            continue;
        }
        if (!a.complete || (a.support & assigned_) != a.support)
            return std::nullopt;
        args_scratch_.clear();
        for (int fi : a.fields) {
            const BitLayout::Field& f =
                cx_.layout.fields[static_cast<size_t>(fi)];
            args_scratch_.push_back((values_ >> f.offset) &
                                    BitVec::mask(f.width));
        }
        acc = lat.join(acc, a.fn->evaluate(args_scratch_));
    }
    return acc;
}

void Searcher::assign(uint8_t bit, bool value, bool decision,
                      const Cube& reason) {
    assert(!(assigned_ >> bit & 1));
    assigned_ |= uint64_t{1} << bit;
    if (value)
        values_ |= uint64_t{1} << bit;
    else
        values_ &= ~(uint64_t{1} << bit);
    bit_level_[bit] = level_;
    if (level_ == 0) {
        // Fold the justifications of the reason's (level-0) literals in,
        // so dropping this literal during analysis folds one tag only.
        Tag t = reason.tag;
        for (uint64_t m = reason.mask; m != 0; m &= m - 1)
            t.combine(l0_tag_[std::countr_zero(m)]);
        l0_tag_[bit] = t;
    }
    trail_.push_back({bit, decision, reason});
    if (!decision)
        ++out_.propagations;
    --remaining_[field_of_[bit]];
}

void Searcher::backtrack(uint32_t to_level) {
    while (level_ > to_level) {
        size_t start = level_start_[level_ - 1];
        while (trail_.size() > start) {
            const Step& s = trail_.back();
            uint64_t b = uint64_t{1} << s.bit;
            // Phase saving: remember the value for the next decision.
            if (values_ & b)
                cx_.phase |= b;
            else
                cx_.phase &= ~b;
            assigned_ &= ~b;
            ++remaining_[field_of_[s.bit]];
            trail_.pop_back();
        }
        --level_;
    }
    level_start_.resize(level_);
    qhead_ = std::min(qhead_, trail_.size());
}

uint64_t Searcher::complete_support_cube(uint64_t support) const {
    uint64_t mask = 0;
    for (uint64_t m = support; m != 0;) {
        size_t fi = field_of_[std::countr_zero(m)];
        uint64_t fmask = cx_.layout.field_mask(fi);
        if (remaining_[fi] == 0)
            mask |= fmask;
        m &= ~fmask;
    }
    return mask;
}

Cube Searcher::fact_support_cube(const CdclBackend::CFact& f, Tag tag) const {
    Cube c;
    c.mask = complete_support_cube(f.prog.support);
    c.vals = values_ & c.mask;
    c.tag = tag;
    return c;
}

std::optional<Cube> Searcher::check_fact(size_t fi) {
    const CdclBackend::CFact& f = cx_.facts[fi];
    auto v = eval(f.prog);
    if (v && v->is_zero()) {
        // The fact is definitely false given the complete support
        // variables: no candidate matching them is possibly-sat, hence
        // neither bad_A nor bad_B. Fact-only derivation.
        return fact_support_cube(f, Tag{true, false});
    }
    if (v)
        return std::nullopt; // definitely true here; nothing to learn
    // Unknown: try the equation directions. A known right side forces the
    // target variable (any disagreeing candidate makes the fact
    // definitely false).
    for (const CdclBackend::EqProp& ep : f.eqs) {
        const BitLayout::Field& tf =
            cx_.layout.fields[static_cast<size_t>(ep.target)];
        uint64_t tmask = cx_.layout.field_mask(static_cast<size_t>(ep.target));
        if ((assigned_ & tmask) == tmask)
            continue; // target complete; the Eq evaluates on its own
        auto rv = eval(ep.rhs);
        if (!rv)
            continue;
        uint64_t want = (rv->value() & BitVec::mask(tf.width)) << tf.offset;
        Cube reason;
        reason.mask = complete_support_cube(ep.rhs.support) & ~tmask;
        reason.vals = values_ & reason.mask;
        reason.tag = Tag{true, false};
        uint64_t disagree = (values_ ^ want) & assigned_ & tmask;
        if (disagree) {
            // An already-assigned target bit contradicts the forced
            // value: conflict cube = rhs antecedent + that bit.
            uint64_t b = disagree & (~disagree + 1);
            Cube confl = reason;
            confl.mask |= b;
            confl.vals |= values_ & b;
            return confl;
        }
        for (uint64_t m = tmask & ~assigned_; m != 0; m &= m - 1) {
            uint8_t bit = static_cast<uint8_t>(std::countr_zero(m));
            assign(bit, (want >> bit) & 1, false, reason);
        }
    }
    return std::nullopt;
}

std::optional<Cube> Searcher::check_labels() {
    if (!cx_.atoms_complete ||
        (assigned_ & cx_.label_support) != cx_.label_support)
        return std::nullopt;
    auto lv = eval_side(cx_.lhs_atoms);
    auto rv = eval_side(cx_.rhs_atoms);
    assert(lv && rv);
    if (!p_.design.policy.lattice().flows(*lv, *rv))
        return std::nullopt;
    // Labels are known and the flow holds: every candidate agreeing on
    // the label arguments is fine — excluded from bad_A and bad_B alike,
    // but the derivation obviously depends on the current labels.
    Cube c;
    c.mask = cx_.label_support;
    c.vals = values_ & c.mask;
    c.tag = Tag{true, true};
    return c;
}

std::optional<Cube> Searcher::scan_clauses_from(size_t first) {
    for (size_t ci = first; ci < cx_.clauses.size(); ++ci) {
        const Cube& c = cx_.clauses[ci];
        if (!clause_usable(c))
            continue;
        uint64_t det = c.mask & assigned_;
        if ((c.vals ^ values_) & det)
            continue; // some determined bit already differs: satisfied
        uint64_t undet = c.mask & ~assigned_;
        if (undet == 0)
            return c; // fully matched: conflict
        if (std::popcount(undet) == 1) {
            uint8_t bit = static_cast<uint8_t>(std::countr_zero(undet));
            Cube reason = c;
            reason.mask &= ~undet;
            reason.vals &= ~undet;
            assign(bit, !((c.vals >> bit) & 1), false, reason);
        }
    }
    return std::nullopt;
}

std::optional<Cube> Searcher::propagate() {
    while (qhead_ < trail_.size()) {
        uint8_t bit = trail_[qhead_++].bit;
        uint64_t bmask = uint64_t{1} << bit;

        // Clauses watching this bit.
        for (size_t ci = 0; ci < cx_.clauses.size(); ++ci) {
            const Cube& c = cx_.clauses[ci];
            if (!(c.mask & bmask) || !clause_usable(c))
                continue;
            uint64_t det = c.mask & assigned_;
            if ((c.vals ^ values_) & det)
                continue;
            uint64_t undet = c.mask & ~assigned_;
            if (undet == 0)
                return c;
            if (std::popcount(undet) == 1) {
                uint8_t u = static_cast<uint8_t>(std::countr_zero(undet));
                Cube reason = c;
                reason.mask &= ~undet;
                reason.vals &= ~undet;
                assign(u, !((c.vals >> u) & 1), false, reason);
            }
        }

        // Facts whose support variable just became complete.
        size_t fi = field_of_[bit];
        if (remaining_[fi] == 0) {
            uint64_t fmask = cx_.layout.field_mask(fi);
            for (size_t i = 0; i < cx_.facts.size(); ++i) {
                bool relevant = (cx_.facts[i].prog.support & fmask) != 0;
                for (const CdclBackend::EqProp& ep : cx_.facts[i].eqs)
                    relevant = relevant || (ep.rhs.support & fmask) != 0 ||
                               cx_.layout.field_mask(
                                   static_cast<size_t>(ep.target)) == fmask;
                if (!relevant)
                    continue;
                if (auto confl = check_fact(i))
                    return confl;
            }
            if (cx_.label_support & fmask)
                if (auto confl = check_labels())
                    return confl;
        }
    }
    return std::nullopt;
}

void Searcher::bump(uint64_t mask) {
    for (uint64_t m = mask; m != 0; m &= m - 1)
        cx_.activity[static_cast<size_t>(std::countr_zero(m))] += act_inc_;
    act_inc_ *= 1.053;
    if (act_inc_ > 1e100) {
        for (double& a : cx_.activity)
            a *= 1e-100;
        act_inc_ *= 1e-100;
    }
}

bool Searcher::analyze(Cube conflict) {
    ++out_.conflicts;

    // A conflict cube whose literals all live below the current level is
    // conflicting at its own deepest level; hop there first (an empty
    // cube excludes everything: UNSAT outright).
    uint32_t deepest = 0;
    for (uint64_t m = conflict.mask; m != 0; m &= m - 1)
        deepest = std::max(deepest, bit_level_[std::countr_zero(m)]);
    if (deepest == 0)
        return false; // refuted at level 0: this search is UNSAT
    backtrack(deepest);

    // 1UIP resolution over the trail, folding validity tags of every
    // ingredient (dropped level-0 literals contribute their recorded
    // justification tags).
    Tag tag = conflict.tag;
    uint64_t seen = 0, keep = 0;
    int counter = 0;
    Cube cur = conflict;
    size_t idx = trail_.size();
    uint8_t uip = 0;
    for (;;) {
        bump(cur.mask);
        for (uint64_t m = cur.mask & ~seen; m != 0; m &= m - 1) {
            uint8_t b = static_cast<uint8_t>(std::countr_zero(m));
            seen |= uint64_t{1} << b;
            uint32_t lv = bit_level_[b];
            if (lv == 0)
                tag.combine(l0_tag_[b]);
            else if (lv == level_)
                ++counter;
            else
                keep |= uint64_t{1} << b;
        }
        do {
            --idx;
        } while (!(seen >> trail_[idx].bit & 1));
        --counter;
        if (counter == 0) {
            uip = trail_[idx].bit;
            break;
        }
        cur = trail_[idx].reason;
        tag.combine(cur.tag);
    }

    Cube learned;
    learned.mask = keep | (uint64_t{1} << uip);
    learned.vals = values_ & learned.mask;
    learned.tag = tag;

    uint32_t back = 0;
    for (uint64_t m = keep; m != 0; m &= m - 1)
        back = std::max(back, bit_level_[std::countr_zero(m)]);
    backtrack(back);

    if (cx_.clauses.size() >= kMaxClauses)
        cx_.clauses.erase(cx_.clauses.begin(),
                          cx_.clauses.begin() + kMaxClauses / 2);
    cx_.clauses.push_back(learned);
    ++out_.learned_clauses;

    // The learned cube is unit on the UIP bit: assert its negation.
    Cube reason = learned;
    reason.mask &= ~(uint64_t{1} << uip);
    reason.vals &= ~(uint64_t{1} << uip);
    assign(uip, !((learned.vals >> uip) & 1), false, reason);
    return true;
}

void Searcher::decide() {
    uint64_t open = full_mask_ & ~assigned_;
    assert(open != 0);
    uint8_t best = 64;
    double best_act = -1.0;
    for (uint64_t m = open; m != 0; m &= m - 1) {
        uint8_t b = static_cast<uint8_t>(std::countr_zero(m));
        if (cx_.activity[b] > best_act) {
            best_act = cx_.activity[b];
            best = b;
        }
    }
    ++level_;
    level_start_.push_back(trail_.size());
    assign(best, (cx_.phase >> best) & 1, true, Cube{});
}

std::optional<Cube> Searcher::classify_leaf(SearchKind kind, bool& definite) {
    ++out_.candidates;
    bool definitely_sat = true;
    for (size_t i = 0; i < cx_.facts.size(); ++i) {
        auto v = eval(cx_.facts[i].prog);
        if (v && v->is_zero())
            return fact_support_cube(cx_.facts[i], Tag{true, false});
        if (!v) {
            if (kind == SearchKind::DefiniteRefutation) {
                // bad_B needs every fact definitely true; candidates
                // agreeing on this fact's support can't provide that.
                // Valid only for the B search.
                return fact_support_cube(cx_.facts[i], Tag{false, false});
            }
            definitely_sat = false;
        }
    }
    if (cx_.atoms_complete) {
        auto lv = eval_side(cx_.lhs_atoms);
        auto rv = eval_side(cx_.rhs_atoms);
        assert(lv && rv);
        if (p_.design.policy.lattice().flows(*lv, *rv)) {
            Cube c;
            c.mask = cx_.label_support;
            c.vals = values_ & c.mask;
            c.tag = Tag{true, true};
            return c;
        }
        definite = definitely_sat;
        return std::nullopt; // bad found
    }
    // Labels depend on unenumerated signals: never a refutation, always a
    // bad_A. The B search pre-excludes this case.
    assert(kind == SearchKind::AnyViolation);
    definite = false;
    return std::nullopt;
}

Searcher::SearchResult Searcher::search(SearchKind kind) {
    SearchResult r;
    b_clauses_ok_ = kind == SearchKind::DefiniteRefutation;

    // Fresh assignment state (clauses/phase/activity persist).
    values_ = assigned_ = 0;
    trail_.clear();
    level_start_.clear();
    qhead_ = 0;
    level_ = 0;
    bit_level_.fill(0);
    remaining_ = remaining_template_;

    // Level-0 propagation: constant facts, equation pins with constant
    // right sides, statically-flowing labels, and unit clauses. A
    // conflict here is a level-0 refutation: UNSAT outright.
    for (size_t i = 0; i < cx_.facts.size(); ++i)
        if (check_fact(i))
            return r;
    if (check_labels() || scan_clauses_from(0))
        return r;

    uint64_t restart_budget = 128;
    uint64_t conflicts_here = 0;
    for (;;) {
        if (gate_.tick()) {
            r.outcome = Outcome::Timeout;
            return r;
        }
        if (auto confl = propagate()) {
            ++conflicts_here;
            if (!analyze(std::move(*confl)))
                return r; // UNSAT
            continue;
        }
        if (assigned_ == full_mask_) {
            bool definite = false;
            if (auto confl = classify_leaf(kind, definite)) {
                ++conflicts_here;
                if (!analyze(std::move(*confl)))
                    return r;
                continue;
            }
            r.outcome = Outcome::Found;
            r.found_definite = definite;
            return r;
        }
        if (conflicts_here >= restart_budget) {
            ++out_.restarts;
            conflicts_here = 0;
            restart_budget += restart_budget / 2;
            backtrack(0);
            continue;
        }
        decide();
    }
}

// ---------------------------------------------------------------------------
// Canonical sweeps (witness / note selection in mixed-radix order)
// ---------------------------------------------------------------------------

Searcher::SweepResult Searcher::sweep(bool want_refutation) {
    SweepResult res;
    // A refutation (bad_B) is inside bad_A, so valid_a cubes can prune
    // both sweeps; ¬valid_a cubes only exclude bad_B and must not guide
    // the bad_A sweep.
    b_clauses_ok_ = want_refutation;

    // Evaluate at full assignments only: values_ holds the candidate.
    assigned_ = full_mask_;
    remaining_.assign(remaining_template_.size(), 0);

    uint64_t idx = 0;
    while (idx < p_.domain) {
        if (gate_.tick()) {
            res.timed_out = true;
            return res;
        }
        // Clause skips: a matching cube proves no target in the region
        // sharing its determined bits from here to the jump point.
        bool skipped = false;
        for (const Cube& c : cx_.clauses) {
            if (!clause_usable(c) || c.mask == 0)
                continue;
            if (((idx ^ c.vals) & c.mask) == 0) {
                idx = jump_past(idx, c.mask);
                skipped = true;
                break;
            }
        }
        if (skipped)
            continue;

        values_ = idx;
        ++out_.candidates;

        bool definitely_sat = true;
        uint64_t false_support = 0;
        bool possibly_sat = true;
        for (const CdclBackend::CFact& f : cx_.facts) {
            auto v = eval(f.prog);
            if (v && v->is_zero()) {
                possibly_sat = false;
                false_support = f.prog.support;
                break;
            }
            if (!v)
                definitely_sat = false;
        }
        if (!possibly_sat) {
            if (false_support == 0)
                return res; // a constant-false fact rejects everything
            idx = jump_past(idx, false_support);
            continue;
        }

        auto lv = eval_side(cx_.lhs_atoms);
        auto rv = eval_side(cx_.rhs_atoms);
        if (lv && rv) {
            if (p_.design.policy.lattice().flows(*lv, *rv)) {
                ++idx;
                continue;
            }
            if (want_refutation && !definitely_sat) {
                ++idx;
                continue; // only a possible violation; keep looking
            }
            res.found = true;
            res.idx = idx;
            res.label_unknown = false;
            res.lhs_level = *lv;
            res.rhs_level = *rv;
            return res;
        }
        if (!want_refutation) {
            res.found = true;
            res.idx = idx;
            res.label_unknown = true;
            return res;
        }
        ++idx;
    }
    return res;
}

EntailResult Searcher::full_sweep() {
    EntailResult result;
    b_clauses_ok_ = false; // verdict sweep may only skip non-bad_A regions
    assigned_ = full_mask_;
    remaining_.assign(remaining_template_.size(), 0);

    bool any_unknown_failure = false;
    std::string unknown_note;
    uint64_t idx = 0;
    while (idx < p_.domain) {
        if (gate_.tick()) {
            result.status = EntailStatus::Unknown;
            result.timed_out = true;
            result.detail = "entailment deadline exceeded mid-enumeration";
            result.candidates = out_.candidates;
            return result;
        }
        bool skipped = false;
        for (const Cube& c : cx_.clauses) {
            if (!clause_usable(c) || c.mask == 0)
                continue;
            if (((idx ^ c.vals) & c.mask) == 0) {
                idx = jump_past(idx, c.mask);
                skipped = true;
                break;
            }
        }
        if (skipped)
            continue;

        values_ = idx;
        ++out_.candidates;

        bool definitely_sat = true;
        bool possibly_sat = true;
        uint64_t false_support = 0;
        for (const CdclBackend::CFact& f : cx_.facts) {
            auto v = eval(f.prog);
            if (v && v->is_zero()) {
                possibly_sat = false;
                false_support = f.prog.support;
                break;
            }
            if (!v)
                definitely_sat = false;
        }
        if (!possibly_sat) {
            if (false_support == 0)
                break; // rejected everywhere: done
            idx = jump_past(idx, false_support);
            continue;
        }

        auto lv = eval_side(cx_.lhs_atoms);
        auto rv = eval_side(cx_.rhs_atoms);
        if (lv && rv) {
            if (!p_.design.policy.lattice().flows(*lv, *rv)) {
                Assignment asg = assignment_at(idx);
                Witness w = backend_detail::make_witness(p_, asg, *lv, *rv);
                if (definitely_sat) {
                    result.status = EntailStatus::Refuted;
                    result.detail = w.str(p_.design);
                    result.witness = std::move(w);
                    result.candidates = out_.candidates;
                    return result;
                }
                any_unknown_failure = true;
                if (unknown_note.empty())
                    unknown_note =
                        "possibly-reachable violation: " + w.str(p_.design);
            }
        } else {
            any_unknown_failure = true;
            if (unknown_note.empty())
                unknown_note = "label value depends on signals beyond the "
                               "enumeration budget";
        }
        ++idx;
    }

    result.status =
        any_unknown_failure ? EntailStatus::Unknown : EntailStatus::Proven;
    if (any_unknown_failure)
        result.detail = unknown_note;
    result.candidates = out_.candidates;
    return result;
}

// ---------------------------------------------------------------------------
// Backend entry point
// ---------------------------------------------------------------------------

EntailResult CdclBackend::enumerate(const EnumProblem& p) {
    // Packing needs the whole tuple in 63 bits. domain <= max_candidates
    // guarantees it under every real configuration; the reference backend
    // handles the rest (a pure safety net).
    uint32_t nbits = 0;
    for (const EnumProblem::Var& v : p.vars)
        nbits += v.width;
    if (nbits > 63) {
        if (!fallback_)
            fallback_ = make_backend(BackendKind::Enum);
        return fallback_->enumerate(p);
    }

    refresh_context(p);
    EntailResult result;
    Searcher s(ctx_, p, result);

    if (p.domain <= kDirectSweepDomain) {
        EntailResult swept = s.full_sweep();
        swept.conflicts = result.conflicts;
        swept.propagations = result.propagations;
        swept.learned_clauses = result.learned_clauses;
        swept.restarts = result.restarts;
        return swept;
    }

    auto timeout = [&]() {
        result.status = EntailStatus::Unknown;
        result.timed_out = true;
        result.detail = "entailment deadline exceeded mid-enumeration";
        return result;
    };

    auto refute_at = [&](Searcher::SweepResult hit) {
        Assignment asg = s.assignment_at(hit.idx);
        Witness w = backend_detail::make_witness(p, asg, hit.lhs_level,
                                                 hit.rhs_level);
        result.status = EntailStatus::Refuted;
        result.detail = w.str(p.design);
        result.witness = std::move(w);
        return result;
    };

    Searcher::SearchResult a = s.search(SearchKind::AnyViolation);
    if (a.outcome == Searcher::Outcome::Timeout)
        return timeout();
    if (a.outcome == Searcher::Outcome::Unsat) {
        result.status = EntailStatus::Proven;
        return result;
    }

    bool refutation_exists = a.found_definite;
    if (!refutation_exists && ctx_.atoms_complete) {
        Searcher::SearchResult b = s.search(SearchKind::DefiniteRefutation);
        if (b.outcome == Searcher::Outcome::Timeout)
            return timeout();
        refutation_exists = b.outcome == Searcher::Outcome::Found;
    }

    Searcher::SweepResult hit = s.sweep(/*want_refutation=*/refutation_exists);
    if (hit.timed_out)
        return timeout();
    assert(hit.found && "search established a target; the sweep must find it");
    if (refutation_exists)
        return refute_at(hit);

    result.status = EntailStatus::Unknown;
    if (hit.label_unknown) {
        result.detail =
            "label value depends on signals beyond the enumeration budget";
    } else {
        Assignment asg = s.assignment_at(hit.idx);
        Witness w = backend_detail::make_witness(p, asg, hit.lhs_level,
                                                 hit.rhs_level);
        result.detail = "possibly-reachable violation: " + w.str(p.design);
    }
    return result;
}

} // namespace

std::unique_ptr<EntailBackend> make_cdcl_backend() {
    return std::make_unique<CdclBackend>();
}

} // namespace svlc::solver
