#include "solver/entail.hpp"

#include "solver/backend.hpp"
#include "solver/entail_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>

namespace svlc::solver {

using namespace hir;

EntailmentEngine::EntailmentEngine(const Design& design, sem::Equations& eqs,
                                   EntailOptions opts)
    : design_(design), eqs_(eqs), terms_(eqs.terms), opts_(opts),
      backend_(make_backend(opts_.backend)),
      eq_memo_(design.nets.size() * 2, kUnbuilt),
      var_seen_(design.nets.size() * 2, 0) {
    if (opts_.cache) {
        // Entries are shareable only between engines that would run the
        // identical decision procedure: same policy, same budgets, same
        // backend. Backends are verdict-equivalent by contract, but the
        // cached candidate counts differ, and keeping the keyspaces
        // disjoint means a contract violation can never leak a verdict
        // across backends.
        key_prefix_ = policy_fingerprint(design_.policy);
        char buf[128];
        std::snprintf(buf, sizeof buf, "|o:%u,%llu,%zu,%d,%d%d%d|b:%s",
                      opts_.max_enum_width,
                      static_cast<unsigned long long>(opts_.max_candidates),
                      opts_.max_enum_vars, opts_.closure_depth,
                      opts_.use_equations, opts_.use_primed_equations,
                      opts_.use_com_equations, backend_id(opts_.backend));
        key_prefix_ += buf;
    }
}

EntailmentEngine::~EntailmentEngine() = default;

bool EntailmentEngine::past_deadline() const {
    return opts_.deadline != std::chrono::steady_clock::time_point{} &&
           std::chrono::steady_clock::now() > opts_.deadline;
}

namespace {

/// True when `fact` is the equation `x == y` (either order) for net vars.
bool is_var_equation(const sem::TermTable& terms, sem::TermId fact,
                     const LabelArg& x, const LabelArg& y) {
    const sem::TermNode& f = terms.node(fact);
    if (f.kind != ExprKind::Binary ||
        static_cast<BinaryOp>(f.op) != BinaryOp::Eq)
        return false;
    auto matches = [&](sem::TermId t, const LabelArg& v) {
        const sem::TermNode& e = terms.node(t);
        return e.kind == ExprKind::NetRef && e.net == v.net &&
               e.primed == v.primed;
    };
    sem::TermId a = terms.operand(fact, 0), b = terms.operand(fact, 1);
    return (matches(a, x) && matches(b, y)) || (matches(a, y) && matches(b, x));
}

/// Join over the whole range of a label function (default + entries).
LevelId function_range_join(const LabelFunction& fn, const Lattice& lat) {
    LevelId acc = fn.default_level();
    for (const auto& e : fn.entries())
        acc = lat.join(acc, e.level);
    return acc;
}

} // namespace

sem::TermId EntailmentEngine::equation_fact(sem::TermVar v) {
    sem::TermId& memo = eq_memo_[size_t{v.net} * 2 + (v.primed ? 1 : 0)];
    if (memo != kUnbuilt)
        return memo;
    const Net& net = design_.net(v.net);
    sem::TermId def = eqs_.def(v.net);
    memo = sem::kNoTerm; // negative results cached too
    if (v.primed && opts_.use_primed_equations) {
        // Primed: r' == def(r), or r' == r when undriven.
        sem::TermId rhs =
            def != sem::kNoTerm ? def : terms_.net(v.net, net.width, false);
        memo = terms_.binary(BinaryOp::Eq, terms_.net(v.net, net.width, true),
                             rhs);
    } else if (!v.primed && net.kind == NetKind::Com &&
               opts_.use_com_equations && def != sem::kNoTerm) {
        memo = terms_.binary(BinaryOp::Eq,
                             terms_.net(v.net, net.width, false), def);
    }
    return memo;
}

bool EntailmentEngine::syntactic_covered(
    const SolverAtom& atom, const SolverLabel& rhs,
    const std::vector<sem::TermId>& facts) const {
    const Lattice& lat = design_.policy.lattice();
    if (atom.kind == SolverAtom::Kind::Level) {
        if (atom.level == lat.bottom())
            return true;
        for (const auto& r : rhs.atoms)
            if (r.kind == SolverAtom::Kind::Level &&
                lat.flows(atom.level, r.level))
                return true;
        return false;
    }
    // Function atom: identical atom on the right, congruence through an
    // equation fact, or the function's whole range flows into a static
    // right-hand atom.
    for (const auto& r : rhs.atoms) {
        if (r.kind == SolverAtom::Kind::Func && r.func == atom.func &&
            r.args.size() == atom.args.size()) {
            bool all = true;
            for (size_t i = 0; i < r.args.size(); ++i) {
                if (atom.args[i] == r.args[i])
                    continue;
                bool equated = false;
                for (sem::TermId f : facts)
                    if (is_var_equation(terms_, f, atom.args[i], r.args[i])) {
                        equated = true;
                        break;
                    }
                if (!equated) {
                    all = false;
                    break;
                }
            }
            if (all)
                return true;
        }
    }
    LevelId range = function_range_join(design_.policy.function(atom.func), lat);
    for (const auto& r : rhs.atoms)
        if (r.kind == SolverAtom::Kind::Level && lat.flows(range, r.level))
            return true;
    return false;
}

EntailResult EntailmentEngine::check_flow(
    const SolverLabel& lhs, const SolverLabel& rhs,
    const std::vector<sem::TermId>& user_facts) {
    ++stats_.queries;
    EntailResult result;

    if (past_deadline()) {
        result.status = EntailStatus::Unknown;
        result.timed_out = true;
        result.detail = "entailment deadline exceeded";
        return result;
    }

    // ------------------------------------------------------------------
    // Fast path: syntactic coverage of every left atom.
    // ------------------------------------------------------------------
    {
        bool all = true;
        for (const auto& atom : lhs.atoms)
            all = all && syntactic_covered(atom, rhs, user_facts);
        if (all) {
            ++stats_.syntactic_hits;
            result.status = EntailStatus::Proven;
            result.syntactic = true;
            return result;
        }
    }

    // ------------------------------------------------------------------
    // Gather variables and pull in defining equations (closure).
    // ------------------------------------------------------------------
    // Variables are deduplicated with a per-query stamp, and each fact
    // contributes its cached first-occurrence variable list, so the
    // closure never re-walks a term.
    std::vector<sem::TermId> facts = user_facts;
    std::vector<sem::TermVar> vars;
    uint32_t stamp = ++query_stamp_;
    auto add_var = [&](sem::TermVar v) {
        uint32_t& seen = var_seen_[size_t{v.net} * 2 + (v.primed ? 1 : 0)];
        if (seen != stamp) {
            seen = stamp;
            vars.push_back(v);
        }
    };
    auto add_vars_of = [&](sem::TermId t) {
        for (sem::TermVar v : terms_.vars(t))
            add_var(v);
    };
    for (const auto& atom : lhs.atoms)
        for (const auto& arg : atom.args)
            add_var({arg.net, arg.primed});
    for (const auto& atom : rhs.atoms)
        for (const auto& arg : atom.args)
            add_var({arg.net, arg.primed});
    size_t label_var_count = vars.size();
    for (sem::TermId f : facts)
        add_vars_of(f);

    // A refutation is only trustworthy when every defining equation the
    // candidate space is subject to made it into the fact set; if
    // closure_depth cuts the closure short, a "definitely satisfying"
    // candidate may be ruled out by one of the dropped equations.
    bool closure_truncated = false;
    if (opts_.use_equations) {
        auto may_have_equation = [&](sem::TermVar v) {
            if (v.primed)
                return opts_.use_primed_equations;
            return design_.net(v.net).kind == NetKind::Com &&
                   opts_.use_com_equations &&
                   eqs_.def(v.net) != sem::kNoTerm;
        };
        // `vars` never repeats a variable, so each frontier is the set of
        // variables first reached at that depth and is processed once.
        size_t frontier_begin = 0;
        for (int depth = 0; depth < opts_.closure_depth; ++depth) {
            size_t frontier_end = vars.size();
            for (size_t vi = frontier_begin; vi < frontier_end; ++vi) {
                sem::TermId equation = equation_fact(vars[vi]);
                if (equation != sem::kNoTerm) {
                    add_vars_of(equation);
                    facts.push_back(equation);
                }
            }
            frontier_begin = frontier_end;
            if (frontier_begin == vars.size())
                break;
        }
        for (size_t vi = frontier_begin; vi < vars.size(); ++vi) {
            if (may_have_equation(vars[vi])) {
                closure_truncated = true;
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Choose the enumeration set: label arguments first (they decide the
    // goal), then remaining small variables, under the domain budget.
    // ------------------------------------------------------------------
    std::stable_sort(vars.begin() + static_cast<long>(label_var_count),
                     vars.end(),
                     [&](const sem::TermVar& a, const sem::TermVar& b) {
                         return design_.net(a.net).width <
                                design_.net(b.net).width;
                     });
    std::vector<sem::TermVar> enum_vars;
    uint64_t domain = 1;
    for (const sem::TermVar& v : vars) {
        const Net& net = design_.net(v.net);
        if (net.array_size != 0)
            continue;
        if (net.width > opts_.max_enum_width)
            continue;
        uint64_t size = uint64_t{1} << net.width;
        if (domain > opts_.max_candidates / size)
            break;
        if (enum_vars.size() >= opts_.max_enum_vars)
            break;
        enum_vars.push_back(v);
        domain *= size;
    }

    // ------------------------------------------------------------------
    // Memoization: identical canonicalized queries (same labels, same
    // post-closure facts, same variable shapes — rampant across repeated
    // module instances) are decided once. Tiny domains are cheaper to
    // re-enumerate than to serialize, so they skip the cache.
    // ------------------------------------------------------------------
    std::string cache_key;
    if (opts_.cache && domain >= 8) {
        CacheKeyBuilder kb(design_, key_prefix_);
        kb.add_label('L', lhs);
        kb.add_label('R', rhs);
        for (sem::TermId f : facts)
            kb.add_fact(terms_, f);
        cache_key = kb.finish();
        if (auto hit = opts_.cache->lookup(cache_key)) {
            ++stats_.cache_hits;
            result.status = EntailStatus::Proven;
            result.candidates = hit->candidates;
            return result;
        }
        ++stats_.cache_misses;
    }

    // ------------------------------------------------------------------
    // Enumerate candidates (delegated to the configured backend).
    // ------------------------------------------------------------------
    ++stats_.enumerations;
    EnumProblem problem{design_, terms_, lhs, rhs, facts, {}, 1, {}};
    problem.vars.reserve(enum_vars.size());
    for (const sem::TermVar& v : enum_vars)
        problem.vars.push_back({v.net, v.primed, design_.net(v.net).width});
    problem.domain = domain;
    problem.deadline = opts_.deadline;

    result = backend_->enumerate(problem);
    stats_.total_candidates += result.candidates;
    stats_.conflicts += result.conflicts;
    stats_.propagations += result.propagations;
    stats_.learned_clauses += result.learned_clauses;
    stats_.restarts += result.restarts;
    if (result.status == EntailStatus::Refuted && closure_truncated) {
        // The counterexample satisfies a weakened fact set; the equations
        // the closure budget dropped may exclude it, so surrender the
        // verdict rather than report a possibly-unreachable state.
        result.status = EntailStatus::Unknown;
        result.witness.reset();
        result.detail =
            "possible counterexample only: the defining-equation closure "
            "was truncated at closure_depth=" +
            std::to_string(opts_.closure_depth) +
            "; raise it to confirm or refute";
    }
    if (result.proven() && !result.timed_out && !cache_key.empty())
        opts_.cache->insert(cache_key, {result.candidates});
    return result;
}

} // namespace svlc::solver
