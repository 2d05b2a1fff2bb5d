// EnumBackend: the reference enumeration procedure. Plain mixed-radix
// sweep over the candidate space; every fact and label is re-evaluated
// from scratch for every candidate. Slow but obviously correct — the
// test oracle CdclBackend is differentially checked against.
#include "solver/backend.hpp"

namespace svlc::solver {

namespace {

class EnumBackend final : public EntailBackend {
public:
    [[nodiscard]] BackendKind kind() const override {
        return BackendKind::Enum;
    }

    EntailResult enumerate(const EnumProblem& p) override {
        EntailResult result;
        bool any_unknown_failure = false;
        std::string unknown_note;
        backend_detail::DeadlineGate gate(p.deadline);
        for (uint64_t idx = 0; idx < p.domain; ++idx) {
            if (gate.tick()) {
                result.status = EntailStatus::Unknown;
                result.timed_out = true;
                result.detail = "entailment deadline exceeded mid-enumeration";
                return result;
            }
            Assignment asg;
            uint64_t rest = idx;
            for (const EnumProblem::Var& v : p.vars) {
                uint64_t size = uint64_t{1} << v.width;
                asg.set(v.net, v.primed, BitVec(v.width, rest % size));
                rest /= size;
            }
            ++result.candidates;

            bool definitely_sat = true;
            bool possibly_sat = true;
            for (sem::TermId f : p.facts) {
                auto v = eval3(p.terms, f, asg);
                if (v && v->is_zero()) {
                    possibly_sat = false;
                    break;
                }
                if (!v)
                    definitely_sat = false;
            }
            if (!possibly_sat)
                continue;

            auto lv = eval_label(p.lhs, p.design, asg);
            auto rv = eval_label(p.rhs, p.design, asg);
            if (lv && rv) {
                if (p.design.policy.lattice().flows(*lv, *rv))
                    continue;
                Witness w = backend_detail::make_witness(p, asg, *lv, *rv);
                if (definitely_sat) {
                    result.status = EntailStatus::Refuted;
                    result.detail = w.str(p.design);
                    result.witness = std::move(w);
                    return result;
                }
                any_unknown_failure = true;
                if (unknown_note.empty())
                    unknown_note =
                        "possibly-reachable violation: " + w.str(p.design);
            } else {
                any_unknown_failure = true;
                if (unknown_note.empty())
                    unknown_note =
                        "label value depends on signals beyond the "
                        "enumeration budget";
            }
        }

        if (!any_unknown_failure) {
            result.status = EntailStatus::Proven;
        } else {
            result.status = EntailStatus::Unknown;
            result.detail = unknown_note;
        }
        return result;
    }
};

} // namespace

std::unique_ptr<EntailBackend> make_enum_backend() {
    return std::make_unique<EnumBackend>();
}

} // namespace svlc::solver
