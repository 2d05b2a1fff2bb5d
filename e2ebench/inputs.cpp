#include "inputs.hpp"

#include "hunt/corpus.hpp"
#include "proc/sources.hpp"
#include "support/fsutil.hpp"

namespace e2e {

using svlc::driver::JobResult;
using svlc::driver::JobSpec;
using svlc::driver::JobStatus;

// ---------------------------------------------------------------------------
// Known answers, written by hand from the paper and the generators' design:
//
//   input                status     failed  obligations
//   labeled CPU          secure     0       511
//   baseline CPU         secure     0       468
//   vulnerable CPU       rejected   2       511   (§3.2 pc-update bug)
//   quad CPU             secure     0       2065
//   fig3                 rejected   1       5     (implicit downgrade)
//   fig4                 secure     0       7
//   shared_counter       secure     0       6
//   ring-N planted       rejected   N       6N    (one stale guard per core)
//   ring-N clean         secure     0       6N
//   cache-W planted      rejected   1       5     (one stale guard)
//   cache-W clean        secure     0       5
//
// Hunt jobs: a planted scenario gives a replay-confirmed leak, a clean
// ring or cache twin gives none. For the CPU scenarios the ground truth
// is still open, so only "no unconfirmed leak" is asserted.
// ---------------------------------------------------------------------------

std::vector<CpuInput> cpu_inputs() {
    return {
        {"labeled", svlc::proc::labeled_cpu_source(), {"secure", 0, 511}},
        {"baseline", svlc::proc::baseline_cpu_source(), {"secure", 0, 468}},
        {"vulnerable", svlc::proc::vulnerable_cpu_source(),
         {"rejected", 2, 511}},
        {"quad", svlc::proc::quad_core_source(), {"secure", 0, 2065}},
    };
}

Expect ring_expect(size_t cores, bool planted) {
    return {planted ? "rejected" : "secure", planted ? cores : 0, 6 * cores};
}

Expect cache_expect(bool planted) {
    return {planted ? "rejected" : "secure", planted ? 1u : 0u, 5};
}

namespace {

struct HdlInput {
    const char* file;
    Expect expect;
};

const HdlInput kHdl[] = {
    {"fig3_implicit_downgrade.svlc", {"rejected", 1, 5}},
    {"fig4_mode_switch.svlc", {"secure", 0, 7}},
    {"shared_counter.svlc", {"secure", 0, 6}},
};

/// A size in [rung, rung + rung/8]: seeded, but close enough to the rung
/// that every seed gives about the same amount of work.
size_t jitter(Rng& rng, size_t rung) { return rung + rng.below(rung / 8 + 1); }

JobSpec job(std::string name, std::string source, std::string top,
            uint64_t hunt_depth = 0) {
    JobSpec spec;
    spec.name = std::move(name);
    spec.source = std::move(source);
    spec.top = std::move(top);
    spec.hunt_depth = hunt_depth;
    return spec;
}

} // namespace

bool batch_corpus(uint64_t seed, const std::string& hdl_dir,
                  std::vector<BatchJob>& out, std::string& error) {
    Rng rng(seed ^ 0xba7c4c0a9905ull);
    out.clear();
    for (CpuInput& cpu : cpu_inputs())
        out.push_back({job("builtin:" + cpu.name, std::move(cpu.source),
                           ""),
                       cpu.expect});
    for (const HdlInput& h : kHdl) {
        std::string path = hdl_dir + "/" + h.file;
        std::string text;
        if (!svlc::read_file(path, text)) {
            error = "cannot read " + path;
            return false;
        }
        out.push_back({job(std::string("hdl/") + h.file, std::move(text), ""),
                       h.expect});
    }
    for (size_t rung : {8, 16, 32, 64, 128}) {
        size_t cores = jitter(rng, rung);
        for (bool planted : {true, false})
            out.push_back(
                {job("ring" + std::to_string(cores) +
                         (planted ? "_bug" : "_ok"),
                     svlc::hunt::ring_scenario_source(cores, planted),
                     "ring" + std::to_string(cores)),
                 ring_expect(cores, planted)});
    }
    for (size_t rung : {16, 64, 256}) {
        size_t words = jitter(rng, rung);
        for (bool planted : {true, false})
            out.push_back(
                {job("cache" + std::to_string(words) +
                         (planted ? "_bug" : "_ok"),
                     svlc::hunt::cache_scenario_source(words, planted),
                     "cache" + std::to_string(words)),
                 cache_expect(planted)});
    }
    for (svlc::hunt::Scenario& s : svlc::hunt::builtin_scenarios()) {
        bool cpu = s.name.rfind("proc_", 0) == 0;
        HuntCheck check = cpu              ? HuntCheck::NoUnconfirmed
                          : s.planted_leak ? HuntCheck::ConfirmedLeak
                                           : HuntCheck::NoLeak;
        out.push_back({job("hunt:" + s.name, std::move(s.source), s.top,
                           s.depth),
                       {s.planted_leak ? "rejected" : "secure", 0, 0},
                       check});
    }
    return true;
}

bool verdict_ok(const Expect& e, const std::string& status, size_t failed,
                size_t obligations, std::string& why) {
    if (status == e.status && failed == e.failed &&
        obligations == e.obligations)
        return true;
    why = status + ", " + std::to_string(failed) + " failed of " +
          std::to_string(obligations) + "; expected " + e.status + ", " +
          std::to_string(e.failed) + " of " + std::to_string(e.obligations);
    return false;
}

bool batch_result_ok(const BatchJob& job, const JobResult& res,
                     std::string& why) {
    const std::string status = svlc::driver::job_status_name(res.status);
    const std::string& report = res.diagnostics;
    switch (job.hunt) {
    case HuntCheck::None:
        return verdict_ok(job.expect, status, res.failed, res.obligations,
                          why);
    case HuntCheck::ConfirmedLeak:
        if (res.status == JobStatus::Rejected &&
            report.find("replay: confirmed") != std::string::npos)
            return true;
        why = "no confirmed leak (" + status + ")";
        return false;
    case HuntCheck::NoLeak:
        if (res.status == JobStatus::Secure)
            return true;
        why = "leak reported on a clean twin (" + status + ")";
        return false;
    case HuntCheck::NoUnconfirmed:
        // The report must be the hunter's: a job that failed to elaborate
        // is Rejected with only the front end's diagnostics.
        if ((res.status == JobStatus::Secure ||
             res.status == JobStatus::Rejected) &&
            report.rfind("hunt: ", 0) == 0 &&
            report.find("UNCONFIRMED") == std::string::npos)
            return true;
        why = "unconfirmed leak, error or no hunt report (" + status + ")";
        return false;
    }
    return false;
}

std::vector<EditDoc> edit_docs(uint64_t seed) {
    Rng rng(seed ^ 0xed17ed17ull);
    std::vector<EditDoc> docs;
    std::vector<CpuInput> cpus = cpu_inputs();
    const CpuInput& labeled = cpus[0];
    const CpuInput& vulnerable = cpus[2];
    for (int k = 0; k < 4; ++k)
        docs.push_back({"edit/cpu" + std::to_string(k) + ".svlc", "",
                        labeled.source, vulnerable.source, labeled.expect,
                        vulnerable.expect});
    for (size_t k = 0; k < 16; ++k) {
        size_t cores = 16 + 2 * k + rng.below(2);
        docs.push_back({"edit/ring" + std::to_string(k) + ".svlc",
                        "ring" + std::to_string(cores),
                        svlc::hunt::ring_scenario_source(cores, false),
                        svlc::hunt::ring_scenario_source(cores, true),
                        ring_expect(cores, false), ring_expect(cores, true)});
    }
    return docs;
}

} // namespace e2e
