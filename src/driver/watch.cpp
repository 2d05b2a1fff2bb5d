#include "driver/watch.hpp"

#include "incr/fingerprint.hpp"
#include "support/fsutil.hpp"

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace svlc::driver {

namespace {

namespace fs = std::filesystem;

/// Last observed state of one watched job.
struct WatchedJob {
    /// stat() signature; a change is the cheap trigger for re-hashing.
    StatSig sig;
    /// Full verification fingerprint; a change means re-verify.
    std::string fingerprint;
    /// Last verdict, for transition reporting ("" before first run).
    std::string verdict;
};

} // namespace

bool stat_file(const std::string& path, StatSig& out) {
    std::error_code ec;
    auto t = fs::last_write_time(path, ec);
    if (ec)
        return false;
    auto sz = fs::file_size(path, ec);
    if (ec)
        return false;
    out.mtime_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t.time_since_epoch())
                       .count();
    out.size = sz;
    return true;
}

int64_t file_clock_now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               fs::file_time_type::clock::now().time_since_epoch())
        .count();
}

bool stat_proves_unchanged(const StatSig& prev, const StatSig& cur,
                           int64_t now_ns) {
    if (prev.mtime_ns < 0 || !(prev == cur))
        return false;
    // A file touched within the racy window may have been rewritten again
    // without moving a coarse-granularity timestamp — don't trust it.
    return now_ns - cur.mtime_ns >= kStatRacyWindowNs;
}

int run_watch(const std::string& target, const WatchOptions& opts,
              std::FILE* out, std::FILE* err) {
    // One driver for the whole session: the store (if any) is opened
    // once.
    VerificationDriver drv(opts.driver);

    std::map<std::string, WatchedJob> state; // keyed by job name
    uint64_t iteration = 0;

    std::fprintf(out, "watching %s (poll %llu ms%s)\n", target.c_str(),
                 static_cast<unsigned long long>(opts.interval_ms),
                 drv.store() ? ", persistent store on" : "");

    for (;;) {
        ++iteration;

        std::vector<JobSpec> jobs;
        std::string error;
        bool collected = collect_jobs(target, jobs, error);
        if (opts.include_cpus) {
            auto cpus = builtin_cpu_jobs();
            jobs.insert(jobs.end(), std::make_move_iterator(cpus.begin()),
                        std::make_move_iterator(cpus.end()));
        }
        if (!collected && jobs.empty()) {
            // On iteration 1 a bad target is a usage error; later it is
            // transient (e.g. the last .svlc file was deleted mid-edit).
            if (iteration == 1) {
                std::fprintf(err, "%s\n", error.c_str());
                return 2;
            }
            std::fprintf(out, "[watch #%llu] %s; waiting\n",
                         static_cast<unsigned long long>(iteration),
                         error.c_str());
        }

        // Dirty detection: stat first, hash only when the stat signature
        // moved or is too fresh to trust (see stat_proves_unchanged),
        // then compare fingerprints so a `touch` without a content change
        // stays clean.
        std::vector<JobSpec> dirty;
        std::map<std::string, WatchedJob> next_state;
        int64_t now_ns = file_clock_now_ns();
        for (const auto& spec : jobs) {
            auto prev = state.find(spec.name);
            WatchedJob w;
            bool readable = true;
            if (!spec.path.empty()) {
                if (!stat_file(spec.path, w.sig))
                    readable = false;
                else if (prev != state.end() &&
                         stat_proves_unchanged(prev->second.sig, w.sig,
                                               now_ns))
                    w.fingerprint = prev->second.fingerprint;
            }
            if (readable && w.fingerprint.empty()) {
                std::string text = spec.source;
                if (!spec.path.empty() && !read_file(spec.path, text))
                    readable = false;
                else
                    w.fingerprint = incr::job_fingerprint(
                        spec.name, text, spec.top, opts.driver.check);
            }
            if (!readable) {
                // Vanished between stat and read (editor save dance);
                // keep the old state and retry next poll.
                if (prev != state.end())
                    next_state[spec.name] = prev->second;
                continue;
            }
            if (prev != state.end())
                w.verdict = prev->second.verdict;
            if (prev == state.end() ||
                prev->second.fingerprint != w.fingerprint)
                dirty.push_back(spec);
            next_state[spec.name] = std::move(w);
        }
        for (const auto& [name, w] : state)
            if (!next_state.count(name))
                std::fprintf(out, "[watch #%llu] %s removed\n",
                             static_cast<unsigned long long>(iteration),
                             name.c_str());
        state = std::move(next_state);

        if (!dirty.empty()) {
            BatchReport report = drv.run(dirty);
            std::fprintf(
                out,
                "[watch #%llu] %zu/%zu job(s) dirty, re-verified in %.1f "
                "ms (%zu from store)\n",
                static_cast<unsigned long long>(iteration), dirty.size(),
                jobs.size(), report.wall_ms, report.skipped_count());
            size_t cycle_solved = 0, cycle_replayed = 0;
            for (const auto& r : report.results) {
                cycle_solved += r.obligations_solved;
                cycle_replayed += r.obligations_replayed;
            }
            std::fprintf(out,
                         "[watch #%llu] %zu obligation(s) re-solved, %zu "
                         "replayed, %.1f ms\n",
                         static_cast<unsigned long long>(iteration),
                         cycle_solved, cycle_replayed, report.wall_ms);
            for (const auto& r : report.results) {
                std::string verdict = job_status_name(r.status);
                auto it = state.find(r.name);
                std::string prev_verdict =
                    it != state.end() ? it->second.verdict : "";
                if (prev_verdict.empty())
                    std::fprintf(out, "  %-10s %s\n", verdict.c_str(),
                                 r.name.c_str());
                else if (prev_verdict != verdict)
                    std::fprintf(out, "  %-10s %s (was %s)\n",
                                 verdict.c_str(), r.name.c_str(),
                                 prev_verdict.c_str());
                else
                    std::fprintf(out, "  %-10s %s (unchanged)\n",
                                 verdict.c_str(), r.name.c_str());
                if (it != state.end())
                    it->second.verdict = verdict;
            }
        } else {
            std::fprintf(out, "[watch #%llu] clean (%zu job(s))\n",
                         static_cast<unsigned long long>(iteration),
                         jobs.size());
        }
        std::fflush(out);

        if (opts.max_iterations && iteration >= opts.max_iterations)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts.interval_ms));
    }
}

} // namespace svlc::driver
