// `svlc watch` — a resident edit–recheck loop over a batch target.
//
// Each iteration polls the job set: the target is re-collected (new and
// deleted .svlc files are picked up), file jobs are stat'ed, and only
// files whose mtime/size moved are re-read and re-hashed. Jobs whose
// *fingerprint* changed (content hash ⊔ top ⊔ checker configuration) are
// re-verified through the batch driver — sharing, when a store is
// configured, its persistent verdicts and obligation records — and a
// per-iteration delta report (dirty set, verdict transitions, timing) is
// printed. Unchanged jobs cost one stat() each.
#pragma once

#include "driver/driver.hpp"

#include <cstdio>

namespace svlc::driver {

struct WatchOptions {
    /// Driver configuration (workers, timeouts, store).
    DriverOptions driver;
    /// Poll period between iterations.
    uint64_t interval_ms = 500;
    /// Stop after this many iterations; 0 = run until killed. The first
    /// iteration always verifies the full job set (modulo store hits).
    uint64_t max_iterations = 0;
    /// Append the builtin CPU variants to the watched set.
    bool include_cpus = false;
};

/// Runs the watch loop; delta reports go to `out`, infrastructure
/// errors to `err`. Returns 0 on clean exit (iteration budget reached),
/// 2 when the target cannot be collected at startup.
int run_watch(const std::string& target, const WatchOptions& opts,
              std::FILE* out, std::FILE* err);

// --- stat-based dirty detection --------------------------------------------

/// stat() signature of a watched file. Both fields matching the previous
/// observation is a *candidate* reason to skip re-hashing; see
/// stat_proves_unchanged for when it may actually be trusted.
struct StatSig {
    /// last_write_time in ns since the file clock's epoch; -1 = unset.
    int64_t mtime_ns = -1;
    uint64_t size = 0;

    friend bool operator==(const StatSig&, const StatSig&) = default;
};

/// Reads mtime+size; false when the file vanished mid-poll.
bool stat_file(const std::string& path, StatSig& out);

/// Current time on the same clock/epoch as StatSig::mtime_ns.
int64_t file_clock_now_ns();

/// Window within which an unchanged (mtime, size) pair is NOT trusted.
/// Filesystems and archive tools commonly truncate timestamps to whole
/// seconds, so a same-size rewrite within the same second can leave the
/// signature identical; like git's index racy-check, anything modified
/// less than ~2 s ago gets its content re-hashed instead.
constexpr int64_t kStatRacyWindowNs = 2'000'000'000;

/// True when `cur` matching `prev` proves the content is unchanged:
/// identical signature and an mtime old enough (relative to `now_ns`)
/// that even a second-granularity timestamp would have moved on rewrite.
bool stat_proves_unchanged(const StatSig& prev, const StatSig& cur,
                           int64_t now_ns);

} // namespace svlc::driver
