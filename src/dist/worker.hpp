// The distributed batch worker (`svlc worker`): connects to a
// coordinator socket (dist/protocol.hpp), registers, then loops
// lease → verify → result until the coordinator answers "done", at
// which point it delta-syncs its local store up to the coordinator and
// exits.
//
// A worker is a plain blocking client of the coordinator — it holds no
// open request while verifying, so a wedged job never wedges the
// protocol, and the coordinator's lease deadline (not the worker)
// decides when a job is given up on. Verification itself is the shared
// driver::verify_text path on one hot Compilation, exactly what `svlc
// batch` and `svlc serve` run, so a worker's verdict for a job is
// byte-identical to either.
#pragma once

#include "check/typecheck.hpp"
#include "support/net.hpp"

#include <cstdint>
#include <string>

namespace svlc::dist {

struct WorkerOptions {
    /// Coordinator socket to connect to.
    std::string socket_path;
    /// Optional worker-local store: answers repeat jobs without
    /// re-verifying and is the source half of the final delta-sync.
    std::string store_dir;
    /// Display name sent at register time (defaults to "worker-<pid>").
    std::string name;
    /// Reconnect policy while the coordinator is still starting up.
    net::RetryOptions retry;
};

struct WorkerStats {
    uint64_t leases = 0;
    uint64_t verified = 0;
    uint64_t store_hits = 0; ///< answered from the worker-local store
    uint64_t waits = 0;
    uint64_t results_accepted = 0;
    uint64_t results_duplicate = 0;
    uint64_t pushed_verdicts = 0;
    uint64_t pushed_obligations = 0;
};

class Worker {
public:
    explicit Worker(WorkerOptions opts);

    /// Connects, registers (adopting the coordinator's checker options),
    /// works the lease loop to completion, then delta-syncs. False with
    /// `error` on connect/register/protocol failure; a verification
    /// failure is a *result* (status error), never a false return.
    bool run(std::string& error);

    [[nodiscard]] const WorkerStats& stats() const { return stats_; }

private:
    WorkerOptions opts_;
    WorkerStats stats_;
};

} // namespace svlc::dist
