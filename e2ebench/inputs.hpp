// Seeded inputs for the three workloads, and the hand-written table of
// known answers every verdict is checked against. The program under test
// only ever sees the generated texts; expectations never come from it.
#pragma once

#include "driver/driver.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// SplitMix64: the same seed gives the same stream on every platform.
class Rng {
public:
    explicit Rng(uint64_t seed) : state_(seed) {}
    uint64_t next() {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    uint64_t below(uint64_t n) { return n ? next() % n : 0; }
    template <class T>
    void shuffle(std::vector<T>& v) {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

private:
    uint64_t state_;
};

/// A known answer: what a correct checker reports for one input.
struct Expect {
    std::string status; // "secure" | "rejected"
    size_t failed = 0;
    size_t obligations = 0;
};

/// Checks a verdict against its known answer; on a mismatch returns false
/// with `why` set.
bool verdict_ok(const Expect& e, const std::string& status, size_t failed,
                size_t obligations, std::string& why);

/// One of the four evaluation processors of src/proc.
struct CpuInput {
    std::string name;
    std::string source;
    Expect expect;
};
std::vector<CpuInput> cpu_inputs();

/// Known answers of the generated twins (hunt::ring_scenario_source and
/// hunt::cache_scenario_source).
Expect ring_expect(size_t cores, bool planted);
Expect cache_expect(bool planted);

/// What a hunt job must show in its rendered report.
enum class HuntCheck {
    None,          ///< not a hunt job
    ConfirmedLeak, ///< planted: a replay-confirmed leak
    NoLeak,        ///< clean twin: no leak
    NoUnconfirmed, ///< CPU: ground truth open; only no unconfirmed leak
};

struct BatchJob {
    svlc::driver::JobSpec spec;
    Expect expect;
    HuntCheck hunt = HuntCheck::None;
};

/// The batch-corpus workload's jobs: the four CPUs, the three hdl/
/// designs, ring and cache twins at seeded sizes, and the built-in hunt
/// scenarios as hunt jobs. Fixed job order; the seed picks the sizes.
bool batch_corpus(uint64_t seed, const std::string& hdl_dir,
                  std::vector<BatchJob>& out, std::string& error);

/// Checks one batch result against its job's known answer; on a
/// mismatch returns false with `why` set.
bool batch_result_ok(const BatchJob& job,
                     const svlc::driver::JobResult& res, std::string& why);

/// One editor buffer of the edit-loop workload: a clean/planted twin
/// pair, flipped by the edit stream.
struct EditDoc {
    std::string name;
    std::string top;
    std::string clean;
    std::string planted;
    Expect clean_expect;
    Expect planted_expect;
};

/// Four CPU buffers (labeled <-> vulnerable) and sixteen ring-N buffers
/// (next(mode) <-> stale guard) at seeded sizes of 16 to 47 cores:
/// twenty buffers, more than the daemon's default of sixteen sessions.
/// The rings start at 16 cores so that the median edit is verification
/// work, not mostly the cross-thread wake-ups of a round trip, which
/// swing with machine load.
std::vector<EditDoc> edit_docs(uint64_t seed);

} // namespace e2e
