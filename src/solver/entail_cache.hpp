// Memoizing cache for entailment queries.
//
// The checker discharges one obligation C(•η) ⇒ τ⊔pc ⊑ τ' per assignment
// site, and designs that instantiate the same module (or the same label
// functions) many times produce the *same* obligation over and over —
// modulo net identity. The cache canonicalizes a query into a
// design-independent key:
//
//   * every referenced net is renamed to a dense index in order of first
//     occurrence (so `c0.pc` and `c3.pc` produce identical keys),
//   * each canonical variable carries its width / array-size declaration
//     (the only net attributes the decision procedure depends on once the
//     defining-equation closure has been folded into the fact set),
//   * the key is prefixed with a full serialization of the security
//     policy (lattice order + label-function tables) and of the
//     enumeration budget, so engines over different policies or options
//     never share entries.
//
// Keys are compared by full content — no hash truncation — so a hit is
// exactly a repeated query and reusing the verdict is sound. Only Proven
// results are stored: they carry no witness text, which keeps cache-on
// runs byte-identical to cache-off runs (and independent of which worker
// thread populated the entry first). Refuted/Unknown results re-derive
// their per-instance counterexample text, which only happens on designs
// that are being rejected anyway.
//
// Thread safety: the table is sharded 16 ways, each shard behind its own
// mutex; counters are atomics. Shards evict oldest-inserted entries once
// they reach capacity/16.
#pragma once

#include "sem/hir.hpp"
#include "sem/term_table.hpp"
#include "solver/label.hpp"

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace svlc::solver {

class EntailCache {
public:
    static constexpr size_t kDefaultCapacity = size_t{1} << 20;

    /// What a Proven enumeration is allowed to reuse.
    struct ProvenEntry {
        uint64_t candidates = 0;
    };

    struct Stats {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t inserts = 0;
        uint64_t evictions = 0;
        uint64_t entries = 0;

        [[nodiscard]] double hit_rate() const {
            uint64_t total = hits + misses;
            return total ? static_cast<double>(hits) /
                               static_cast<double>(total)
                         : 0.0;
        }
        /// Counter-wise difference (for per-run deltas).
        [[nodiscard]] Stats since(const Stats& base) const;
    };

    explicit EntailCache(size_t capacity = kDefaultCapacity);

    /// Returns the stored entry on a repeat query; counts a hit/miss.
    std::optional<ProvenEntry> lookup(const std::string& key);
    /// Inserts (first writer wins); evicts the shard's oldest entry when
    /// the shard is at capacity.
    void insert(const std::string& key, ProvenEntry entry);

    [[nodiscard]] Stats stats() const;
    void clear();

    /// Every resident (key, entry) pair, shard by shard, each shard in
    /// insertion order. Within one shard the order is exactly entry age;
    /// across shards it is only approximate, which is all the on-disk
    /// store's oldest-first compaction needs (src/incr).
    [[nodiscard]] std::vector<std::pair<std::string, ProvenEntry>>
    snapshot() const;

private:
    static constexpr size_t kShards = 16;

    struct Shard {
        std::mutex mu;
        std::unordered_map<std::string, ProvenEntry> map;
        std::deque<std::string> fifo; // insertion order, for eviction
    };

    static size_t shard_of(const std::string& key);

    size_t per_shard_capacity_;
    Shard shards_[kShards];
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> inserts_{0};
    std::atomic<uint64_t> evictions_{0};
};

/// Canonical serialization of a security policy: level names in id order,
/// the full ⊑ relation, and every label-function table. Queries from two
/// designs may share cache entries only when these strings are equal,
/// which makes numeric level/function ids interchangeable between them.
std::string policy_fingerprint(const SecurityPolicy& policy);

/// Accumulates one query (lhs label, rhs label, post-closure fact list)
/// into a canonical key. Usage: add_label('L', lhs), add_label('R', rhs),
/// add_fact(...) in fact order, then finish().
class CacheKeyBuilder {
public:
    /// `prefix` is the engine's policy+options fingerprint.
    CacheKeyBuilder(const hir::Design& design, const std::string& prefix);

    void add_label(char tag, const SolverLabel& label);
    void add_fact(const sem::TermTable& terms, sem::TermId fact);

    /// Appends the variable declaration section and returns the key.
    [[nodiscard]] std::string finish();

private:
    uint32_t canon(hir::NetId net);

    const hir::Design& design_;
    std::string out_;
    std::unordered_map<hir::NetId, uint32_t> ids_;
    std::vector<hir::NetId> order_;
};

} // namespace svlc::solver
