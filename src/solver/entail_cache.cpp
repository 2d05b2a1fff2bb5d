#include "solver/entail_cache.hpp"

#include "sem/term_write.hpp"

#include <cstdio>
#include <functional>

namespace svlc::solver {

using namespace hir;

// ---------------------------------------------------------------------------
// EntailCache
// ---------------------------------------------------------------------------

EntailCache::Stats EntailCache::Stats::since(const Stats& base) const {
    Stats d;
    d.hits = hits - base.hits;
    d.misses = misses - base.misses;
    d.inserts = inserts - base.inserts;
    d.evictions = evictions - base.evictions;
    d.entries = entries;
    return d;
}

EntailCache::EntailCache(size_t capacity)
    : per_shard_capacity_(capacity / kShards ? capacity / kShards : 1) {}

size_t EntailCache::shard_of(const std::string& key) {
    return std::hash<std::string>{}(key) % kShards;
}

std::optional<EntailCache::ProvenEntry>
EntailCache::lookup(const std::string& key) {
    Shard& shard = shards_[shard_of(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

void EntailCache::insert(const std::string& key, ProvenEntry entry) {
    Shard& shard = shards_[shard_of(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.map.emplace(key, entry);
    if (!inserted)
        return; // first writer wins (identical payload anyway)
    shard.fifo.push_back(key);
    inserts_.fetch_add(1, std::memory_order_relaxed);
    while (shard.map.size() > per_shard_capacity_ && !shard.fifo.empty()) {
        shard.map.erase(shard.fifo.front());
        shard.fifo.pop_front();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

EntailCache::Stats EntailCache::stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.inserts = inserts_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(
            const_cast<std::mutex&>(shard.mu));
        s.entries += shard.map.size();
    }
    return s;
}

std::vector<std::pair<std::string, EntailCache::ProvenEntry>>
EntailCache::snapshot() const {
    std::vector<std::pair<std::string, ProvenEntry>> out;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(
            const_cast<std::mutex&>(shard.mu));
        for (const std::string& key : shard.fifo) {
            auto it = shard.map.find(key);
            if (it != shard.map.end())
                out.emplace_back(key, it->second);
        }
    }
    return out;
}

void EntailCache::clear() {
    for (Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.map.clear();
        shard.fifo.clear();
    }
}

// ---------------------------------------------------------------------------
// Policy fingerprint
// ---------------------------------------------------------------------------

std::string policy_fingerprint(const SecurityPolicy& policy) {
    std::string out;
    out.reserve(256);
    const Lattice& lat = policy.lattice();
    out += "lat[";
    for (LevelId i = 0; i < lat.size(); ++i) {
        out += lat.name(i);
        out += ';';
    }
    out += '|';
    // Full ⊑ relation, one bit per ordered pair.
    for (LevelId a = 0; a < lat.size(); ++a)
        for (LevelId b = 0; b < lat.size(); ++b)
            out += lat.flows(a, b) ? '1' : '0';
    out += "]fn[";
    char buf[32];
    for (FuncId f = 0; f < policy.function_count(); ++f) {
        const LabelFunction& fn = policy.function(f);
        out += fn.name();
        out += '(';
        for (uint32_t w : fn.arg_widths()) {
            std::snprintf(buf, sizeof buf, "%u,", w);
            out += buf;
        }
        std::snprintf(buf, sizeof buf, ")=%u{", fn.default_level());
        out += buf;
        for (const auto& e : fn.entries()) {
            for (uint64_t a : e.args) {
                std::snprintf(buf, sizeof buf, "%llx,",
                              static_cast<unsigned long long>(a));
                out += buf;
            }
            std::snprintf(buf, sizeof buf, "->%u;", e.level);
            out += buf;
        }
        out += '}';
    }
    out += ']';
    return out;
}

// ---------------------------------------------------------------------------
// CacheKeyBuilder
// ---------------------------------------------------------------------------

CacheKeyBuilder::CacheKeyBuilder(const Design& design,
                                 const std::string& prefix)
    : design_(design) {
    out_.reserve(prefix.size() + 512);
    out_ += prefix;
    out_ += '\n';
}

uint32_t CacheKeyBuilder::canon(NetId net) {
    auto [it, inserted] =
        ids_.emplace(net, static_cast<uint32_t>(order_.size()));
    if (inserted)
        order_.push_back(net);
    return it->second;
}

void CacheKeyBuilder::add_label(char tag, const SolverLabel& label) {
    char buf[48];
    out_ += tag;
    out_ += '[';
    for (const auto& atom : label.atoms) {
        if (atom.kind == SolverAtom::Kind::Level) {
            std::snprintf(buf, sizeof buf, "l%u;", atom.level);
            out_ += buf;
        } else {
            std::snprintf(buf, sizeof buf, "f%u(", atom.func);
            out_ += buf;
            for (const auto& arg : atom.args) {
                std::snprintf(buf, sizeof buf, "n%u%s,", canon(arg.net),
                              arg.primed ? "'" : "");
                out_ += buf;
            }
            out_ += ");";
        }
    }
    out_ += ']';
}

void CacheKeyBuilder::add_fact(const sem::TermTable& terms,
                               sem::TermId fact) {
    struct Refs {
        CacheKeyBuilder* b;
        void net(std::string& out, NetId n, bool primed) {
            char buf[24];
            std::snprintf(buf, sizeof buf, "n%u%s", b->canon(n),
                          primed ? "'" : "");
            out += buf;
        }
    } refs{this};
    out_ += "F:";
    sem::write_term(out_, terms, fact, refs);
    out_ += '\n';
}

std::string CacheKeyBuilder::finish() {
    // Declaration section: the decision procedure's behaviour depends only
    // on each variable's width and scalar/array-ness (enumerability), so
    // those pin down the canonical variables completely.
    char buf[64];
    out_ += "D:";
    for (uint32_t i = 0; i < order_.size(); ++i) {
        const Net& net = design_.net(order_[i]);
        std::snprintf(buf, sizeof buf, "v%u:w%u:a%llu;", i, net.width,
                      static_cast<unsigned long long>(net.array_size));
        out_ += buf;
    }
    return std::move(out_);
}

} // namespace svlc::solver
