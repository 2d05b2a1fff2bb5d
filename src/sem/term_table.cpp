#include "sem/term_table.hpp"

#include <algorithm>
#include <cassert>

namespace svlc::sem {

using namespace hir;

namespace {

uint64_t mix(uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

uint64_t finalize(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

uint64_t node_hash(const TermNode& n, std::span<const TermId> kids) {
    uint64_t h = static_cast<uint64_t>(n.kind) | uint64_t{n.op} << 8 |
                 uint64_t{n.primed} << 16 | uint64_t{n.width} << 32;
    h = mix(h, n.net);
    h = mix(h, uint64_t{n.msb} << 32 | n.lsb);
    h = mix(h, n.value.value());
    h = mix(h, uint64_t{n.value.width()} << 32 | n.label);
    for (TermId k : kids)
        h = mix(h, k);
    return finalize(h);
}

} // namespace

TermTable::TermTable() : slots_(1024, kNoTerm) {}

bool TermTable::same(const TermNode& n, const TermNode& key,
                     std::span<const TermId> kids) const {
    if (n.hash != key.hash || n.kind != key.kind || n.op != key.op ||
        n.primed != key.primed || n.width != key.width || n.net != key.net ||
        n.msb != key.msb || n.lsb != key.lsb || !(n.value == key.value) ||
        n.label != key.label || n.count != kids.size())
        return false;
    return std::equal(kids.begin(), kids.end(), kids_.begin() + n.first);
}

void TermTable::rehash() {
    std::vector<TermId> slots(slots_.size() * 2, kNoTerm);
    size_t mask = slots.size() - 1;
    for (TermId id = 0; id < nodes_.size(); ++id) {
        size_t i = nodes_[id].hash & mask;
        while (slots[i] != kNoTerm)
            i = (i + 1) & mask;
        slots[i] = id;
    }
    slots_ = std::move(slots);
}

TermId TermTable::make(TermNode key, std::span<const TermId> kids) {
    key.hash = node_hash(key, kids);
    size_t mask = slots_.size() - 1;
    size_t i = key.hash & mask;
    for (; slots_[i] != kNoTerm; i = (i + 1) & mask)
        if (same(nodes_[slots_[i]], key, kids))
            return slots_[i];
    TermId id = static_cast<TermId>(nodes_.size());
    key.first = static_cast<uint32_t>(kids_.size());
    key.count = static_cast<uint32_t>(kids.size());
    kids_.insert(kids_.end(), kids.begin(), kids.end());
    nodes_.push_back(key);
    slots_[i] = id;
    if (nodes_.size() * 2 > slots_.size())
        rehash();
    return id;
}

uint32_t TermTable::intern_label(const Label& label) {
    auto it = std::find(labels_.begin(), labels_.end(), label);
    if (it != labels_.end())
        return static_cast<uint32_t>(it - labels_.begin());
    labels_.push_back(label);
    return static_cast<uint32_t>(labels_.size() - 1);
}

TermId TermTable::constant(BitVec v) {
    TermNode n;
    n.kind = ExprKind::Const;
    n.width = v.width();
    n.value = v;
    return make(n, {});
}

TermId TermTable::net(NetId id, uint32_t width, bool primed) {
    TermNode n;
    n.kind = ExprKind::NetRef;
    n.net = id;
    n.width = width;
    n.primed = primed;
    return make(n, {});
}

TermId TermTable::unary(UnaryOp op, TermId a) {
    TermNode n;
    n.kind = ExprKind::Unary;
    n.op = static_cast<uint8_t>(op);
    n.width = (op == UnaryOp::LogNot || op == UnaryOp::RedAnd ||
               op == UnaryOp::RedOr || op == UnaryOp::RedXor)
                  ? 1
                  : nodes_[a].width;
    TermId kids[] = {a};
    return make(n, kids);
}

TermId TermTable::binary(BinaryOp op, TermId a, TermId b) {
    TermNode n;
    n.kind = ExprKind::Binary;
    n.op = static_cast<uint8_t>(op);
    switch (op) {
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
    case BinaryOp::LogAnd:
    case BinaryOp::LogOr:
        n.width = 1;
        break;
    case BinaryOp::Shl:
    case BinaryOp::Shr:
        n.width = nodes_[a].width;
        break;
    default:
        n.width = std::max(nodes_[a].width, nodes_[b].width);
        break;
    }
    TermId kids[] = {a, b};
    return make(n, kids);
}

TermId TermTable::cond(TermId c, TermId t, TermId f) {
    TermNode n;
    n.kind = ExprKind::Cond;
    n.width = std::max(nodes_[t].width, nodes_[f].width);
    TermId kids[] = {c, t, f};
    return make(n, kids);
}

TermId TermTable::intern(const Expr& e) { return intern_rec(e, nullptr); }

TermId TermTable::intern(const Expr& e,
                         const std::unordered_map<NetId, TermId>& subst) {
    return intern_rec(e, &subst);
}

TermId TermTable::intern_rec(const Expr& e,
                             const std::unordered_map<NetId, TermId>* subst) {
    TermNode n;
    n.kind = e.kind;
    n.width = e.width;
    switch (e.kind) {
    case ExprKind::Const:
        n.value = e.value;
        return make(n, {});
    case ExprKind::NetRef:
        if (subst && !e.primed) {
            auto it = subst->find(e.net);
            if (it != subst->end())
                return it->second;
        }
        n.net = e.net;
        n.primed = e.primed;
        return make(n, {});
    case ExprKind::ArrayRead: {
        n.net = e.net;
        n.primed = e.primed;
        TermId kids[] = {intern_rec(*e.index, subst)};
        return make(n, kids);
    }
    case ExprKind::Slice: {
        n.msb = e.msb;
        n.lsb = e.lsb;
        TermId kids[] = {intern_rec(*e.a, subst)};
        return make(n, kids);
    }
    case ExprKind::Unary: {
        n.op = static_cast<uint8_t>(e.un_op);
        TermId kids[] = {intern_rec(*e.a, subst)};
        return make(n, kids);
    }
    case ExprKind::Binary: {
        n.op = static_cast<uint8_t>(e.bin_op);
        TermId a = intern_rec(*e.a, subst);
        TermId kids[] = {a, intern_rec(*e.b, subst)};
        return make(n, kids);
    }
    case ExprKind::Cond: {
        TermId a = intern_rec(*e.a, subst);
        TermId b = intern_rec(*e.b, subst);
        TermId kids[] = {a, b, intern_rec(*e.c, subst)};
        return make(n, kids);
    }
    case ExprKind::Concat: {
        std::vector<TermId> kids;
        kids.reserve(e.parts.size());
        for (const auto& p : e.parts)
            kids.push_back(intern_rec(*p, subst));
        return make(n, kids);
    }
    case ExprKind::Downgrade: {
        n.op = static_cast<uint8_t>(e.dg_kind);
        n.label = intern_label(e.dg_label);
        TermId kids[] = {intern_rec(*e.a, subst)};
        return make(n, kids);
    }
    }
    assert(false && "unreachable");
    return kNoTerm;
}

std::span<const TermVar> TermTable::vars(TermId id) {
    if (var_spans_.size() < nodes_.size())
        var_spans_.resize(nodes_.size());
    VarSpan& cached = var_spans_[id];
    if (cached.begin == kUncached) {
        // One DAG walk: a shared subterm reached a second time can add no
        // variable the first visit did not, so skipping it keeps exactly
        // the tree walk's first-occurrence order.
        uint32_t stamp = next_stamp();
        uint32_t begin = static_cast<uint32_t>(var_pool_.size());
        auto walk = [&](auto& self, TermId t) -> void {
            if (node_stamp_[t] == stamp)
                return;
            node_stamp_[t] = stamp;
            const TermNode& n = nodes_[t];
            if (n.kind == ExprKind::NetRef) {
                if (mark_var(n.net, n.primed, stamp))
                    var_pool_.push_back({n.net, n.primed});
                return;
            }
            for (uint32_t k = 0; k < n.count; ++k)
                self(self, kids_[n.first + k]);
        };
        walk(walk, id);
        cached = {begin, static_cast<uint32_t>(var_pool_.size()) - begin};
    }
    return {var_pool_.data() + cached.begin, cached.count};
}

void TermTable::collect_reads(TermId id, std::vector<NetId>& plain,
                              std::vector<NetId>& primed) const {
    // DAG walk, as in vars(): revisiting a shared subterm only repeats
    // reads already emitted.
    uint32_t stamp = next_stamp();
    auto walk = [&](auto& self, TermId t) -> void {
        if (node_stamp_[t] == stamp)
            return;
        node_stamp_[t] = stamp;
        const TermNode& n = nodes_[t];
        if ((n.kind == ExprKind::NetRef || n.kind == ExprKind::ArrayRead) &&
            mark_var(n.net, n.primed, stamp))
            (n.primed ? primed : plain).push_back(n.net);
        for (uint32_t k = 0; k < n.count; ++k)
            self(self, kids_[n.first + k]);
    };
    walk(walk, id);
}

uint32_t TermTable::next_stamp() const {
    if (node_stamp_.size() < nodes_.size())
        node_stamp_.resize(nodes_.size(), 0);
    return ++stamp_;
}

bool TermTable::mark_var(NetId net, bool primed, uint32_t stamp) const {
    size_t key = size_t{net} * 2 + (primed ? 1 : 0);
    if (var_stamp_.size() <= key)
        var_stamp_.resize(key + 1, 0);
    if (var_stamp_[key] == stamp)
        return false;
    var_stamp_[key] = stamp;
    return true;
}

ExprPtr TermTable::to_expr(TermId id) const {
    if (id == kNoTerm)
        return nullptr;
    const TermNode& n = nodes_[id];
    auto e = std::make_unique<Expr>();
    e->kind = n.kind;
    e->width = n.width;
    auto kid = [&](uint32_t k) { return to_expr(kids_[n.first + k]); };
    switch (n.kind) {
    case ExprKind::Const:
        e->value = n.value;
        break;
    case ExprKind::NetRef:
        e->net = n.net;
        e->primed = n.primed;
        break;
    case ExprKind::ArrayRead:
        e->net = n.net;
        e->primed = n.primed;
        e->index = kid(0);
        break;
    case ExprKind::Slice:
        e->msb = n.msb;
        e->lsb = n.lsb;
        e->a = kid(0);
        break;
    case ExprKind::Unary:
        e->un_op = static_cast<UnaryOp>(n.op);
        e->a = kid(0);
        break;
    case ExprKind::Binary:
        e->bin_op = static_cast<BinaryOp>(n.op);
        e->a = kid(0);
        e->b = kid(1);
        break;
    case ExprKind::Cond:
        e->a = kid(0);
        e->b = kid(1);
        e->c = kid(2);
        break;
    case ExprKind::Concat:
        for (uint32_t k = 0; k < n.count; ++k)
            e->parts.push_back(kid(k));
        break;
    case ExprKind::Downgrade:
        e->dg_kind = static_cast<DowngradeKind>(n.op);
        e->dg_label = labels_[n.label];
        e->a = kid(0);
        break;
    }
    return e;
}

} // namespace svlc::sem
