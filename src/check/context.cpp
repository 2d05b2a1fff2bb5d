#include "check/context.hpp"

#include "sem/term_write.hpp"

#include <cstdio>
#include <unordered_map>

namespace svlc::check {

using namespace hir;
using solver::SolverAtom;
using solver::SolverLabel;

namespace {

// -----------------------------------------------------------------------
// Shared serialization grammar. Terms use sem::write_term; labels use the
// writers below. Both are parameterized on how net/function references
// are rendered:
//   CanonRefs — dense first-occurrence indices (the canonical context)
//   MarkRefs  — binary placeholders (the per-net section cache, rewritten
//               to canonical indices on expansion)
// Both produce the same surrounding literal bytes, so a cached section
// expands to exactly what direct canonical serialization emits.
// -----------------------------------------------------------------------

template <class Refs>
void write_solver_label(std::string& out, char tag, const SolverLabel& label,
                        Refs& refs) {
    char buf[32];
    out += tag;
    out += '[';
    for (const SolverAtom& atom : label.atoms) {
        if (atom.kind == SolverAtom::Kind::Level) {
            std::snprintf(buf, sizeof buf, "l%u;", atom.level);
            out += buf;
        } else {
            refs.func(out, atom.func);
            out += '(';
            for (const auto& arg : atom.args) {
                refs.net(out, arg.net, arg.primed);
                out += ',';
            }
            out += ");";
        }
    }
    out += ']';
}

/// HIR labels carry plain (current-cycle) net arguments only.
template <class Refs>
void write_hir_label(std::string& out, const Label& label, Refs& refs) {
    char buf[32];
    out += '[';
    for (const LabelAtom& atom : label.atoms) {
        if (atom.kind == LabelAtom::Kind::Level) {
            std::snprintf(buf, sizeof buf, "l%u;", atom.level);
            out += buf;
        } else {
            refs.func(out, atom.func);
            out += '(';
            for (NetId arg : atom.args) {
                refs.net(out, arg, false);
                out += ',';
            }
            out += ");";
        }
    }
    out += ']';
}

/// Binary placeholders for the section cache: ids cannot be textual
/// because canonical indices differ per obligation. The marker bytes can
/// never collide with literal text — the grammar embeds no user-provided
/// strings (names are render-only and excluded by design).
constexpr char kNetMark = '\x01';
constexpr char kFuncMark = '\x02';

struct MarkRefs {
    static void put_u32(std::string& out, uint32_t v) {
        out += static_cast<char>(v & 0xff);
        out += static_cast<char>((v >> 8) & 0xff);
        out += static_cast<char>((v >> 16) & 0xff);
        out += static_cast<char>((v >> 24) & 0xff);
    }
    void net(std::string& out, NetId n, bool primed) {
        out += kNetMark;
        put_u32(out, n);
        out += primed ? '\1' : '\0';
    }
    void func(std::string& out, FuncId f) {
        out += kFuncMark;
        put_u32(out, f);
    }
};

uint32_t read_u32(const char* p) {
    return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
           static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
           static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
           static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

/// Serializes one obligation into canonical bytes. The term grammar is
/// solver::CacheKeyBuilder's (both use sem::write_term), but the
/// surrounding sections differ: this key carries the lattice matrix,
/// the dependency slice's declarations/labels/equations, and the
/// referenced function tables — everything a *persisted* verdict must be
/// keyed by, where the in-process entail cache can lean on its
/// policy-fingerprint prefix instead.
class ContextBuilder {
public:
    ContextBuilder(const Design& design, const sem::Equations& eqs,
                   ContextCache* cache)
        : design_(design), eqs_(eqs), terms_(eqs.terms), cache_(cache) {
        out_.reserve(1024);
    }

    ObligationContext build(const SolverLabel& lhs, const SolverLabel& rhs,
                            const std::vector<sem::TermId>& facts) {
        CanonRefs refs{this};
        put_lattice();
        write_solver_label(out_, 'L', lhs, refs);
        write_solver_label(out_, 'R', rhs, refs);
        for (sem::TermId f : facts) {
            out_ += "F:";
            sem::write_term(out_, terms_, f, refs);
            out_ += '\n';
        }
        // Expand the roots referenced so far to their dependency closure.
        // The slice preserves first-occurrence order, so canon(slice[i])
        // lands on i and the serialization stays order-canonical.
        sem::DependencySlice slice = sem::dependency_slice(
            design_, eqs_, order_, cache_ ? &cache_->graph() : nullptr);
        char buf[32];
        for (NetId n : slice.nets) {
            std::snprintf(buf, sizeof buf, "S%u", canon(n));
            out_ += buf;
            if (cache_)
                expand(cache_->section(design_, eqs_, n));
            else
                direct_section(n, refs);
        }
        // Function tables, one per referenced function, in first-reference
        // order. Names are omitted (render-only); argument widths, the
        // default level, and the full entry table pin the semantics.
        out_ += "FN:";
        char fbuf[64];
        for (FuncId f : forder_) {
            const LabelFunction& fn = design_.policy.function(f);
            out_ += '(';
            for (uint32_t w : fn.arg_widths()) {
                std::snprintf(fbuf, sizeof fbuf, "%u,", w);
                out_ += fbuf;
            }
            std::snprintf(fbuf, sizeof fbuf, ")=%u{", fn.default_level());
            out_ += fbuf;
            for (const auto& e : fn.entries()) {
                for (uint64_t a : e.args) {
                    std::snprintf(fbuf, sizeof fbuf, "%llx,",
                                  static_cast<unsigned long long>(a));
                    out_ += fbuf;
                }
                std::snprintf(fbuf, sizeof fbuf, "->%u;", e.level);
                out_ += fbuf;
            }
            out_ += '}';
        }
        ObligationContext ctx;
        ctx.bytes = std::move(out_);
        ctx.nets = std::move(slice.nets);
        return ctx;
    }

private:
    struct CanonRefs {
        ContextBuilder* b;
        void net(std::string& out, NetId n, bool primed) {
            char buf[24];
            std::snprintf(buf, sizeof buf, "n%u%s", b->canon(n),
                          primed ? "'" : "");
            out += buf;
        }
        void func(std::string& out, FuncId f) {
            char buf[24];
            std::snprintf(buf, sizeof buf, "f%u", b->canon_func(f));
            out += buf;
        }
    };

    uint32_t canon(NetId net) {
        auto [it, inserted] =
            ids_.emplace(net, static_cast<uint32_t>(order_.size()));
        if (inserted)
            order_.push_back(net);
        return it->second;
    }

    uint32_t canon_func(FuncId f) {
        auto [it, inserted] =
            fids_.emplace(f, static_cast<uint32_t>(forder_.size()));
        if (inserted)
            forder_.push_back(f);
        return it->second;
    }

    void put_lattice() {
        const Lattice& lat = design_.policy.lattice();
        char buf[32];
        std::snprintf(buf, sizeof buf, "lat%u|",
                      static_cast<unsigned>(lat.size()));
        out_ += buf;
        // Full ⊑ relation; level ids are pinned by this matrix, so raw
        // LevelIds are safe in the atom serialization below. Level names
        // are deliberately absent (render-only).
        for (LevelId a = 0; a < lat.size(); ++a)
            for (LevelId b = 0; b < lat.size(); ++b)
                out_ += lat.flows(a, b) ? '1' : '0';
        out_ += '\n';
    }

    /// Uncached per-net section (no ContextCache supplied).
    void direct_section(NetId n, CanonRefs& refs) {
        const Net& net = design_.net(n);
        char buf[48];
        std::snprintf(buf, sizeof buf, ":k%d:w%u:a%llu:G",
                      net.kind == NetKind::Seq ? 1 : 0, net.width,
                      static_cast<unsigned long long>(net.array_size));
        out_ += buf;
        write_hir_label(out_, net.label, refs);
        out_ += ":E";
        if (sem::TermId def = eqs_.def(n); def != sem::kNoTerm)
            sem::write_term(out_, terms_, def, refs);
        else
            out_ += '-';
        out_ += '\n';
    }

    /// Copies a cached section, rewriting placeholder ids to canonical
    /// indices. Byte-for-byte identical to direct_section's output.
    /// Decimal append; same bytes as snprintf("%u") at a fraction of the
    /// cost — expansion rewrites a placeholder for every net reference in
    /// every slice, which makes this the hottest loop of a warm replay.
    static void append_u32(std::string& out, uint32_t v) {
        char buf[10];
        char* p = buf + sizeof buf;
        do {
            *--p = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v);
        out.append(p, buf + sizeof buf - p);
    }

    void expand(const std::string& sec) {
        const char* p = sec.data();
        const char* end = p + sec.size();
        const char* lit = p;
        while (p != end) {
            if (*p == kNetMark) {
                out_.append(lit, p - lit);
                uint32_t raw = read_u32(p + 1);
                bool primed = p[5] != '\0';
                out_ += 'n';
                append_u32(out_, canon(raw));
                if (primed)
                    out_ += '\'';
                p += 6;
                lit = p;
            } else if (*p == kFuncMark) {
                out_.append(lit, p - lit);
                out_ += 'f';
                append_u32(out_, canon_func(read_u32(p + 1)));
                p += 5;
                lit = p;
            } else {
                ++p;
            }
        }
        out_.append(lit, p - lit);
    }

    const Design& design_;
    const sem::Equations& eqs_;
    const sem::TermTable& terms_;
    ContextCache* cache_;
    std::string out_;
    std::unordered_map<NetId, uint32_t> ids_;
    std::vector<NetId> order_;
    std::unordered_map<FuncId, uint32_t> fids_;
    std::vector<FuncId> forder_;
};

} // namespace

const std::string& ContextCache::section(const hir::Design& design,
                                         const sem::Equations& eqs,
                                         hir::NetId n) {
    auto it = sections_.find(n);
    if (it != sections_.end())
        return it->second;
    const Net& net = design.net(n);
    std::string out;
    char buf[48];
    std::snprintf(buf, sizeof buf, ":k%d:w%u:a%llu:G",
                  net.kind == NetKind::Seq ? 1 : 0, net.width,
                  static_cast<unsigned long long>(net.array_size));
    out += buf;
    MarkRefs marks;
    write_hir_label(out, net.label, marks);
    out += ":E";
    if (sem::TermId def = eqs.def(n); def != sem::kNoTerm)
        sem::write_term(out, eqs.terms, def, marks);
    else
        out += '-';
    out += '\n';
    return sections_.emplace(n, std::move(out)).first->second;
}

ObligationContext obligation_context(const Design& design,
                                     const sem::Equations& eqs,
                                     const SolverLabel& lhs,
                                     const SolverLabel& rhs,
                                     const std::vector<sem::TermId>& facts,
                                     ContextCache* cache) {
    return ContextBuilder(design, eqs, cache).build(lhs, rhs, facts);
}

std::u32string obligation_context_key(const SolverLabel& lhs,
                                      const SolverLabel& rhs,
                                      const std::vector<sem::TermId>& facts) {
    std::u32string key;
    key.reserve(16 + facts.size());
    for (const SolverLabel* label : {&lhs, &rhs}) {
        key += static_cast<char32_t>(label->atoms.size());
        for (const SolverAtom& atom : label->atoms) {
            if (atom.kind == SolverAtom::Kind::Level) {
                key += U'l';
                key += static_cast<char32_t>(atom.level);
                continue;
            }
            key += U'f';
            key += static_cast<char32_t>(atom.func);
            key += static_cast<char32_t>(atom.args.size());
            for (const auto& arg : atom.args)
                key += static_cast<char32_t>(arg.net * 2 + (arg.primed ? 1 : 0));
        }
    }
    for (sem::TermId f : facts)
        key += static_cast<char32_t>(f);
    return key;
}

} // namespace svlc::check
