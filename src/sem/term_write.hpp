// The canonical byte grammar of a term, shared by the obligation context
// (check/context.cpp, persisted in the store) and the entailment cache key
// (solver/entail_cache.cpp). Parameterized on how a net reference is
// rendered: `refs.net(out, net, primed)` appends it. Widths and operator
// tags are explicit; a downgrade's declared label is not written (facts
// are evaluated for their value, and a downgrade is the identity on it).
#pragma once

#include "sem/term_table.hpp"

#include <cstdio>
#include <string>

namespace svlc::sem {

template <class Refs>
void write_term(std::string& out, const TermTable& terms, TermId id,
                Refs& refs) {
    const TermNode& e = terms.node(id);
    auto kid = [&](size_t i) {
        write_term(out, terms, terms.operand(id, i), refs);
    };
    char buf[48];
    switch (e.kind) {
    case hir::ExprKind::Const:
        std::snprintf(buf, sizeof buf, "#%u:%llx", e.width,
                      static_cast<unsigned long long>(e.value.value()));
        out += buf;
        return;
    case hir::ExprKind::NetRef:
        refs.net(out, e.net, e.primed);
        return;
    case hir::ExprKind::ArrayRead:
        out += "(idx ";
        refs.net(out, e.net, e.primed);
        out += ' ';
        kid(0);
        out += ')';
        return;
    case hir::ExprKind::Slice:
        std::snprintf(buf, sizeof buf, "(sl %u:%u ", e.msb, e.lsb);
        out += buf;
        kid(0);
        out += ')';
        return;
    case hir::ExprKind::Unary:
        std::snprintf(buf, sizeof buf, "(u%d:%u ", static_cast<int>(e.op),
                      e.width);
        out += buf;
        kid(0);
        out += ')';
        return;
    case hir::ExprKind::Binary:
        std::snprintf(buf, sizeof buf, "(b%d:%u ", static_cast<int>(e.op),
                      e.width);
        out += buf;
        kid(0);
        out += ' ';
        kid(1);
        out += ')';
        return;
    case hir::ExprKind::Cond:
        out += "(? ";
        kid(0);
        out += ' ';
        kid(1);
        out += ' ';
        kid(2);
        out += ')';
        return;
    case hir::ExprKind::Concat:
        out += "(cat";
        for (size_t i = 0; i < e.count; ++i) {
            out += ' ';
            kid(i);
        }
        out += ')';
        return;
    case hir::ExprKind::Downgrade:
        std::snprintf(buf, sizeof buf, "(dg%d ", static_cast<int>(e.op));
        out += buf;
        kid(0);
        out += ')';
        return;
    }
}

} // namespace svlc::sem
