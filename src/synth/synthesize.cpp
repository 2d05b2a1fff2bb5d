#include "synth/synthesize.hpp"

#include "sem/updates.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <unordered_map>

namespace svlc::synth {

using namespace hir;

namespace {

uint32_t clog2(uint64_t n) {
    uint32_t bits = 0;
    while ((uint64_t{1} << bits) < n)
        ++bits;
    return std::max(bits, 1u);
}

class Mapper {
public:
    Mapper(const Design& design, const SynthOptions& opts)
        : design_(design), opts_(opts), eqs_(sem::build_equations(design)) {}

    SynthReport run();

private:
    /// Maps an expression; returns its arrival time (ns). Cells are
    /// accumulated into report_.cells.
    double map_expr(const Expr& e);
    double net_arrival(NetId net, bool primed);

    const Design& design_;
    SynthOptions opts_;
    sem::Equations eqs_;
    SynthReport report_;
    TimingModel timing_;
    std::unordered_map<uint64_t, double> arrival_; // key: net*2 + primed
    std::unordered_map<uint64_t, bool> in_progress_;
};

double Mapper::net_arrival(NetId net, bool primed) {
    const Net& info = design_.net(net);
    if (!primed && (info.kind == NetKind::Seq || info.is_input))
        return timing_.clk_to_q_ns; // register output / primary input
    uint64_t key = uint64_t{net} * 2 + (primed ? 1 : 0);
    auto it = arrival_.find(key);
    if (it != arrival_.end())
        return it->second;
    if (in_progress_[key])
        return timing_.clk_to_q_ns; // defensive: cycles are pre-rejected
    in_progress_[key] = true;
    ExprPtr def = eqs_.terms.to_expr(eqs_.def(net));
    double t = def ? map_expr(*def) : timing_.clk_to_q_ns;
    in_progress_[key] = false;
    arrival_[key] = t;
    return t;
}

double Mapper::map_expr(const Expr& e) {
    CellCounts& cc = report_.cells;
    switch (e.kind) {
    case ExprKind::Const:
        return 0.0;
    case ExprKind::NetRef:
        return net_arrival(e.net, e.primed);
    case ExprKind::ArrayRead: {
        const Net& arr = design_.net(e.net);
        double idx_t = map_expr(*e.index);
        if (arr.array_size >= opts_.sram_threshold_words) {
            // SRAM macro: decoder and sense amps are inside the macro.
            return std::max(idx_t, timing_.clk_to_q_ns) +
                   opts_.sram_access_ns;
        }
        // Register file: read mux tree, (size-1) MUX2 per data bit.
        uint64_t muxes =
            static_cast<uint64_t>(arr.array_size - 1) * arr.width;
        cc.add(Cell::Mux2, muxes);
        double levels = clog2(arr.array_size);
        return std::max(idx_t, timing_.clk_to_q_ns) +
               levels * cell_spec(Cell::Mux2).delay_ns;
    }
    case ExprKind::Slice:
        return map_expr(*e.a); // wiring
    case ExprKind::Unary: {
        double t = map_expr(*e.a);
        switch (e.un_op) {
        case UnaryOp::BitNot:
            cc.add(Cell::Inv, e.a->width);
            return t + cell_spec(Cell::Inv).delay_ns;
        case UnaryOp::Neg:
            cc.add(Cell::FullAdder, e.a->width);
            return t + cell_spec(Cell::FullAdder).delay_ns +
                   clog2(e.a->width) * timing_.cla_stage_ns;
        case UnaryOp::LogNot:
            cc.add(Cell::Or2, e.a->width > 1 ? e.a->width - 1 : 1);
            cc.add(Cell::Inv);
            return t + clog2(e.a->width) * cell_spec(Cell::Or2).delay_ns +
                   cell_spec(Cell::Inv).delay_ns;
        case UnaryOp::RedAnd:
        case UnaryOp::RedOr:
            cc.add(Cell::Or2, e.a->width > 1 ? e.a->width - 1 : 1);
            return t + clog2(e.a->width) * cell_spec(Cell::Or2).delay_ns;
        case UnaryOp::RedXor:
            cc.add(Cell::Xor2, e.a->width > 1 ? e.a->width - 1 : 1);
            return t + clog2(e.a->width) * cell_spec(Cell::Xor2).delay_ns;
        }
        return t;
    }
    case ExprKind::Binary: {
        double ta = map_expr(*e.a);
        double tb = map_expr(*e.b);
        double t = std::max(ta, tb);
        uint32_t w = std::max(e.a->width, e.b->width);
        switch (e.bin_op) {
        case BinaryOp::Add:
        case BinaryOp::Sub:
            cc.add(Cell::FullAdder, w);
            // Carry-lookahead model: ~20% area adder overhead folded into
            // FA count; log-depth carry.
            return t + cell_spec(Cell::FullAdder).delay_ns +
                   clog2(w) * timing_.cla_stage_ns;
        case BinaryOp::Mul:
            cc.add(Cell::FullAdder, static_cast<uint64_t>(w) * w / 2);
            return t + 2.0 * clog2(w) * timing_.cla_stage_ns +
                   cell_spec(Cell::FullAdder).delay_ns;
        case BinaryOp::Div:
        case BinaryOp::Mod:
            // Iterative-array divider (rare in RTL hot paths).
            cc.add(Cell::FullAdder, static_cast<uint64_t>(w) * w);
            return t + w * timing_.cla_stage_ns;
        case BinaryOp::And:
        case BinaryOp::Or:
            cc.add(Cell::And2, w);
            return t + cell_spec(Cell::And2).delay_ns;
        case BinaryOp::Xor:
            cc.add(Cell::Xor2, w);
            return t + cell_spec(Cell::Xor2).delay_ns;
        case BinaryOp::Shl:
        case BinaryOp::Shr:
            if (e.b->kind == ExprKind::Const)
                return t; // wiring
            cc.add(Cell::Mux2,
                   static_cast<uint64_t>(e.a->width) * clog2(e.a->width));
            return t + clog2(e.a->width) * cell_spec(Cell::Mux2).delay_ns;
        case BinaryOp::Eq:
        case BinaryOp::Ne:
            cc.add(Cell::Xor2, w);
            cc.add(Cell::And2, w > 1 ? w - 1 : 1);
            return t + cell_spec(Cell::Xor2).delay_ns +
                   clog2(w) * cell_spec(Cell::And2).delay_ns;
        case BinaryOp::Lt:
        case BinaryOp::Le:
        case BinaryOp::Gt:
        case BinaryOp::Ge:
            cc.add(Cell::FullAdder, w); // subtract-compare
            return t + cell_spec(Cell::FullAdder).delay_ns +
                   clog2(w) * timing_.cla_stage_ns;
        case BinaryOp::LogAnd:
        case BinaryOp::LogOr: {
            uint64_t red = (e.a->width > 1 ? e.a->width - 1 : 0) +
                           (e.b->width > 1 ? e.b->width - 1 : 0);
            if (red)
                cc.add(Cell::Or2, red);
            cc.add(Cell::And2);
            return t +
                   clog2(std::max(e.a->width, e.b->width)) *
                       cell_spec(Cell::Or2).delay_ns +
                   cell_spec(Cell::And2).delay_ns;
        }
        }
        return t;
    }
    case ExprKind::Cond: {
        double tc = map_expr(*e.a);
        double tt = map_expr(*e.b);
        double tf = map_expr(*e.c);
        cc.add(Cell::Mux2, e.width);
        return std::max({tc, tt, tf}) + cell_spec(Cell::Mux2).delay_ns;
    }
    case ExprKind::Concat: {
        double t = 0;
        for (const auto& p : e.parts)
            t = std::max(t, map_expr(*p));
        return t; // wiring
    }
    case ExprKind::Downgrade:
        return map_expr(*e.a); // pure wiring once labels are erased
    }
    assert(false && "unreachable");
    return 0;
}

SynthReport Mapper::run() {
    report_.target_clock_ns = opts_.target_clock_ns;
    double critical = 0;

    for (const Net& net : design_.nets) {
        if (net.kind == NetKind::Com) {
            if (net.is_input)
                continue;
            double t = net_arrival(net.id, false);
            critical = std::max(critical, t);
            continue;
        }
        // Sequential: flip-flops + input network.
        if (net.array_size != 0) {
            uint64_t bits =
                static_cast<uint64_t>(net.width) * net.array_size;
            bool is_sram = net.array_size >= opts_.sram_threshold_words;
            if (is_sram) {
                report_.sram_bits += bits;
                report_.sram_area_um2 +=
                    opts_.sram_bit_area_um2 * static_cast<double>(bits);
            } else {
                report_.ff_bits += bits;
                if (opts_.use_enable_ff) {
                    report_.cells.add(Cell::DffEn, bits);
                    report_.enable_ff_bits += bits;
                } else {
                    report_.cells.add(Cell::Dff, bits);
                    // Hold muxes in front of plain FFs.
                    report_.cells.add(Cell::Mux2, bits);
                }
            }
            // Write-port network: element-select muxing per write site.
            const sem::TermTable& terms = eqs_.terms;
            for (const auto& gw : eqs_.writes[net.id]) {
                double t = 0;
                if (gw.guard != sem::kNoTerm)
                    t = std::max(t, map_expr(*terms.to_expr(gw.guard)));
                if (gw.index != sem::kNoTerm) {
                    t = std::max(t, map_expr(*terms.to_expr(gw.index)));
                    // Address decode: one AND per element (inside the
                    // macro for SRAMs).
                    if (!is_sram)
                        report_.cells.add(Cell::And2, net.array_size);
                }
                t = std::max(t, map_expr(*terms.to_expr(gw.rhs)));
                critical = std::max(critical, t + timing_.setup_ns);
            }
            continue;
        }
        ExprPtr def = eqs_.terms.to_expr(eqs_.def(net.id));
        if (def == nullptr) {
            // Undriven register: bare FF.
            report_.cells.add(Cell::Dff, net.width);
            report_.ff_bits += net.width;
            continue;
        }
        report_.ff_bits += net.width;
        // Enable-FF pattern: top-level (en ? d : r).
        bool enable_pattern =
            def->kind == ExprKind::Cond &&
            def->c->kind == ExprKind::NetRef && def->c->net == net.id &&
            !def->c->primed;
        if (enable_pattern && opts_.use_enable_ff) {
            report_.cells.add(Cell::DffEn, net.width);
            report_.enable_ff_bits += net.width;
            double ten = map_expr(*def->a);
            double td = map_expr(*def->b);
            critical =
                std::max(critical, std::max(ten, td) + timing_.setup_ns);
        } else {
            report_.cells.add(Cell::Dff, net.width);
            double t = map_expr(*def);
            critical = std::max(critical, t + timing_.setup_ns);
        }
    }

    report_.area_um2 = report_.cells.area_um2 + report_.sram_area_um2;
    report_.critical_path_ns = critical;
    report_.meets_target = critical <= opts_.target_clock_ns;
    return report_;
}

} // namespace

std::string SynthReport::summary() const {
    std::ostringstream os;
    os << "area: " << area_um2 << " um^2, critical path: "
       << critical_path_ns << " ns (target " << target_clock_ns << " ns, "
       << (meets_target ? "met" : "VIOLATED") << "), FF bits: " << ff_bits
       << " (" << enable_ff_bits << " with enables)";
    return os.str();
}

SynthReport synthesize(const Design& design, const SynthOptions& opts) {
    Mapper mapper(design, opts);
    return mapper.run();
}

} // namespace svlc::synth
