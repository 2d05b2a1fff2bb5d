// Fixed-width bit-vector values used by constant folding, the simulator,
// and the solver. Widths are 1..64 bits; all arithmetic is unsigned and
// wraps modulo 2^width, matching Verilog semantics for sized operands.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace svlc {

/// Width-invariant violation (width outside 1..64, over-wide concat,
/// out-of-range slice). A checked error rather than an assert so release
/// builds fail loudly instead of silently truncating a shift.
class BitVecError : public std::runtime_error {
public:
    explicit BitVecError(const std::string& what) : std::runtime_error(what) {}
};

class BitVec {
public:
    static constexpr uint32_t kMaxWidth = 64;

    BitVec() = default;
    /// Throws BitVecError unless 1 <= width <= kMaxWidth.
    BitVec(uint32_t width, uint64_t value);

    /// Parses Verilog-style literals: "16'h8000", "4'b1010", "8'd255",
    /// "12'o777", or a plain decimal "42" (32 bits by default).
    /// Returns false on malformed input.
    static bool parse(std::string_view text, BitVec& out);

    [[nodiscard]] uint32_t width() const { return width_; }
    [[nodiscard]] uint64_t value() const { return value_; }
    [[nodiscard]] bool is_zero() const { return value_ == 0; }
    [[nodiscard]] bool to_bool() const { return value_ != 0; }

    /// Mask covering `width` low bits.
    static constexpr uint64_t mask(uint32_t width) {
        return width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
    }

    /// Returns this value resized to `width` (zero-extended or truncated).
    [[nodiscard]] BitVec resize(uint32_t width) const;

    // Arithmetic (results have max operand width).
    friend BitVec operator+(BitVec a, BitVec b);
    friend BitVec operator-(BitVec a, BitVec b);
    friend BitVec operator*(BitVec a, BitVec b);
    /// Division/modulo by zero yields all-ones / the dividend (Verilog 'x
    /// approximated deterministically).
    friend BitVec operator/(BitVec a, BitVec b);
    friend BitVec operator%(BitVec a, BitVec b);

    // Bitwise.
    friend BitVec operator&(BitVec a, BitVec b);
    friend BitVec operator|(BitVec a, BitVec b);
    friend BitVec operator^(BitVec a, BitVec b);
    [[nodiscard]] BitVec bit_not() const;

    // Shifts: amount taken from b's value; shifting >= width yields 0.
    friend BitVec operator<<(BitVec a, BitVec b);
    friend BitVec operator>>(BitVec a, BitVec b);

    // Comparisons (unsigned); result is a 1-bit BitVec.
    [[nodiscard]] BitVec eq(BitVec rhs) const;
    [[nodiscard]] BitVec ne(BitVec rhs) const;
    [[nodiscard]] BitVec lt(BitVec rhs) const;
    [[nodiscard]] BitVec le(BitVec rhs) const;
    [[nodiscard]] BitVec gt(BitVec rhs) const;
    [[nodiscard]] BitVec ge(BitVec rhs) const;

    // Logical (1-bit results).
    [[nodiscard]] BitVec log_and(BitVec rhs) const;
    [[nodiscard]] BitVec log_or(BitVec rhs) const;
    [[nodiscard]] BitVec log_not() const;

    // Reductions (1-bit results).
    [[nodiscard]] BitVec red_and() const;
    [[nodiscard]] BitVec red_or() const;
    [[nodiscard]] BitVec red_xor() const;

    /// Bits [hi:lo]; throws BitVecError unless hi >= lo and hi < width.
    [[nodiscard]] BitVec slice(uint32_t hi, uint32_t lo) const;
    /// Verilog-style concatenation {a, b}: `a` occupies the high bits.
    /// Throws BitVecError when the combined width exceeds kMaxWidth.
    [[nodiscard]] BitVec concat(BitVec low) const;

    /// Renders as "<width>'h<hex>".
    [[nodiscard]] std::string str() const;

    friend bool operator==(const BitVec&, const BitVec&) = default;

private:
    uint32_t width_ = 1;
    uint64_t value_ = 0;
};

} // namespace svlc
