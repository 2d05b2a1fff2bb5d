#include "support/bitvec.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace svlc {

BitVec::BitVec(uint32_t width, uint64_t value) : width_(width) {
    if (width < 1 || width > kMaxWidth)
        throw BitVecError("bit-vector width " + std::to_string(width) +
                          " outside supported range 1.." +
                          std::to_string(kMaxWidth));
    value_ = value & mask(width);
}

BitVec BitVec::resize(uint32_t width) const {
    return BitVec(width, value_);
}

namespace {
uint32_t max_width(const BitVec& a, const BitVec& b) {
    return std::max(a.width(), b.width());
}
} // namespace

BitVec operator+(BitVec a, BitVec b) {
    return BitVec(max_width(a, b), a.value() + b.value());
}
BitVec operator-(BitVec a, BitVec b) {
    return BitVec(max_width(a, b), a.value() - b.value());
}
BitVec operator*(BitVec a, BitVec b) {
    return BitVec(max_width(a, b), a.value() * b.value());
}
BitVec operator/(BitVec a, BitVec b) {
    uint32_t w = max_width(a, b);
    if (b.is_zero())
        return BitVec(w, BitVec::mask(w));
    return BitVec(w, a.value() / b.value());
}
BitVec operator%(BitVec a, BitVec b) {
    uint32_t w = max_width(a, b);
    if (b.is_zero())
        return BitVec(w, a.value());
    return BitVec(w, a.value() % b.value());
}
BitVec operator&(BitVec a, BitVec b) {
    return BitVec(max_width(a, b), a.value() & b.value());
}
BitVec operator|(BitVec a, BitVec b) {
    return BitVec(max_width(a, b), a.value() | b.value());
}
BitVec operator^(BitVec a, BitVec b) {
    return BitVec(max_width(a, b), a.value() ^ b.value());
}
BitVec BitVec::bit_not() const { return BitVec(width_, ~value_); }

BitVec operator<<(BitVec a, BitVec b) {
    if (b.value() >= a.width())
        return BitVec(a.width(), 0);
    return BitVec(a.width(), a.value() << b.value());
}
BitVec operator>>(BitVec a, BitVec b) {
    if (b.value() >= a.width())
        return BitVec(a.width(), 0);
    return BitVec(a.width(), a.value() >> b.value());
}

BitVec BitVec::eq(BitVec rhs) const { return BitVec(1, value_ == rhs.value_); }
BitVec BitVec::ne(BitVec rhs) const { return BitVec(1, value_ != rhs.value_); }
BitVec BitVec::lt(BitVec rhs) const { return BitVec(1, value_ < rhs.value_); }
BitVec BitVec::le(BitVec rhs) const { return BitVec(1, value_ <= rhs.value_); }
BitVec BitVec::gt(BitVec rhs) const { return BitVec(1, value_ > rhs.value_); }
BitVec BitVec::ge(BitVec rhs) const { return BitVec(1, value_ >= rhs.value_); }

BitVec BitVec::log_and(BitVec rhs) const {
    return BitVec(1, to_bool() && rhs.to_bool());
}
BitVec BitVec::log_or(BitVec rhs) const {
    return BitVec(1, to_bool() || rhs.to_bool());
}
BitVec BitVec::log_not() const { return BitVec(1, !to_bool()); }

BitVec BitVec::red_and() const { return BitVec(1, value_ == mask(width_)); }
BitVec BitVec::red_or() const { return BitVec(1, value_ != 0); }
BitVec BitVec::red_xor() const {
    return BitVec(1, __builtin_popcountll(value_) & 1);
}

BitVec BitVec::slice(uint32_t hi, uint32_t lo) const {
    if (hi < lo || hi >= width_)
        throw BitVecError("slice [" + std::to_string(hi) + ":" +
                          std::to_string(lo) + "] out of range for width " +
                          std::to_string(width_));
    uint32_t w = hi - lo + 1;
    return BitVec(w, value_ >> lo);
}

BitVec BitVec::concat(BitVec low) const {
    uint64_t w = uint64_t{width_} + low.width_;
    if (w > kMaxWidth)
        throw BitVecError("concatenation width " + std::to_string(w) +
                          " exceeds " + std::to_string(kMaxWidth) + " bits");
    return BitVec(static_cast<uint32_t>(w),
                  (value_ << low.width_) | low.value_);
}

std::string BitVec::str() const {
    std::ostringstream os;
    os << width_ << "'h" << std::hex << value_;
    return os.str();
}

bool BitVec::parse(std::string_view text, BitVec& out) {
    // Split at the tick, if any.
    size_t tick = text.find('\'');
    uint32_t width = 32;
    std::string_view body = text;
    int base = 10;
    if (tick != std::string_view::npos) {
        if (tick == 0 || tick + 1 >= text.size())
            return false;
        uint32_t w = 0;
        for (char ch : text.substr(0, tick)) {
            if (!std::isdigit(static_cast<unsigned char>(ch)))
                return false;
            w = w * 10 + static_cast<uint32_t>(ch - '0');
            if (w > kMaxWidth)
                return false;
        }
        if (w == 0)
            return false;
        width = w;
        char basech =
            static_cast<char>(std::tolower(static_cast<unsigned char>(text[tick + 1])));
        switch (basech) {
        case 'h': base = 16; break;
        case 'b': base = 2; break;
        case 'd': base = 10; break;
        case 'o': base = 8; break;
        default: return false;
        }
        body = text.substr(tick + 2);
    }
    if (body.empty())
        return false;
    uint64_t value = 0;
    for (char ch : body) {
        if (ch == '_')
            continue;
        int digit;
        if (std::isdigit(static_cast<unsigned char>(ch)))
            digit = ch - '0';
        else if (std::isxdigit(static_cast<unsigned char>(ch)))
            digit = std::tolower(static_cast<unsigned char>(ch)) - 'a' + 10;
        else
            return false;
        if (digit >= base)
            return false;
        value = value * static_cast<uint64_t>(base) + static_cast<uint64_t>(digit);
    }
    out = BitVec(width, value);
    return true;
}

} // namespace svlc
