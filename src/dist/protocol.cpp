#include "dist/protocol.hpp"

namespace svlc::dist {

std::string hex_encode(std::string_view bytes) {
    static const char* kDigits = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (unsigned char c : bytes) {
        out += kDigits[c >> 4];
        out += kDigits[c & 0xf];
    }
    return out;
}

namespace {

int hex_nibble(char c) {
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

bool hex_decode(std::string_view hex, std::string& out) {
    if (hex.size() % 2 != 0)
        return false;
    std::string decoded;
    decoded.reserve(hex.size() / 2);
    for (size_t i = 0; i < hex.size(); i += 2) {
        int hi = hex_nibble(hex[i]);
        int lo = hex_nibble(hex[i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        decoded += static_cast<char>((hi << 4) | lo);
    }
    out = std::move(decoded);
    return true;
}

} // namespace svlc::dist
