#include "support/json.hpp"

#include <cstdio>

namespace svlc {

namespace {

/// Multi-byte case of utf8_sequence_length: length of the valid UTF-8
/// sequence starting at s[i], or 0 when the bytes there are not
/// well-formed UTF-8 (invalid lead byte, truncated or out-of-range
/// continuation, overlong encoding, surrogate, > U+10FFFF).
size_t utf8_seq_len(std::string_view s, size_t i) {
    auto byte = [&](size_t k) -> unsigned {
        return k < s.size() ? static_cast<unsigned char>(s[k]) : 0x100u;
    };
    unsigned b0 = byte(i);
    auto cont = [&](size_t k, unsigned lo = 0x80, unsigned hi = 0xbf) {
        unsigned b = byte(k);
        return b >= lo && b <= hi;
    };
    if (b0 >= 0xc2 && b0 <= 0xdf)
        return cont(i + 1) ? 2 : 0;
    if (b0 == 0xe0)
        return cont(i + 1, 0xa0) && cont(i + 2) ? 3 : 0;
    if ((b0 >= 0xe1 && b0 <= 0xec) || b0 == 0xee || b0 == 0xef)
        return cont(i + 1) && cont(i + 2) ? 3 : 0;
    if (b0 == 0xed) // exclude UTF-16 surrogates U+D800..DFFF
        return cont(i + 1, 0x80, 0x9f) && cont(i + 2) ? 3 : 0;
    if (b0 == 0xf0)
        return cont(i + 1, 0x90) && cont(i + 2) && cont(i + 3) ? 4 : 0;
    if (b0 >= 0xf1 && b0 <= 0xf3)
        return cont(i + 1) && cont(i + 2) && cont(i + 3) ? 4 : 0;
    if (b0 == 0xf4) // cap at U+10FFFF
        return cont(i + 1, 0x80, 0x8f) && cont(i + 2) && cont(i + 3) ? 4 : 0;
    return 0;
}

} // namespace

size_t utf8_sequence_length(std::string_view s, size_t i) {
    if (i >= s.size())
        return 0;
    if (static_cast<unsigned char>(s[i]) < 0x80)
        return 1;
    return utf8_seq_len(s, i);
}

void JsonWriter::escape_into(std::string& out, std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    // Bytes that pass through unchanged accumulate as one run [run, i)
    // and are appended in one call when an escape (or the end) is hit.
    size_t run = 0;
    size_t i = 0;
    while (i < s.size()) {
        unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c < 0x7f && c != '"' && c != '\\') {
            ++i;
            continue;
        }
        // Multi-byte input: pass well-formed UTF-8 through unchanged so
        // the output stays valid JSON text; anything else (stray
        // continuation bytes, Latin-1, truncated sequences) becomes
        // U+FFFD rather than corrupting the whole document.
        size_t len = c >= 0x80 ? utf8_seq_len(s, i) : 0;
        if (len) {
            i += len;
            continue;
        }
        out.append(s.data() + run, i - run);
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x80) { // other control characters, DEL included
                char esc[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
                out.append(esc, sizeof esc);
            } else {
                out += "\xef\xbf\xbd";
            }
        }
        run = ++i;
    }
    out.append(s.data() + run, i - run);
}

std::string JsonWriter::escape(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 8);
    escape_into(out, s);
    return out;
}

void JsonWriter::newline() {
    if (indent_ <= 0)
        return;
    out_ += '\n';
    out_.append(has_elem_.size() * static_cast<size_t>(indent_), ' ');
}

void JsonWriter::before_value() {
    if (pending_key_) {
        pending_key_ = false;
        return; // the key already handled separators/indent
    }
    if (!has_elem_.empty()) {
        if (has_elem_.back())
            out_ += ',';
        has_elem_.back() = true;
        newline();
    }
}

JsonWriter& JsonWriter::begin_object() {
    before_value();
    out_ += '{';
    has_elem_.push_back(false);
    return *this;
}

JsonWriter& JsonWriter::end_object() {
    bool had = has_elem_.back();
    has_elem_.pop_back();
    if (had)
        newline();
    out_ += '}';
    return *this;
}

JsonWriter& JsonWriter::begin_array() {
    before_value();
    out_ += '[';
    has_elem_.push_back(false);
    return *this;
}

JsonWriter& JsonWriter::end_array() {
    bool had = has_elem_.back();
    has_elem_.pop_back();
    if (had)
        newline();
    out_ += ']';
    return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
    if (has_elem_.back())
        out_ += ',';
    has_elem_.back() = true;
    newline();
    out_ += '"';
    escape_into(out_, k);
    out_ += indent_ > 0 ? "\": " : "\":";
    pending_key_ = true;
    return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
    before_value();
    out_ += '"';
    escape_into(out_, s);
    out_ += '"';
    return *this;
}

JsonWriter& JsonWriter::value(bool b) {
    before_value();
    out_ += b ? "true" : "false";
    return *this;
}

JsonWriter& JsonWriter::value(uint64_t v) {
    before_value();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
    return *this;
}

JsonWriter& JsonWriter::value(int64_t v) {
    before_value();
    char buf[24];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    out_ += buf;
    return *this;
}

JsonWriter& JsonWriter::value(double v, int precision) {
    before_value();
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    out_ += buf;
    return *this;
}

JsonWriter& JsonWriter::null_value() {
    before_value();
    out_ += "null";
    return *this;
}

JsonWriter& JsonWriter::number_lexeme(std::string_view lexeme) {
    before_value();
    out_ += lexeme;
    return *this;
}

} // namespace svlc
