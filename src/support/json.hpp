// Minimal JSON emitter for machine-readable reports (no external deps).
// Deterministic output: keys are emitted in call order, doubles with a
// fixed precision, so two writers fed identical data produce identical
// bytes — the batch driver's reproducibility tests rely on this.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace svlc {

/// Length in bytes of the well-formed UTF-8 sequence starting at s[i]
/// (1 for ASCII), or 0 when the bytes there are malformed (invalid lead
/// byte, truncated/out-of-range continuation, overlong encoding,
/// surrogate, > U+10FFFF). Shared by JsonWriter::escape (which replaces
/// malformed sequences) and JsonReader (which rejects them).
size_t utf8_sequence_length(std::string_view s, size_t i);

class JsonWriter {
public:
    /// `indent` spaces per nesting level; 0 emits compact single-line JSON.
    explicit JsonWriter(int indent = 2) : indent_(indent) {}

    JsonWriter& begin_object();
    JsonWriter& end_object();
    JsonWriter& begin_array();
    JsonWriter& end_array();

    /// Names the next value inside an object.
    JsonWriter& key(std::string_view k);

    JsonWriter& value(std::string_view s);
    JsonWriter& value(const char* s) { return value(std::string_view(s)); }
    JsonWriter& value(bool b);
    JsonWriter& value(uint64_t v);
    JsonWriter& value(int64_t v);
    JsonWriter& value(int v) { return value(static_cast<int64_t>(v)); }
    /// Fixed-point with `precision` fractional digits.
    JsonWriter& value(double v, int precision = 3);
    JsonWriter& null_value();
    /// Emits an already-validated JSON number lexeme verbatim. Used by
    /// JsonValue::write so parsed documents re-serialize byte-identically
    /// (fixed-precision re-formatting would lose the original spelling).
    JsonWriter& number_lexeme(std::string_view lexeme);

    /// key + value in one call.
    template <typename T> JsonWriter& kv(std::string_view k, const T& v) {
        key(k);
        return value(v);
    }
    JsonWriter& kv(std::string_view k, double v, int precision) {
        key(k);
        return value(v, precision);
    }

    [[nodiscard]] const std::string& str() const { return out_; }

    static std::string escape(std::string_view s);

private:
    /// Appends the escaped form of `s` to `out` (what escape returns).
    static void escape_into(std::string& out, std::string_view s);

    void before_value();
    void newline();

    std::string out_;
    int indent_;
    /// Per-level state: whether any element was emitted yet.
    std::vector<bool> has_elem_;
    bool pending_key_ = false;
};

} // namespace svlc
