// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened and closed only by the benchmark's own code, around
// calls into svlc's public functions. A span's self time is its duration
// minus the durations of its direct children. A child can also be a
// duration the program measured itself (for example the sum of
// Obligation::solve_ms inside a check call); such a child is recorded
// with `child()` and is subtracted from its parent like any other.
//
// Every entry point takes a nullable Tracer*, so an untraced op pays one
// pointer test per boundary and nothing else.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

class Tracer {
public:
    struct Span {
        const char* name;
        int parent;       // index into spans_, -1 for a root
        uint64_t root_id; // spans of one op (or probe) share this id
        double start_ms;  // relative to the tracer's epoch
        double dur_ms;
        double child_ms;  // summed durations of direct children
    };

    Tracer() : epoch_(Clock::now()) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    int begin(const char* name) {
        int parent = stack_.empty() ? -1 : stack_.back();
        uint64_t root = parent < 0 ? ++roots_ : spans_[parent].root_id;
        spans_.push_back({name, parent, root, now_ms(), 0.0, 0.0});
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    /// Closes span `id` (the innermost open one); returns its duration.
    double end(int id) {
        Span& s = spans_[id];
        s.dur_ms = now_ms() - s.start_ms;
        stack_.pop_back();
        if (s.parent >= 0)
            spans_[s.parent].child_ms += s.dur_ms;
        return s.dur_ms;
    }

    /// Records a closed child of the innermost open span whose duration
    /// the program measured itself.
    void child(const char* name, double dur_ms) {
        int parent = stack_.back();
        Span& p = spans_[parent];
        spans_.push_back({name, parent, p.root_id, p.start_ms, dur_ms, 0.0});
        spans_[parent].child_ms += dur_ms;
    }

    struct Totals {
        double self_ms = 0;
        double dur_ms = 0;
        uint64_t count = 0;
    };
    /// Self time, duration and count per span name, over every span.
    [[nodiscard]] std::map<std::string, Totals> totals() const {
        std::map<std::string, Totals> out;
        for (const Span& s : spans_) {
            Totals& t = out[s.name];
            t.self_ms += s.dur_ms - s.child_ms;
            t.dur_ms += s.dur_ms;
            ++t.count;
        }
        return out;
    }

    /// Writes every span as a Chrome trace-event JSON array ("X" events,
    /// microseconds; `args.root` groups the spans of one op).
    bool write_chrome(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fputs("[\n", f);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                         "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"root\":%llu}}%s\n",
                         s.name, s.start_ms * 1e3, s.dur_ms * 1e3,
                         static_cast<unsigned long long>(s.root_id),
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fputs("]\n", f);
        return std::fclose(f) == 0;
    }

private:
    double now_ms() const { return ms_between(epoch_, Clock::now()); }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    uint64_t roots_ = 0;
};

/// RAII span; a no-op when the tracer is null.
class Scope {
public:
    Scope(Tracer* t, const char* name)
        : t_(t), id_(t ? t->begin(name) : -1) {}
    ~Scope() {
        if (t_)
            t_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer* t_;
    int id_;
};

} // namespace e2e
