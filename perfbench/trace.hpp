// In-memory span recorder and section timer for the benchmark program.
//
// Every timed call into a layer goes through Section, so the untraced run
// and the traced run time exactly the same code regions.  With tracing on,
// each section is also recorded as a span (name, start, end, parent, request
// id); spans stay in memory and are written out once, at exit.  Spans are
// only opened on the main thread: the simulator is single-threaded, and
// serving-plane publishes run inside its event handlers.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  static constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;

  struct Span {
    const char* name = nullptr;  ///< static string: "<layer>.<call>"
    std::int64_t start_ns = 0;   ///< since the tracer was created
    std::int64_t end_ns = 0;
    std::uint32_t parent = kNoSpan;
    std::int64_t request = -1;  ///< transition index; -1 outside transitions
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one.  A span without an explicit
  /// request id inherits its parent's.
  std::uint32_t open(const char* name, std::int64_t request,
                     Clock::time_point at) {
    Span s;
    s.name = name;
    s.start_ns = since_origin(at);
    s.parent = open_.empty() ? kNoSpan : open_.back();
    s.request = request >= 0 || s.parent == kNoSpan ? request
                                                    : spans_[s.parent].request;
    spans_.push_back(s);
    const auto id = static_cast<std::uint32_t>(spans_.size() - 1);
    open_.push_back(id);
    return id;
  }

  void close(std::uint32_t id, Clock::time_point at) {
    spans_[id].end_ns = since_origin(at);
    open_.pop_back();
  }

  /// Summed duration of every span called `name`, seconds.
  double total_s(const std::string& name) const {
    double sum = 0;
    for (const Span& s : spans_) {
      if (name == s.name) sum += ns_to_s(s.end_ns - s.start_ns);
    }
    return sum;
  }

  /// Summed self time of every span called `name`: its duration minus the
  /// part covered by its children (children never overlap each other, as
  /// they all run on the one main thread).
  double self_s(const std::string& name) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoSpan) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    double sum = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (name == s.name) sum += ns_to_s(s.end_ns - s.start_ns - child_ns[i]);
    }
    return sum;
  }

  /// Writes one JSON object per span, then a per-name summary line.
  void write(const std::string& path) const {
    std::ofstream out(path);
    std::map<std::string, std::pair<std::size_t, double>> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":"
          << (s.parent == kNoSpan ? std::int64_t{-1} : std::int64_t{s.parent})
          << ",\"request\":" << s.request << "}\n";
      auto& entry = by_name[s.name];
      ++entry.first;
      entry.second += ns_to_s(s.end_ns - s.start_ns);
    }
    for (const auto& [name, entry] : by_name) {
      out << "{\"summary\":\"" << name << "\",\"count\":" << entry.first
          << ",\"total_s\":" << entry.second << ",\"self_s\":" << self_s(name)
          << "}\n";
    }
  }

 private:
  std::int64_t since_origin(Clock::time_point at) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(at - origin_)
        .count();
  }
  static double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Times one call into a layer; records it as a span when tracing is on.
class Section {
 public:
  Section(Tracer& tracer, const char* name, std::int64_t request = -1)
      : tracer_(tracer), start_(Clock::now()) {
    if (tracer_.enabled()) id_ = tracer_.open(name, request, start_);
  }
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;
  ~Section() {
    if (!done_) stop();
  }

  /// Ends the section and returns its duration in seconds.
  double stop() {
    const Clock::time_point end = Clock::now();
    if (tracer_.enabled()) tracer_.close(id_, end);
    done_ = true;
    return seconds_between(start_, end);
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  std::uint32_t id_ = Tracer::kNoSpan;
  bool done_ = false;
};

}  // namespace perfbench
