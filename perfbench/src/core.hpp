// Shared pieces of the repository benchmark: host clock, percentiles, the
// named-metric result, the virtual-output digest and the span tracer.
//
// Everything here is benchmark-side code. The program under test is only
// reached through its public headers from the workload files.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Host monotonic time in nanoseconds.
inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double host_s() { return static_cast<double>(host_ns()) * 1e-9; }

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when
/// empty. Sorts its argument.
template <typename T>
double percentile(std::vector<T>& xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(xs.size())));
  return static_cast<double>(xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1]);
}

template <typename T>
double median(std::vector<T> xs) {
  return percentile(xs, 0.5);
}

inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double sum = 0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports: the end-to-end and per-layer metrics
/// (the caller prints the set the trace flag selects), operation counts,
/// the virtual-output digest and any failed output check.
struct RunResult {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::string digest_text;  // canonical text of the virtual-time outputs
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// FNV-1a 64, chainable through `h`.
inline std::uint64_t fnv1a(std::string_view text, std::uint64_t h = kFnvOffset) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// In-memory span recorder for traced runs. Spans carry host time and,
/// when they wrap simulation work, virtual time; call spans share a call id.
/// Counter snapshots taken at phase boundaries ride along. Nothing is
/// written until `write()` at exit.
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t call = 0;    // 0 = not part of a call
    std::string name;
    std::int64_t host_start_ns = 0;
    std::int64_t host_end_ns = 0;
    std::int64_t virt_start_us = -1;  // -1 = no virtual time
    std::int64_t virt_end_us = -1;
  };
  struct Snapshot {
    std::uint64_t span = 0;  // the phase span that just ended
    std::string boundary;
    std::map<std::string, double> counts;
  };

  std::uint64_t begin(std::string name, std::uint64_t parent,
                      std::uint64_t call = 0, std::int64_t virt_us = -1) {
    Span span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.call = call;
    span.name = std::move(name);
    span.virt_start_us = virt_us;
    span.host_start_ns = host_ns();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  void end(std::uint64_t id, std::int64_t virt_us = -1) {
    Span& span = spans_.at(id - 1);
    span.host_end_ns = host_ns();
    span.virt_end_us = virt_us;
  }
  /// A span whose times were measured by the caller (sampled requests).
  std::uint64_t add(std::string name, std::uint64_t parent, std::int64_t start_ns,
                    std::int64_t end_ns) {
    Span span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.name = std::move(name);
    span.host_start_ns = start_ns;
    span.host_end_ns = end_ns;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  void snapshot(std::uint64_t span, std::string boundary,
                std::map<std::string, double> counts) {
    snapshots_.push_back({span, std::move(boundary), std::move(counts)});
  }

  /// Writes {"spans": [...], "snapshots": [...]} to `path`; false on error.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<Snapshot> snapshots_;
};

/// RAII span; a null tracer makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t parent,
             std::uint64_t call = 0, std::int64_t virt_us = -1)
      : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->begin(std::move(name), parent, call, virt_us);
  }
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void close(std::int64_t virt_us = -1) {
    if (tracer_ != nullptr && id_ != 0) tracer_->end(id_, virt_us);
    id_ = 0;
  }
  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_ = 0;
};

/// Peak resident set size of this process in MB.
double peak_rss_mb();

}  // namespace perfbench
