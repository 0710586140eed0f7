// Shared helpers of the repo benchmark: clocks, latency samples,
// percentiles, the in-memory span log and the metric sink.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Deterministic value payload for (stream, key, version): writers and
/// the models that check them fabricate identical bytes from the triple.
std::string value_for(std::uint64_t stream, std::uint64_t key_id,
                      std::uint64_t version, std::size_t bytes);

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Fixed-capacity uniform sample of a latency stream (Vitter's
/// algorithm R). The buffer is allocated and touched up front, so the
/// process's resident size does not grow with the number of operations a
/// run manages to complete.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : buf_(capacity, 0.0f), rng_(seed) {}

  void add(double value) {
    ++seen_;
    if (used_ < buf_.size()) {
      buf_[used_++] = static_cast<float>(value);
      return;
    }
    const std::uint64_t slot = rng_.below(seen_);
    if (slot < buf_.size()) buf_[slot] = static_cast<float>(value);
  }

  std::uint64_t seen() const { return seen_; }

  void append_to(std::vector<double>& out) const {
    for (std::size_t i = 0; i < used_; ++i) out.push_back(buf_[i]);
  }

 private:
  std::vector<float> buf_;
  ccnvm::Rng rng_;
  std::size_t used_ = 0;
  std::uint64_t seen_ = 0;
};

/// One traced interval. Spans of one operation share `op`; `parent` is
/// the index of the enclosing span in the same log (-1 for a root).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
};

/// Spans are appended in memory only and written out once, at exit.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  std::int64_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent, std::uint64_t op) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start_ns, end_ns, parent, op});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes one JSON object per line; returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Named metrics with units, kept in insertion order.
class MetricSink {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = entries_.size();
      entries_.push_back({name, value, unit});
    } else {
      entries_[index_[name]] = {name, value, unit};
    }
  }
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

/// True when every thread of this process may run on exactly the CPUs the
/// calling thread may. A thread started while its creator was pinned
/// keeps the pin, which would squeeze it onto fewer CPUs than the
/// program normally gets.
bool threads_share_cpu_mask();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Fixed-work, crypto-free integer loop; its wall time is the host-speed
/// probe recorded beside every result.
double host_probe_ms();

}  // namespace perfbench
