#include "bench_util.h"

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace perfbench {

std::string value_for(std::uint64_t stream, std::uint64_t key_id,
                      std::uint64_t version, std::size_t bytes) {
  std::string v(bytes, '\0');
  const std::uint64_t tag = ccnvm::derive_seed(stream, key_id, version);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>(static_cast<std::uint8_t>(
        ccnvm::splitmix64(tag + i / 8) >> (8 * (i % 8))));
  }
  return v;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool SpanLog::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << json_escape(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

bool threads_share_cpu_mask() {
  cpu_set_t mine;
  CPU_ZERO(&mine);
  if (sched_getaffinity(0, sizeof(mine), &mine) != 0) return false;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10));
    cpu_set_t theirs;
    CPU_ZERO(&theirs);
    // A thread that exited since the listing has no mask to compare.
    if (sched_getaffinity(tid, sizeof(theirs), &theirs) != 0) continue;
    if (!CPU_EQUAL(&mine, &theirs)) return false;
  }
  return !ec;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double host_probe_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  const double ms = seconds_since(t0) * 1e3;
  // Keep the loop's result observable so it cannot be folded away.
  if (x == 42) std::fprintf(stderr, "#");
  return ms;
}

}  // namespace perfbench
