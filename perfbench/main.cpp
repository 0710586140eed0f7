// The repo benchmark program. One process runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--smoke]
//
// Every workload runs the same three phases (phases.h) — a KV service
// session, crash-reopen repetitions and Figure-5 grids — so that every
// end-to-end metric is measured on every workload; the workload chooses
// the KV mix and size and gives most of the budget to the KV session. With
// --trace 0 the phases take turns over kRounds rounds and it prints the
// end-to-end metrics, with --trace 1 the
// per-layer ones (spans are written to <work-dir> at exit). The last
// stdout line is one JSON object; any failed check makes the exit code 1.
// See README.md for the metric and workload definitions.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench_util.h"
#include "crypto/dispatch.h"
#include "phases.h"

namespace perfbench {
namespace {

/// Measured rounds per run; each phase gets a 1/kRounds share of its
/// budget per round.
constexpr std::size_t kRounds = 8;

/// Closed-loop KV clients, and Figure-5 grid workers (at most nproc).
constexpr std::size_t kClients = 2;

struct Workload {
  const char* name;
  KvSpec kv;
  ReopenSpec reopen;
  SimSpec sim;
};

/// The workload table. `s` is the measuring budget (--seconds): the KV
/// session the workload is about gets 55% of it, the reopens 15% and the
/// Figure-5 grids 30% (reopens and grids are the same on every workload).
std::vector<Workload> workloads(double s, bool smoke) {
  const std::uint64_t big = smoke ? 512 : 65536;
  const std::uint64_t small = smoke ? 256 : 4096;
  const double kv = 0.55 * s;
  const ReopenSpec reopen{small, 0.15 * s, 15};
  const SimSpec sim{0.3 * s, 2};
  return {
      {"kv-update", {"ycsb-a", big, kv}, reopen, sim},
      {"kv-read-mostly", {"ycsb-b", small, kv}, reopen, sim},
  };
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> [--smoke]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

int run_main(int argc, char** argv) {
  std::string workload_name;
  std::string work_dir;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = value();
    } else if (arg == "--seed") {
      seed = parse_u64(value(), "--seed");
    } else if (arg == "--seconds") {
      seconds = parse_u64(value(), "--seconds");
    } else if (arg == "--trace") {
      const std::uint64_t t = parse_u64(value(), "--trace");
      if (t > 1) usage("--trace must be 0 or 1");
      trace = t == 1;
    } else if (arg == "--work-dir") {
      work_dir = value();
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (work_dir.empty()) usage("--work-dir is required");
  if (seconds == 0 || seconds > 600) usage("--seconds must be in 1..600");
  const double budget = smoke ? 1.0 : static_cast<double>(seconds);
  const std::vector<Workload> table = workloads(budget, smoke);
  const auto it = std::find_if(table.begin(), table.end(), [&](const Workload& w) {
    return workload_name == w.name;
  });
  if (it == table.end()) usage("unknown --workload");
  std::filesystem::create_directories(work_dir);

  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  Checks checks;
  SpanLog spans;
  MetricSink metrics;
  RunContext ctx;
  ctx.seed = seed;
  // Two clients: with two drain workers that is one thread per core on a
  // 4-core host, and on a shared host fewer runnable threads than cores
  // lets the scheduler step around a busy core (see README.md).
  ctx.clients = std::min<std::size_t>(kClients, nproc);
  ctx.work_dir = work_dir;
  ctx.trace = trace;
  ctx.checks = &checks;
  ctx.spans = &spans;
  ctx.metrics = &metrics;

  const double probe_ms = host_probe_ms();

  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(make_kv_phase(it->kv, ctx));
  phases.push_back(make_reopen_phase(it->reopen, ctx));
  phases.push_back(make_sim_phase(it->sim, ctx));

  // Set-up is repeated and its median reported, so that work moved into
  // it shows; the last repetition's state is the one measured. A short
  // set-up repeats more often (at least 5 times and for 2 s, at most 15),
  // so that its median is steady too.
  const std::size_t min_setups = smoke || trace ? 1 : 5;
  const std::size_t max_setups = smoke || trace ? 1 : 15;
  std::vector<double> setup_s;
  const auto setup_start = Clock::now();
  while (setup_s.size() < min_setups ||
         (setup_s.size() < max_setups && seconds_since(setup_start) < 2.0)) {
    const auto t0 = Clock::now();
    for (auto& phase : phases) phase->setup();
    setup_s.push_back(seconds_since(t0));
  }
  // The KV service's drain workers are running now; nothing may have
  // narrowed their CPUs.
  checks.check(threads_share_cpu_mask(),
               "a thread runs on fewer CPUs than the process may use");
  if (trace) {
    for (auto& phase : phases) phase->run_traced();
  } else {
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (auto& phase : phases) phase->measure_round(r, kRounds);
    }
    for (auto& phase : phases) phase->finish();
  }
  phases.clear();

  metrics.set("setup_s", median(setup_s), "s");
  metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
  metrics.set("host.probe_ms", probe_ms, "ms");
  const double failed_share =
      checks.attempted == 0
          ? 1.0
          : static_cast<double>(checks.failed) /
                static_cast<double>(checks.attempted);
  metrics.set("failed_op_share", failed_share, "ratio");
  if (trace) {
    metrics.set("trace.spans", static_cast<double>(spans.size()), "count");
    const std::string path = work_dir + "/spans-" + it->name + "-seed" +
                             std::to_string(seed) + ".jsonl";
    if (!spans.write_jsonl(path)) checks.fail("could not write " + path);
    std::printf("spans written to %s\n", path.c_str());
  }

  for (const std::string& msg : checks.messages) {
    std::printf("FAILED CHECK: %s\n", msg.c_str());
  }
  for (const MetricSink::Entry& e : metrics.entries()) {
    std::printf("%-36s %18.6f %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  std::printf(
      "# run {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%llu,"
      "\"trace\":%d,\"smoke\":%d,\"nproc\":%zu,\"clients\":%zu,"
      "\"service_shards\":2,\"commit_max_batch\":32,"
      "\"commit_max_delay_us\":0,\"grid_workers\":%zu,"
      "\"crypto_aes\":\"%s\",\"crypto_sha1\":\"%s\","
      "\"crypto_sha1_many\":\"%s\",\"host_probe_ms\":%.3f}\n",
      it->name, static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(seconds), trace ? 1 : 0, smoke ? 1 : 0,
      nproc, ctx.clients, std::min<std::size_t>(nproc, ctx.clients),
      std::string(ccnvm::crypto::impl_name(ccnvm::crypto::active_aes_impl()))
          .c_str(),
      std::string(ccnvm::crypto::impl_name(ccnvm::crypto::active_sha1_impl()))
          .c_str(),
      std::string(
          ccnvm::crypto::impl_name(ccnvm::crypto::active_sha1_many_impl()))
          .c_str(),
      probe_ms);

  const bool correct = checks.failed == 0 && checks.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  bool first = true;
  for (const MetricSink::Entry& e : metrics.entries()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", e.name.c_str(), e.value, e.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
