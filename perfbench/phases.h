// The three phases every benchmark workload runs: a KV service session,
// crash-reopen repetitions of a file-backed image, and Figure-5 grids.
// A workload (main.cpp) sizes each phase and decides which one gets the
// measuring budget; the others run at a small fixed size so that every
// end-to-end metric is measured on every workload.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

/// Correctness ledger of one run: every checked operation or output
/// counts as attempted; every mismatch, rejection or failed check as
/// failed. The first few messages are kept for the report.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  void pass() { ++attempted; }
  void fail(const std::string& message) {
    ++attempted;
    ++failed;
    if (messages.size() < 8) messages.push_back(message);
  }
  void check(bool ok, const std::string& message) {
    if (ok) {
      pass();
    } else {
      fail(message);
    }
  }
};

struct RunContext {
  std::uint64_t seed = 1;
  /// Closed-loop client threads of the KV session (at most nproc).
  std::size_t clients = 2;
  /// Scratch directory for image files (inside the checkout).
  std::string work_dir;
  bool trace = false;
  Checks* checks = nullptr;
  SpanLog* spans = nullptr;
  MetricSink* metrics = nullptr;
};

struct KvSpec {
  std::string mix;              // YCSB core workload: "ycsb-a" / "ycsb-b"
  std::uint64_t records = 0;    // loaded records, split over the clients
  double seconds = 0.0;         // measuring window
};

struct ReopenSpec {
  std::uint64_t records = 0;    // loaded records (plus as many updates)
  double seconds = 0.0;         // repetitions continue until this elapses
  std::size_t min_reps = 1;
};

struct SimSpec {
  double seconds = 0.0;         // grids continue until this elapses
  std::size_t min_grids = 1;
};

/// Each phase: construct (untimed), setup() (timed by the caller as part
/// of setup_s), then either the measured run — measure_round() once per
/// round, the phases taking turns, then finish() — or, with ctx.trace,
/// run_traced(), which emits the per-layer metrics. A slow stretch of a
/// shared host (seconds long) thus lands on a part of every phase's
/// samples rather than on the whole of one phase. finish() and
/// run_traced() record every metric the phase owns into ctx.metrics.
class Phase {
 public:
  virtual ~Phase() = default;
  virtual void setup() = 0;
  /// Round `round` of `rounds`: a 1/rounds share of the phase's budget.
  virtual void measure_round(std::size_t round, std::size_t rounds) = 0;
  virtual void finish() = 0;
  virtual void run_traced() = 0;
};

std::unique_ptr<Phase> make_kv_phase(const KvSpec& spec, RunContext& ctx);
std::unique_ptr<Phase> make_reopen_phase(const ReopenSpec& spec,
                                         RunContext& ctx);
std::unique_ptr<Phase> make_sim_phase(const SimSpec& spec, RunContext& ctx);

}  // namespace perfbench
