// Figure-5 grids: 8 SPEC-shaped profiles x 5 designs on the timing-only
// 16 GiB geometry. The simulated outputs (normalized IPC and writes) are
// deterministic and checked against the paper reproduction's pinned
// values; host time per grid gives the simulator's speed. The traced run
// times every run_single cell and re-runs one cc-NVM cell from
// pre-generated references to split trace generation from the model.
#include <algorithm>
#include <cmath>
#include <thread>

#include "common/thread_pool.h"
#include "phases.h"
#include "sim/experiment.h"
#include "sim/system.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

using namespace ccnvm;

// geomean_ipc_norm/cc_nvm and geomean_writes_norm/cc_nvm of the
// Figure-5 grid at the default ExperimentConfig (seed 2019), as tracked
// in bench/baseline/BENCH_headline.json.
constexpr double kIpcNormCcNvm = 0.836716;
constexpr double kWritesNormCcNvm = 1.862797;

/// The designs of run_figure5_grid, in its column order.
const std::vector<core::DesignKind>& grid_kinds() {
  static const std::vector<core::DesignKind> kinds = {
      core::DesignKind::kWoCc, core::DesignKind::kStrict,
      core::DesignKind::kOsirisPlus, core::DesignKind::kCcNvmNoDs,
      core::DesignKind::kCcNvm};
  return kinds;
}

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  return a.instructions == b.instructions && a.cycles == b.cycles &&
         a.nvm_writes == b.nvm_writes &&
         a.traffic.total_writes() == b.traffic.total_writes() &&
         a.traffic.reads == b.traffic.reads &&
         a.design_stats.drain_cycles == b.design_stats.drain_cycles &&
         a.design_stats.engine_busy_cycles == b.design_stats.engine_busy_cycles;
}

bool same_grid(const std::vector<sim::BenchmarkRow>& a,
               const std::vector<sim::BenchmarkRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].benchmark != b[r].benchmark ||
        a[r].runs.size() != b[r].runs.size()) {
      return false;
    }
    for (std::size_t k = 0; k < a[r].runs.size(); ++k) {
      if (a[r].runs[k].kind != b[r].runs[k].kind ||
          !same_result(a[r].runs[k].result, b[r].runs[k].result)) {
        return false;
      }
    }
  }
  return true;
}

/// A reference source over a pre-generated vector (System::run_source).
struct VectorSource {
  const std::vector<trace::MemRef>* refs;
  std::size_t at = 0;
  trace::MemRef next() { return (*refs)[at++]; }
};

class SimPhase final : public Phase {
 public:
  SimPhase(const SimSpec& spec, RunContext& ctx) : spec_(spec), ctx_(ctx) {
    config_.max_threads = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, ctx_.clients);
  }

  /// The grid's inputs are the paper's fixed profiles and seed; there is
  /// nothing to build ahead of the runs.
  void setup() override {}

  /// Grids until the phase has spent its budget up to the end of this
  /// round, and at least the rounds' share of `min_grids` so far. A grid
  /// takes seconds, longer than one round's share can be, so a round
  /// that overshoots is paid back by running no grid in a later one.
  void measure_round(std::size_t round, std::size_t rounds) override {
    const double target = spec_.seconds * static_cast<double>(round + 1) /
                          static_cast<double>(rounds);
    const std::size_t due = (round + 1) * spec_.min_grids / rounds;
    while (walls_.size() < due || spent_s_ < target) {
      const auto t0 = Clock::now();
      std::vector<sim::BenchmarkRow> rows = sim::run_figure5_grid(config_);
      walls_.push_back(seconds_since(t0));
      spent_s_ += walls_.back();
      if (first_.empty()) {
        first_ = std::move(rows);
        check_outputs(first_);
      } else {
        ctx_.checks->check(same_grid(first_, rows),
                           "sim grid differs between repetitions");
      }
    }
  }

  void finish() override {
    if (walls_.empty()) return;
    MetricSink& m = *ctx_.metrics;
    // The median grid: unlike a reopen, a grid is long enough to average
    // over the host's short stalls, and its fastest one is a rare lucky
    // stretch (up to 1.3x faster than the rest) rather than the norm. The
    // fastest is printed.
    const double mid = median(walls_);
    m.set("sim_refs_per_s", static_cast<double>(refs_per_grid()) / mid,
          "1/s");
    m.set("sim_grid_median_s", mid, "s");
    m.set("sim_grid_fastest_s",
          *std::min_element(walls_.begin(), walls_.end()), "s");
    m.set("sim_grids", static_cast<double>(walls_.size()), "count");
  }

 private:
  std::uint64_t refs_per_grid() const {
    return trace::spec2006_profiles().size() * grid_kinds().size() *
           (config_.warmup_refs + config_.measure_refs);
  }

  /// Pinned outputs and the paper's ordering: cc-NVM above SC and
  /// Osiris Plus in IPC.
  void check_outputs(const std::vector<sim::BenchmarkRow>& rows) {
    const double ipc = sim::geomean_ipc(rows, core::DesignKind::kCcNvm);
    const double wr = sim::geomean_writes(rows, core::DesignKind::kCcNvm);
    ctx_.checks->check(std::abs(ipc - kIpcNormCcNvm) < 5e-7,
                       "sim ipc_norm/cc_nvm moved: " + std::to_string(ipc));
    ctx_.checks->check(std::abs(wr - kWritesNormCcNvm) < 5e-7,
                       "sim writes_norm/cc_nvm moved: " + std::to_string(wr));
    ctx_.checks->check(
        ipc > sim::geomean_ipc(rows, core::DesignKind::kStrict) &&
            ipc > sim::geomean_ipc(rows, core::DesignKind::kOsirisPlus),
        "sim: cc-NVM IPC no longer above SC and Osiris Plus");
    MetricSink& m = *ctx_.metrics;
    m.set("sim_ipc_norm_cc_nvm", ipc, "x");
    m.set("sim_writes_norm_cc_nvm", wr, "x");
  }

 public:
  void run_traced() override {
    const std::vector<trace::WorkloadProfile> profiles =
        trace::spec2006_profiles();
    const std::vector<core::DesignKind>& kinds = grid_kinds();
    std::vector<sim::BenchmarkRow> rows(profiles.size());
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      rows[p].benchmark = profiles[p].name;
      rows[p].runs.resize(kinds.size());
    }
    // One span per run_single cell, on the grid's worker count.
    SpanLog& spans = *ctx_.spans;
    const std::size_t cells = profiles.size() * kinds.size();
    std::vector<std::int64_t> start_ns(cells, 0), end_ns(cells, 0);
    const std::int64_t g0 = spans.now_ns();
    parallel_for(cells, config_.max_threads, [&](std::size_t i) {
      const std::size_t p = i / kinds.size();
      const std::size_t k = i % kinds.size();
      start_ns[i] = spans.now_ns();
      rows[p].runs[k] = sim::run_single(profiles[p], kinds[k], config_);
      end_ns[i] = spans.now_ns();
    });
    const std::int64_t root =
        spans.add("sim.grid", g0, spans.now_ns(), -1, 4'000'000);
    std::vector<double> cell_s(cells, 0.0);
    for (std::size_t i = 0; i < cells; ++i) {
      spans.add("sim.cell." + profiles[i / kinds.size()].name + "." +
                    std::string(core::design_name(kinds[i % kinds.size()])),
                start_ns[i], end_ns[i], root, 4'000'001 + i);
      cell_s[i] = static_cast<double>(end_ns[i] - start_ns[i]) / 1e9;
    }
    check_outputs(rows);

    MetricSink& m = *ctx_.metrics;
    m.set("sim.cell_s_p50", median(cell_s), "s");
    m.set("sim.cell_s_max", *std::max_element(cell_s.begin(), cell_s.end()),
          "s");

    // cc-NVM cells: the simulated cache and engine behaviour.
    std::uint64_t l1h = 0, l1a = 0, l2h = 0, l2a = 0, mh = 0, ma = 0;
    std::uint64_t drain = 0, cycles = 0, busy = 0, wbs = 0;
    for (const sim::BenchmarkRow& row : rows) {
      for (const sim::DesignRun& run : row.runs) {
        if (run.kind != core::DesignKind::kCcNvm) continue;
        const sim::SimResult& r = run.result;
        l1h += r.l1_stats.hits;
        l1a += r.l1_stats.hits + r.l1_stats.misses;
        l2h += r.l2_stats.hits;
        l2a += r.l2_stats.hits + r.l2_stats.misses;
        mh += r.meta_stats.hits;
        ma += r.meta_stats.hits + r.meta_stats.misses;
        drain += r.design_stats.drain_cycles;
        cycles += r.cycles;
        busy += r.design_stats.engine_busy_cycles;
        wbs += r.design_stats.write_backs;
      }
    }
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    m.set("sim.l1_hit_rate", ratio(l1h, l1a), "ratio");
    m.set("sim.l2_hit_rate", ratio(l2h, l2a), "ratio");
    m.set("sim.meta_hit_rate", ratio(mh, ma), "ratio");
    m.set("sim.drain_cycle_share", ratio(drain, cycles), "ratio");
    m.set("sim.engine_busy_cycles_per_wb", ratio(busy, wbs), "cycles");

    // One cc-NVM cell again: generate its references up front, then feed
    // them through the model, so trace and model host time separate.
    const trace::WorkloadProfile& profile = profiles.front();
    const std::uint64_t n = config_.warmup_refs + config_.measure_refs;
    const std::int64_t r0 = spans.now_ns();
    trace::TraceGenerator gen(profile, config_.seed);
    const std::vector<trace::MemRef> refs = gen.take(n);
    const std::int64_t r1 = spans.now_ns();
    sim::SystemConfig sys_cfg;
    sys_cfg.kind = core::DesignKind::kCcNvm;
    sys_cfg.design = config_.design;
    sim::System system(sys_cfg);
    VectorSource source{&refs};
    system.run_source(source, config_.warmup_refs);
    system.reset_measurement();
    system.run_source(source, config_.measure_refs);
    const std::int64_t r2 = spans.now_ns();
    const std::int64_t split = spans.add("sim.cell_split", r0, r2, -1, 5'000'000);
    spans.add("trace.generate", r0, r1, split, 5'000'000);
    spans.add("sim.model", r1, r2, split, 5'000'000);
    ctx_.checks->check(same_result(system.result(), rows.front().runs.back().result),
                       "pre-generated cc-NVM cell differs from the grid cell");
    m.set("trace.ns_per_ref",
          static_cast<double>(r1 - r0) / static_cast<double>(n), "ns");
    m.set("sim.ns_per_ref",
          static_cast<double>(r2 - r1) / static_cast<double>(n), "ns");
  }

 private:
  SimSpec spec_;
  RunContext& ctx_;
  sim::ExperimentConfig config_;
  std::vector<double> walls_;               // measured run: grid wall times
  double spent_s_ = 0.0;                    // measured run: their sum
  std::vector<sim::BenchmarkRow> first_;    // measured run: the first grid
};

}  // namespace

std::unique_ptr<Phase> make_sim_phase(const SimSpec& spec, RunContext& ctx) {
  return std::make_unique<SimPhase>(spec, ctx);
}

}  // namespace perfbench
