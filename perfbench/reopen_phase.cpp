// Crash-reopen: a file-backed cc-NVM store is loaded, updated, and left
// by crash_power_loss() mid-epoch. Every timed repetition reopens a
// fresh, untimed copy of that crashed image — recover() writes the
// recovered metadata back into the image it runs on, so reusing one
// file would price a clean reopen instead of crash recovery.
#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <map>
#include <string_view>

#include "common/rng.h"
#include "core/design.h"
#include "core/tcb.h"
#include "nvm/file_backend.h"
#include "nvm/image.h"
#include "phases.h"
#include "store/kv_store.h"
#include "store/ycsb_runner.h"
#include "trace/ycsb.h"

namespace perfbench {
namespace {

using namespace ccnvm;

constexpr std::uint32_t kValueBytes = 100;

std::string value_for(std::uint64_t key_id, std::uint64_t version) {
  return perfbench::value_for(0xdead, key_id, version, kValueBytes);
}

/// Copies `from` to `to`, skipping all-zero chunks (the image file is
/// sparse: only populated slots are ever written). Returns false on any
/// I/O error. The old `to` is unlinked, never truncated: ext4 flushes a
/// file's dirty data to disk when it is truncated to zero, which would
/// put a burst of device writes beside every timed repetition.
bool sparse_copy(const std::string& from, const std::string& to) {
  const int in = ::open(from.c_str(), O_RDONLY | O_CLOEXEC);
  if (in < 0) return false;
  ::unlink(to.c_str());
  const int out =
      ::open(to.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (out < 0) {
    ::close(in);
    return false;
  }
  std::array<char, 1 << 16> buf{};
  off_t offset = 0;
  bool ok = true;
  while (ok) {
    const ssize_t n = ::read(in, buf.data(), buf.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ok = n == 0;
      break;
    }
    bool zero = true;
    for (ssize_t i = 0; i < n && zero; ++i) zero = buf[static_cast<std::size_t>(i)] == 0;
    if (!zero) {
      ssize_t done = 0;
      while (done < n) {
        const ssize_t w = ::pwrite(out, buf.data() + done,
                                   static_cast<std::size_t>(n - done),
                                   offset + done);
        if (w < 0 && errno == EINTR) continue;
        if (w <= 0) {
          ok = false;
          break;
        }
        done += w;
      }
    }
    offset += n;
  }
  ok = ok && ::ftruncate(out, offset) == 0;
  ok = (::close(out) == 0) && ok;
  ::close(in);
  return ok;
}

class ReopenPhase final : public Phase {
 public:
  ReopenPhase(const ReopenSpec& spec, RunContext& ctx)
      : spec_(spec),
        ctx_(ctx),
        image_path_(ctx.work_dir + "/crashed.img"),
        copy_path_(ctx.work_dir + "/reopen.img") {
    store_ = store::StoreConfig::sized_for(spec_.records, kValueBytes);
    design_.data_capacity = store::capacity_for(store_);
  }

  ~ReopenPhase() override {
    ::unlink(image_path_.c_str());
    ::unlink(copy_path_.c_str());
  }

  ReopenPhase(const ReopenPhase&) = delete;
  ReopenPhase& operator=(const ReopenPhase&) = delete;

  /// Builds the crashed image: `records` puts, as many seeded updates,
  /// no final checkpoint, then power loss.
  void setup() override {
    model_.clear();
    ::unlink(image_path_.c_str());  // see sparse_copy: unlink, not truncate
    core::DesignConfig build = design_;
    build.backend_factory = [path = image_path_](std::uint64_t bytes) {
      return nvm::FileBackend::create(path, bytes);
    };
    auto design = core::make_design(core::DesignKind::kCcNvm, build);
    auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
    store::SecureKvStore kv(*base, store_);
    std::vector<std::uint64_t> version(spec_.records, 0);
    for (std::uint64_t id = 0; id < spec_.records; ++id) {
      const std::string key = trace::YcsbGenerator::key_name(id);
      std::string value = value_for(id, 0);
      ctx_.checks->check(kv.put(key, value), "image load put rejected");
      model_[key] = std::move(value);
    }
    Rng rng(derive_seed(ctx_.seed, 0x1eb0));
    for (std::uint64_t i = 0; i < spec_.records; ++i) {
      const std::uint64_t id = rng.below(spec_.records);
      const std::string key = trace::YcsbGenerator::key_name(id);
      std::string value = value_for(id, ++version[id]);
      ctx_.checks->check(kv.put(key, value), "image update put rejected");
      model_[key] = std::move(value);
    }
    design->crash_power_loss();
  }

  void measure_round(std::size_t /*round*/, std::size_t rounds) override {
    run_reps(spec_.seconds / static_cast<double>(rounds),
             (spec_.min_reps + rounds - 1) / rounds);
  }

  void finish() override { report(); }

  void run_traced() override {
    run_reps(spec_.seconds, spec_.min_reps);
    report();
  }

 private:
  struct Rep {
    double total_ms = 0, open_ms = 0, decode_ms = 0, construct_ms = 0,
           restore_ms = 0, recover_ms = 0, store_ms = 0;
    double retries = 0, rebuild_hash_ops = 0;
  };

  /// Timed reopens, each of a fresh copy, for at least `seconds` and
  /// `min_reps` repetitions.
  void run_reps(double seconds, std::size_t min_reps) {
    std::vector<Rep>& reps = reps_;
    const std::size_t first = reps.size();
    const auto t_start = Clock::now();
    while (reps.size() - first < min_reps ||
           seconds_since(t_start) < seconds) {
      if (!sparse_copy(image_path_, copy_path_)) {
        ctx_.checks->fail("could not copy the crashed image");
        return;
      }
      const std::uint64_t op_id = 3'000'000 + reps.size();
      SpanLog& spans = *ctx_.spans;
      std::array<std::int64_t, 7> t{};
      t[0] = spans.now_ns();
      auto backend = nvm::FileBackend::open(copy_path_);
      t[1] = spans.now_ns();
      if (backend == nullptr) {
        ctx_.checks->fail("crashed image does not reopen");
        return;
      }
      std::uint8_t regs[nvm::Backend::kRegisterCapacity];
      const std::size_t reg_len = backend->load_registers(regs, sizeof(regs));
      core::TcbRegisters tcb;
      const bool have_tcb = core::decode_tcb(regs, reg_len, tcb);
      t[2] = spans.now_ns();
      if (!have_tcb) {
        ctx_.checks->fail("crashed image carries no TCB");
        return;
      }
      nvm::NvmImage image(std::move(backend));
      auto design = core::make_design(core::DesignKind::kCcNvm, design_);
      auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
      t[3] = spans.now_ns();
      base->restore_from_power_down(std::move(image), tcb);
      t[4] = spans.now_ns();
      const core::RecoveryReport report = design->recover();
      t[5] = spans.now_ns();
      store::SecureKvStore kv = store::SecureKvStore::open(*base, store_);
      t[6] = spans.now_ns();

      const auto ms = [&](std::size_t a, std::size_t b) {
        return static_cast<double>(t[b] - t[a]) / 1e6;
      };
      Rep rep;
      rep.total_ms = ms(0, 6);
      rep.open_ms = ms(0, 1);
      rep.decode_ms = ms(1, 2);
      rep.construct_ms = ms(2, 3);
      rep.restore_ms = ms(3, 4);
      rep.recover_ms = ms(4, 5);
      rep.store_ms = ms(5, 6);
      rep.retries = static_cast<double>(report.total_retries);
      rep.rebuild_hash_ops = static_cast<double>(report.rebuild_hash_ops);
      reps.push_back(rep);
      if (ctx_.trace) {
        const std::int64_t root = spans.add("recover.reopen", t[0], t[6], -1, op_id);
        const char* steps[] = {"nvm.backend_open", "core.tcb_decode",
                               "core.construct",   "core.restore",
                               "core.recover",     "store.open"};
        for (std::size_t i = 0; i < 6; ++i) {
          spans.add(steps[i], t[i], t[i + 1], root, op_id);
        }
      }

      // Untimed checks: clean recovery and the record count on every
      // repetition; every record readable with its last written value on
      // every fourth (each repetition recovers a copy of the same bytes,
      // and the full read costs about as much as the reopen itself).
      ctx_.checks->check(report.clean && report.metadata_recovered,
                         "recovery not clean: " + report.detail);
      ctx_.checks->check(kv.size() == model_.size(),
                         "reopened store has the wrong record count");
      if ((reps.size() - 1) % 4 != 0) continue;
      std::uint64_t mismatched = 0;
      std::uint64_t seen = 0;
      kv.for_each([&](std::string_view key, std::string_view value) {
        ++seen;
        const auto it = model_.find(std::string(key));
        if (it == model_.end() || it->second != value) ++mismatched;
      });
      ctx_.checks->check(mismatched == 0 && seen == model_.size(),
                         "reopened store content diverges from the model");
    }
  }

  void report() {
    if (reps_.empty()) return;  // the failed check is already counted
    const std::vector<Rep>& reps = reps_;

    // Every repetition does the same deterministic work on a copy of the
    // same bytes. On a shared virtual host that work runs up to ~2x
    // slower for stretches of seconds to minutes; the fastest repetition
    // is by far the steadiest figure across runs, so it is the one gated,
    // with the step breakdown of that repetition. The median is printed
    // beside it.
    const Rep* best = &reps.front();
    std::vector<double> totals;
    for (const Rep& r : reps) {
      if (r.total_ms < best->total_ms) best = &r;
      totals.push_back(r.total_ms);
    }
    MetricSink& m = *ctx_.metrics;
    m.set("recovery_ms", best->total_ms, "ms");
    m.set("recovery_median_ms", median(totals), "ms");
    m.set("recovery_reps", static_cast<double>(reps.size()), "count");
    m.set("nvm.backend_open_ms", best->open_ms, "ms");
    m.set("core.tcb_decode_ms", best->decode_ms, "ms");
    m.set("core.construct_ms", best->construct_ms, "ms");
    m.set("core.restore_ms", best->restore_ms, "ms");
    m.set("core.recover_ms", best->recover_ms, "ms");
    m.set("store.open_ms", best->store_ms, "ms");
    m.set("core.recover_retries", best->retries, "count");
    m.set("core.rebuild_hash_ops", best->rebuild_hash_ops, "count");
  }

  ReopenSpec spec_;
  RunContext& ctx_;
  std::string image_path_;
  std::string copy_path_;
  store::StoreConfig store_;
  core::DesignConfig design_;
  std::map<std::string, std::string> model_;
  std::vector<Rep> reps_;
};

}  // namespace

std::unique_ptr<Phase> make_reopen_phase(const ReopenSpec& spec,
                                         RunContext& ctx) {
  return std::make_unique<ReopenPhase>(spec, ctx);
}

}  // namespace perfbench
