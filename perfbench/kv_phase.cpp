// KV service session: closed-loop YCSB clients over service::KvService
// (in-memory media, greedy group commit), every get checked against a
// per-client model, final content and image audit checked after
// shutdown. The traced run replays one client's stream twice — through
// the service and through standalone engines of identical config — to
// build the per-op ledger.
#include <array>
#include <atomic>
#include <latch>
#include <map>
#include <optional>
#include <string_view>
#include <thread>

#include "common/rng.h"
#include "core/design.h"
#include "crypto/hmac_sha1.h"
#include "crypto/otp.h"
#include "phases.h"
#include "service/kv_service.h"
#include "store/kv_store.h"
#include "store/ycsb_runner.h"
#include "trace/ycsb.h"

namespace perfbench {
namespace {

using namespace ccnvm;

constexpr std::uint32_t kValueBytes = 100;
constexpr std::size_t kServiceShards = 2;
constexpr std::size_t kReservoir = 1u << 18;

std::string value_for(std::uint64_t client, std::uint64_t key_id,
                      std::uint64_t version) {
  return perfbench::value_for(client + 1, key_id, version, kValueBytes);
}

void fold_fnv(std::uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  h ^= 0xff;
  h *= 1099511628211ull;
}

using Content = std::map<std::string, std::string>;

std::uint64_t digest_of(const Content& content) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& [key, value] : content) {
    fold_fnv(h, key);
    fold_fnv(h, value);
  }
  return h;
}

/// Counters summed over a set of engines.
struct EngineCounters {
  core::DesignStats design;
  nvm::TrafficStats traffic;
  cache::CacheStats meta;
};

void accumulate(EngineCounters& sum, const core::SecureNvmBase& base) {
  const core::DesignStats& d = base.stats();
  sum.design.write_backs += d.write_backs;
  sum.design.reads += d.reads;
  sum.design.drains += d.drains;
  for (std::size_t i = 0; i < d.drains_by_trigger.size(); ++i) {
    sum.design.drains_by_trigger[i] += d.drains_by_trigger[i];
  }
  sum.design.page_reencryptions += d.page_reencryptions;
  sum.design.hmac_ops += d.hmac_ops;
  sum.design.aes_ops += d.aes_ops;
  const nvm::TrafficStats& t = base.traffic();
  sum.traffic.data_writes += t.data_writes;
  sum.traffic.counter_writes += t.counter_writes;
  sum.traffic.mt_writes += t.mt_writes;
  sum.traffic.dh_writes += t.dh_writes;
  sum.traffic.reads += t.reads;
  const cache::CacheStats m = base.meta_cache_stats();
  sum.meta.hits += m.hits;
  sum.meta.misses += m.misses;
  sum.meta.evictions += m.evictions;
  sum.meta.dirty_evictions += m.dirty_evictions;
}

/// One op of the traced single-client replay.
struct ReplayOp {
  bool put = false;
  bool traced = false;
  std::uint64_t key_id = 0;
  std::uint64_t version = 0;
};

/// Closed-loop windows, cut into 0.25 s slices. A shared host runs the
/// same work up to ~2x slower for stretches of seconds; such a stretch
/// slows whole slices, so the reported figures are the better quartile
/// over the slices of all rounds (rates: the upper quartile; latencies:
/// the lower quartile of the per-slice percentile). A code change moves
/// every slice, so it still shows.
struct Window {
  struct Slice {
    std::uint64_t ops = 0;
    std::vector<double> get_us;
    std::vector<double> put_us;
  };
  std::vector<Slice> slices;
  double slice_seconds = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t user_bytes = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  double seconds = 0.0;

  /// Quantile `q` over slices of a per-slice statistic.
  template <typename Fn>
  double over_slices(double q, Fn&& fn) const {
    std::vector<double> v;
    for (const Slice& s : slices) v.push_back(fn(s));
    return quantile(v, q);
  }

  /// Appends another window of the same slice length.
  void absorb(Window&& w) {
    for (Slice& s : w.slices) slices.push_back(std::move(s));
    slice_seconds = w.slice_seconds;
    ops += w.ops;
    user_bytes += w.user_bytes;
    gets += w.gets;
    puts += w.puts;
    seconds += w.seconds;
  }
};

struct CryptoCosts {
  double hmac_tag_ns = 0.0;
  double tag_many8_ns_per_tag = 0.0;
  double otp_pad_ns = 0.0;
};
CryptoCosts measure_crypto_costs();

class KvPhase final : public Phase {
 public:
  KvPhase(const KvSpec& spec, RunContext& ctx) : spec_(spec), ctx_(ctx) {
    per_client_ = spec_.records / ctx_.clients;
    workload_ = trace::ycsb_by_name(spec_.mix);
    workload_.record_count = per_client_;
    workload_.value_bytes = kValueBytes;
    workload_.validate();
    config_.shards = kServiceShards;
    config_.commit = {.max_batch = 32, .max_delay_us = 0};
    config_.kind = core::DesignKind::kCcNvm;
    // Each engine is sized for the whole keyspace: routing is hashed.
    config_.store = store::StoreConfig::sized_for(spec_.records, kValueBytes,
                                                  /*shards=*/1);
    config_.design.data_capacity = store::capacity_for(config_.store);
    if (ctx_.trace) {
      config_.after_apply_hook = [this] {
        if (hooks_on_.load(std::memory_order_relaxed)) {
          apply_ns_.store(ctx_.spans->now_ns(), std::memory_order_relaxed);
        }
      };
      config_.after_barrier_hook = [this] {
        if (hooks_on_.load(std::memory_order_relaxed)) {
          barrier_ns_.store(ctx_.spans->now_ns(), std::memory_order_relaxed);
        }
      };
    }
  }

  void setup() override {
    service_.reset();
    clients_.assign(ctx_.clients, Client{});
    service_ = std::make_unique<service::KvService>(config_);
    // Load directly into the shard engines before any traffic (the
    // quiescent window KvService allows), then checkpoint and zero the
    // counters so the measured window starts from a clean slate.
    for (std::size_t s = 0; s < service_->shards(); ++s) {
      load_engine(service_->engine_store(s), s);
    }
    for (std::size_t s = 0; s < service_->shards(); ++s) {
      service_->engine_store(s).checkpoint();
      service_->engine_base(s).reset_stats();
    }
  }

  void measure_round(std::size_t round, std::size_t rounds) override {
    if (round == 0) before_ = counters();
    measured_.absorb(run_window(spec_.seconds / static_cast<double>(rounds),
                                0x5eed + (round << 16)));
  }

  void finish() override {
    service_->shutdown();
    const EngineCounters after = counters();
    const Window& w = measured_;
    MetricSink& m = *ctx_.metrics;
    const auto pct = [](bool put, double q) {
      return [put, q](const Window::Slice& s) {
        return quantile(put ? s.put_us : s.get_us, q);
      };
    };
    const auto rate = [&](const Window::Slice& s) {
      return static_cast<double>(s.ops) / w.slice_seconds;
    };
    m.set("ops_per_s", w.over_slices(0.75, rate), "1/s");
    m.set("get_p50_us", w.over_slices(0.25, pct(false, 0.50)), "us");
    m.set("get_p90_us", w.over_slices(0.25, pct(false, 0.90)), "us");
    m.set("get_p99_us", w.over_slices(0.25, pct(false, 0.99)), "us");
    m.set("put_p50_us", w.over_slices(0.25, pct(true, 0.50)), "us");
    m.set("put_p90_us", w.over_slices(0.25, pct(true, 0.90)), "us");
    m.set("put_p99_us", w.over_slices(0.25, pct(true, 0.99)), "us");
    m.set("ops_per_s_slice_median", w.over_slices(0.5, rate), "1/s");
    m.set("window_ops_per_s", static_cast<double>(w.ops) / w.seconds, "1/s");
    m.set("window_slices", static_cast<double>(w.slices.size()), "count");
    m.set("get_samples", static_cast<double>(w.gets), "count");
    m.set("put_samples", static_cast<double>(w.puts), "count");
    const std::uint64_t nvm_lines =
        after.traffic.total_writes() - before_.traffic.total_writes();
    m.set("nvm_write_amp",
          w.user_bytes == 0
              ? 0.0
              : static_cast<double>(nvm_lines * kLineSize) /
                    static_cast<double>(w.user_bytes),
          "B/B");
    shutdown_and_verify();
  }

 private:
  struct Client {
    Content model;
    std::uint64_t version = 0;
  };

  std::string key_of(std::size_t client, std::uint64_t key_id) const {
    return trace::YcsbGenerator::key_name(client * per_client_ + key_id);
  }

  /// Loads every record routed to service shard `shard` into `kv`, in
  /// one fixed order, and records it in the client models.
  void load_engine(store::SecureKvStore& kv, std::size_t shard) {
    for (std::size_t t = 0; t < ctx_.clients; ++t) {
      for (std::uint64_t id = 0; id < per_client_; ++id) {
        const std::string key = key_of(t, id);
        if (service::KvService::shard_of(key, kServiceShards) != shard) {
          continue;
        }
        std::string value = value_for(t, id, 0);
        if (!kv.put(key, value)) {
          ctx_.checks->fail("load put rejected: " + key);
          continue;
        }
        clients_[t].model[key] = std::move(value);
      }
    }
  }

  /// Engine counters of the live service. Safe while no request is in
  /// flight: every engine write happens before the ack that the last
  /// client already observed, and the next pop synchronizes again.
  EngineCounters counters() {
    EngineCounters sum;
    for (std::size_t s = 0; s < service_->shards(); ++s) {
      accumulate(sum, service_->engine_base(s));
    }
    return sum;
  }

  /// `clients` closed-loop clients for `seconds`, each on its own key
  /// range; gets are checked against the client's model as they land.
  Window run_window(double seconds, std::uint64_t stream) {
    const std::size_t n = ctx_.clients;
    const std::size_t k =
        std::max<std::size_t>(4, static_cast<std::size_t>(seconds / 0.25));
    const double slice_s = seconds / static_cast<double>(k);
    struct PerClient {
      std::vector<Reservoir> get_res, put_res;
      std::vector<std::uint64_t> slice_ops;
      std::uint64_t ops = 0, user_bytes = 0, failed = 0;
      std::uint64_t gets = 0, puts = 0;
      std::string first_failure;
      Clock::time_point last;
    };
    std::vector<PerClient> pc(n);
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t i = 0; i < k; ++i) {
        pc[t].get_res.emplace_back(kReservoir / k,
                                   derive_seed(ctx_.seed, t, stream + 1 + 2 * i));
        pc[t].put_res.emplace_back(kReservoir / k,
                                   derive_seed(ctx_.seed, t, stream + 2 + 2 * i));
      }
      pc[t].slice_ops.assign(k, 0);
    }
    std::latch start(static_cast<std::ptrdiff_t>(n) + 1);
    Clock::time_point t_start;
    Clock::time_point deadline;
    const auto slice_of = [&](Clock::time_point t1) {
      return static_cast<std::size_t>(
          std::chrono::duration<double>(t1 - t_start).count() / slice_s);
    };
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        Client& c = clients_[t];
        PerClient& p = pc[t];
        trace::YcsbGenerator gen(workload_,
                                 derive_seed(ctx_.seed, t, stream));
        start.arrive_and_wait();
        while (true) {
          const trace::KvOp op = gen.next();
          const std::string key = key_of(t, op.key_id);
          const bool put = op.type != trace::KvOpType::kRead;
          std::string value;
          if (put) value = value_for(t, op.key_id, ++c.version);
          const auto t0 = Clock::now();
          const service::Result r =
              put ? service_->put(key, value) : service_->get(key);
          const auto t1 = Clock::now();
          if (put) {
            ++p.puts;
            if (r.ok) {
              c.model[key] = std::move(value);
              p.user_bytes += kValueBytes;
            } else if (p.failed++ == 0) {
              p.first_failure = "put rejected: " + key;
            }
          } else {
            ++p.gets;
            const auto it = c.model.find(key);
            if (it == c.model.end() || !r.ok || r.value != it->second) {
              if (p.failed++ == 0) p.first_failure = "stale get: " + key;
            }
          }
          const std::size_t slice = slice_of(t1);
          if (slice < k) {
            (put ? p.put_res : p.get_res)[slice].add(us_between(t0, t1));
            ++p.slice_ops[slice];
          }
          ++p.ops;
          p.last = t1;
          if (t1 >= deadline) break;
        }
      });
    }
    t_start = Clock::now();
    deadline = t_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
    start.arrive_and_wait();
    for (std::thread& th : threads) th.join();

    Window w;
    w.slices.resize(k);
    w.slice_seconds = slice_s;
    Clock::time_point end = t_start;
    for (std::size_t t = 0; t < n; ++t) {
      const PerClient& p = pc[t];
      w.ops += p.ops;
      w.user_bytes += p.user_bytes;
      w.gets += p.gets;
      w.puts += p.puts;
      end = std::max(end, p.last);
      for (std::size_t i = 0; i < k; ++i) {
        w.slices[i].ops += p.slice_ops[i];
        p.get_res[i].append_to(w.slices[i].get_us);
        p.put_res[i].append_to(w.slices[i].put_us);
      }
      ctx_.checks->attempted += p.ops;
      ctx_.checks->failed += p.failed;
      if (p.failed != 0 && ctx_.checks->messages.size() < 8) {
        ctx_.checks->messages.push_back(p.first_failure);
      }
    }
    w.seconds = std::chrono::duration<double>(end - t_start).count();
    return w;
  }

  /// Shuts the service down and checks every engine: image audit clean,
  /// content equal to the union of the client models, content digest.
  void shutdown_and_verify() {
    service_->shutdown();
    Content expected;
    for (const Client& c : clients_) {
      expected.insert(c.model.begin(), c.model.end());
    }
    Content found;
    for (std::size_t s = 0; s < service_->shards(); ++s) {
      ctx_.checks->check(service_->engine_base(s).audit_image().empty(),
                         "kv engine " + std::to_string(s) +
                             " does not audit clean");
      service_->engine_store(s).for_each(
          [&](std::string_view key, std::string_view value) {
            found.emplace(std::string(key), std::string(value));
          });
    }
    ctx_.checks->check(found == expected,
                       "kv final content diverges from the client models");
    std::printf("kv.final_digest = %016llx (%zu keys)\n",
                static_cast<unsigned long long>(digest_of(found)),
                found.size());
  }

 public:
  // --- Traced run ------------------------------------------------------

  void run_traced() override {
    MetricSink& m = *ctx_.metrics;
    const double replay_s = std::max(0.5, 0.15 * spec_.seconds);
    const double count_s = std::max(1.0, 0.25 * spec_.seconds);

    // Standalone engines with the service shards' exact configs and load
    // (reloading rewrites the models with the values they already hold).
    std::vector<std::unique_ptr<core::SecureNvmDesign>> designs;
    std::vector<store::SecureKvStore> stores;
    for (std::size_t s = 0; s < kServiceShards; ++s) {
      designs.push_back(core::make_design(
          config_.kind, service::KvService::engine_design_config(config_, s)));
      auto* base = dynamic_cast<core::SecureNvmBase*>(designs.back().get());
      stores.emplace_back(*base, config_.store);
    }
    for (std::size_t s = 0; s < kServiceShards; ++s) {
      load_engine(stores[s], s);
      stores[s].checkpoint();
    }

    // One client (client 0's key range and stream) through the service.
    // A warm-up pass sizes the replay. The replay's keys and op kinds then
    // run twice, block by block and back to back: with spans off (the
    // tracing-overhead baseline) and with spans on, the order alternating
    // between blocks so that neither pass always runs first. Every op gets
    // a fresh version when it is issued.
    trace::YcsbGenerator gen(workload_, derive_seed(ctx_.seed, 0, 0x7ace));
    Client& c0 = clients_[0];
    // The standalone engines check their gets against the content as of
    // the replayed op, so they keep their own copy of client 0's model.
    Content standalone_model = c0.model;
    struct OpTimes {
      double e2e = 0, ack = 0;                    // service replay
      double store = 0, barrier = 0;              // standalone replay
      double crypto_store = 0, crypto_barrier = 0;
    };
    std::vector<ReplayOp> issued;  // every op sent, in service order
    std::vector<ReplayOp> replay;  // the traced ones
    std::vector<OpTimes> times;    // per traced op
    SpanLog& spans = *ctx_.spans;
    const auto service_op = [&](const trace::KvOp& op, bool traced) {
      ReplayOp rop;
      rop.key_id = op.key_id;
      rop.traced = traced;
      rop.put = op.type != trace::KvOpType::kRead;
      if (rop.put) rop.version = ++c0.version;
      const std::string key = key_of(0, rop.key_id);
      const std::uint64_t op_id = 1'000'000 + replay.size();
      const std::int64_t t0 = traced ? spans.now_ns() : 0;
      if (rop.put) {
        std::string value = value_for(0, rop.key_id, rop.version);
        const service::Result r = service_->put(key, value);
        ctx_.checks->check(r.ok, "replay put rejected: " + key);
        c0.model[key] = std::move(value);
      } else {
        const service::Result r = service_->get(key);
        ctx_.checks->check(r.ok && r.value == c0.model[key],
                           "replay stale get: " + key);
      }
      issued.push_back(rop);
      if (!traced) return;
      const std::int64_t t3 = spans.now_ns();
      const std::int64_t ta = apply_ns_.load(std::memory_order_relaxed);
      const std::int64_t tb =
          rop.put ? barrier_ns_.load(std::memory_order_relaxed) : ta;
      const std::int64_t root = spans.add("kv.op", t0, t3, -1, op_id);
      spans.add("service.submit_to_applied", t0, ta, root, op_id);
      if (rop.put) spans.add("core.barrier", ta, tb, root, op_id);
      spans.add("service.ack", tb, t3, root, op_id);
      OpTimes ot;
      ot.e2e = static_cast<double>(t3 - t0) / 1e3;
      ot.ack = static_cast<double>(t3 - tb) / 1e3;
      times.push_back(ot);
      replay.push_back(rop);
    };

    std::vector<trace::KvOp> pattern;
    {
      const auto t0 = Clock::now();
      while (seconds_since(t0) < 0.2 * replay_s) service_op(gen.next(), false);
      const double rate =
          static_cast<double>(issued.size()) / seconds_since(t0);
      const std::size_t n = std::clamp<std::size_t>(
          static_cast<std::size_t>(rate * replay_s), 64, 200'000);
      for (std::size_t i = 0; i < n; ++i) pattern.push_back(gen.next());
    }
    constexpr std::size_t kBlock = 256;
    double untraced_s = 0, traced_s = 0;
    for (std::size_t b = 0; b < pattern.size(); b += kBlock) {
      const std::size_t e = std::min(pattern.size(), b + kBlock);
      const bool traced_first = (b / kBlock) % 2 == 1;
      for (const bool traced : {traced_first, !traced_first}) {
        hooks_on_.store(traced);
        const auto t0 = Clock::now();
        for (std::size_t i = b; i < e; ++i) service_op(pattern[i], traced);
        (traced ? traced_s : untraced_s) += seconds_since(t0);
      }
    }
    hooks_on_.store(false);

    // The same ops through the standalone engines, in the service's order:
    // store call, then the checkpoint the service's group commit would
    // take for a put. Only the traced ops are timed.
    const CryptoCosts cc = measure_crypto_costs();
    std::uint64_t probe_reads = 0, gets = 0, lines_written = 0, puts = 0;
    std::size_t traced_ops = 0;
    for (const ReplayOp& rop : issued) {
      const std::string key = key_of(0, rop.key_id);
      const std::size_t s = service::KvService::shard_of(key, kServiceShards);
      store::SecureKvStore& kv = stores[s];
      std::string value;
      if (rop.put) value = value_for(0, rop.key_id, rop.version);
      if (!rop.traced) {
        if (rop.put) {
          ctx_.checks->check(kv.put(key, value),
                             "standalone put rejected: " + key);
          kv.checkpoint();
          standalone_model[key] = std::move(value);
        } else {
          ctx_.checks->check(kv.get(key) == standalone_model[key],
                             "standalone stale get: " + key);
        }
        continue;
      }
      const std::size_t i = traced_ops++;
      core::SecureNvmBase& base = kv.nvm();
      const std::uint64_t op_id = 2'000'000 + i;
      const core::DesignStats d0 = base.stats();
      const store::StoreStats s0 = kv.stats();
      const std::int64_t t0 = spans.now_ns();
      bool ok = false;
      if (rop.put) {
        ok = kv.put(key, value);
      } else {
        ok = kv.get(key) == standalone_model[key];
      }
      const std::int64_t t1 = spans.now_ns();
      const core::DesignStats d1 = base.stats();
      const store::StoreStats s1 = kv.stats();
      std::int64_t t2 = t1;
      std::int64_t t1b = t1;
      core::DesignStats d2 = d1;
      if (rop.put) {
        t1b = spans.now_ns();
        kv.checkpoint();
        t2 = spans.now_ns();
        d2 = base.stats();
      }
      ctx_.checks->check(ok, "standalone replay op failed: " + key);
      if (rop.put) standalone_model[key] = std::move(value);
      const std::int64_t root = spans.add("engine.op", t0, t2, -1, op_id);
      spans.add(rop.put ? "store.put" : "store.get", t0, t1, root, op_id);
      if (rop.put) spans.add("core.barrier", t1b, t2, root, op_id);
      OpTimes& ot = times[i];
      ot.store = static_cast<double>(t1 - t0) / 1e3;
      ot.barrier = static_cast<double>(t2 - t1b) / 1e3;
      ot.crypto_store =
          (static_cast<double>(d1.hmac_ops - d0.hmac_ops) * cc.hmac_tag_ns +
           static_cast<double>(d1.aes_ops - d0.aes_ops) * cc.otp_pad_ns) /
          1e3;
      ot.crypto_barrier =
          (static_cast<double>(d2.hmac_ops - d1.hmac_ops) * cc.hmac_tag_ns +
           static_cast<double>(d2.aes_ops - d1.aes_ops) * cc.otp_pad_ns) /
          1e3;
      if (rop.put) {
        ++puts;
        lines_written += (s1.value_line_writes - s0.value_line_writes) +
                         (s1.header_writes - s0.header_writes);
      } else {
        ++gets;
        probe_reads += s1.probe_reads - s0.probe_reads;
      }
    }

    // The standalone engines must hold exactly the client models.
    {
      Content expected;
      for (const Client& c : clients_) {
        expected.insert(c.model.begin(), c.model.end());
      }
      Content found;
      for (store::SecureKvStore& kv : stores) {
        kv.for_each([&](std::string_view key, std::string_view value) {
          found.emplace(std::string(key), std::string(value));
        });
      }
      ctx_.checks->check(found == expected,
                         "standalone content diverges from the models");
    }

    // Ledger per op kind: measured hops, estimated crypto, and the
    // residual nobody measured (submit -> drain-worker wakeup, plus any
    // in-service vs standalone difference) reported, not hidden.
    double e2e_all = 0, unattributed_all = 0, handoff_all = 0;
    double store_put = 0, store_get = 0, barrier_put = 0;
    for (const bool put : {false, true}) {
      double n = 0, e2e = 0, ack = 0, st = 0, bar = 0, cs = 0, cb = 0;
      for (std::size_t i = 0; i < replay.size(); ++i) {
        if (replay[i].put != put) continue;
        const OpTimes& ot = times[i];
        n += 1;
        e2e += ot.e2e;
        ack += ot.ack;
        st += ot.store;
        bar += ot.barrier;
        cs += ot.crypto_store;
        cb += ot.crypto_barrier;
        handoff_all += ot.e2e - ot.store - ot.barrier;
      }
      if (n == 0) n = 1;
      const std::string k = put ? "put" : "get";
      const double unattributed =
          e2e - ack - (st - cs) - (bar - cb) - (cs + cb);
      m.set("ledger." + k + ".e2e_us", e2e / n, "us");
      m.set("ledger." + k + ".service_ack_us", ack / n, "us");
      m.set("ledger." + k + ".store_self_us", (st - cs) / n, "us");
      m.set("ledger." + k + ".barrier_self_us", (bar - cb) / n, "us");
      m.set("ledger." + k + ".crypto_est_us", (cs + cb) / n, "us");
      m.set("ledger." + k + ".unattributed_us", unattributed / n, "us");
      e2e_all += e2e;
      unattributed_all += unattributed;
      if (put) {
        store_put = st / n;
        barrier_put = bar / n;
      } else {
        store_get = st / n;
      }
    }
    const double nops = std::max<double>(1.0, static_cast<double>(replay.size()));
    m.set("ledger.unattributed_share",
          e2e_all > 0 ? unattributed_all / e2e_all : 0.0, "ratio");
    m.set("ledger.ops", static_cast<double>(replay.size()), "count");
    m.set("service.handoff_us", handoff_all / nops, "us");
    m.set("store.put_us", store_put, "us");
    m.set("store.get_us", store_get, "us");
    m.set("core.barrier_us", barrier_put, "us");
    m.set("store.probe_reads_per_get",
          gets ? static_cast<double>(probe_reads) / static_cast<double>(gets)
               : 0.0,
          "1/op");
    m.set("store.lines_written_per_put",
          puts ? static_cast<double>(lines_written) / static_cast<double>(puts)
               : 0.0,
          "1/op");
    m.set("trace.overhead_share", traced_s / untraced_s - 1.0, "ratio");
    m.set("crypto.hmac_tag_ns", cc.hmac_tag_ns, "ns");
    m.set("crypto.tag_many8_ns_per_tag", cc.tag_many8_ns_per_tag, "ns");
    m.set("crypto.otp_pad_ns", cc.otp_pad_ns, "ns");

    // Counts under the real closed-loop shape (all clients, group commit).
    const service::ServiceStats sv0 = service_->stats();
    const EngineCounters e0 = counters();
    const Window w = run_window(count_s, 0xc0de);
    const service::ServiceStats sv1 = service_->stats();
    const EngineCounters e1 = counters();
    const double ops = std::max<double>(1.0, static_cast<double>(w.ops));
    const auto per_op = [&](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a) / ops;
    };
    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
      return den == 0 ? 0.0
                      : static_cast<double>(num) / static_cast<double>(den);
    };
    m.set("service.mutations_per_barrier",
          ratio(sv1.mutations - sv0.mutations, sv1.barriers - sv0.barriers),
          "1/barrier");
    m.set("service.ops_per_batch",
          ratio(sv1.batched_ops - sv0.batched_ops, sv1.batches - sv0.batches),
          "1/batch");
    m.set("service.queue_high_water", static_cast<double>(sv1.queue_high_water),
          "count");
    m.set("service.barriers_per_op", per_op(sv0.barriers, sv1.barriers),
          "1/op");
    m.set("core.write_backs_per_op",
          per_op(e0.design.write_backs, e1.design.write_backs), "1/op");
    m.set("core.reads_per_op", per_op(e0.design.reads, e1.design.reads),
          "1/op");
    m.set("core.drains_per_op", per_op(e0.design.drains, e1.design.drains),
          "1/op");
    const char* triggers[] = {"daq", "eviction", "update_limit", "explicit"};
    for (std::size_t i = 0; i < 4; ++i) {
      m.set(std::string("core.drains.") + triggers[i],
            per_op(e0.design.drains_by_trigger[i],
                   e1.design.drains_by_trigger[i]),
            "1/op");
    }
    const double hmac_per_op = per_op(e0.design.hmac_ops, e1.design.hmac_ops);
    const double aes_per_op = per_op(e0.design.aes_ops, e1.design.aes_ops);
    m.set("crypto.hmac_per_op", hmac_per_op, "1/op");
    m.set("crypto.aes_per_op", aes_per_op, "1/op");
    m.set("crypto.est_us_per_op",
          (hmac_per_op * cc.hmac_tag_ns + aes_per_op * cc.otp_pad_ns) / 1e3,
          "us");
    m.set("secure.page_reencryptions_per_op",
          per_op(e0.design.page_reencryptions, e1.design.page_reencryptions),
          "1/op");
    const std::uint64_t hits = e1.meta.hits - e0.meta.hits;
    const std::uint64_t misses = e1.meta.misses - e0.meta.misses;
    m.set("cache.meta_hit_rate", ratio(hits, hits + misses), "ratio");
    m.set("cache.meta_dirty_evictions_per_op",
          per_op(e0.meta.dirty_evictions, e1.meta.dirty_evictions), "1/op");
    m.set("nvm.writes_per_op.data",
          per_op(e0.traffic.data_writes, e1.traffic.data_writes), "1/op");
    m.set("nvm.writes_per_op.counter",
          per_op(e0.traffic.counter_writes, e1.traffic.counter_writes), "1/op");
    m.set("nvm.writes_per_op.mt",
          per_op(e0.traffic.mt_writes, e1.traffic.mt_writes), "1/op");
    m.set("nvm.writes_per_op.dh",
          per_op(e0.traffic.dh_writes, e1.traffic.dh_writes), "1/op");

    shutdown_and_verify();
  }

 private:
  KvSpec spec_;
  RunContext& ctx_;
  std::uint64_t per_client_ = 0;
  trace::YcsbWorkload workload_;
  service::ServiceConfig config_;
  std::unique_ptr<service::KvService> service_;
  std::vector<Client> clients_;
  EngineCounters before_;  // measured run: engine counters before round 0
  Window measured_;        // measured run: the slices of every round
  std::atomic<bool> hooks_on_{false};
  std::atomic<std::int64_t> apply_ns_{0};
  std::atomic<std::int64_t> barrier_ns_{0};
};

/// Median of five timed batches of `iters` calls, in ns per call.
template <typename Fn>
double ns_per_call(std::size_t iters, Fn&& fn) {
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn(i);
    runs.push_back(seconds_since(t0) * 1e9 / static_cast<double>(iters));
  }
  return median(runs);
}

/// Direct per-call costs of the crypto primitives, for the ledger.
CryptoCosts measure_crypto_costs() {
  const crypto::HmacEngine hmac(crypto::HmacKey::from_seed(2019));
  const crypto::Aes128 aes(crypto::Aes128::key_from_seed(2019));
  std::array<Line, 8> lines{};
  for (std::size_t b = 0; b < lines.size(); ++b) {
    for (std::size_t i = 0; i < kLineSize; ++i) {
      lines[b][i] = static_cast<std::uint8_t>(i * 31 + 7 * b + 3);
    }
  }
  std::array<crypto::LineRef, 8> refs;
  for (std::size_t b = 0; b < refs.size(); ++b) {
    refs[b] = {lines[b].data(), lines[b].size()};
  }
  std::array<Tag128, 8> tags{};
  std::uint64_t sink = 0;
  CryptoCosts c;
  c.hmac_tag_ns = ns_per_call(20000, [&](std::size_t i) {
    lines[0][0] = static_cast<std::uint8_t>(i);
    sink += hmac.tag({lines[0].data(), lines[0].size()}).bytes[0];
  });
  c.tag_many8_ns_per_tag = ns_per_call(4000, [&](std::size_t i) {
                             lines[0][0] = static_cast<std::uint8_t>(i);
                             hmac.tag_many(refs, tags);
                             sink += tags[7].bytes[0];
                           }) /
                           8.0;
  c.otp_pad_ns = ns_per_call(20000, [&](std::size_t i) {
    sink += crypto::generate_otp(aes, (i % 64) * kLineSize, {3, i})[0];
  });
  if (sink == 42) std::fprintf(stderr, "#");
  return c;
}

}  // namespace

std::unique_ptr<Phase> make_kv_phase(const KvSpec& spec, RunContext& ctx) {
  return std::make_unique<KvPhase>(spec, ctx);
}

}  // namespace perfbench
