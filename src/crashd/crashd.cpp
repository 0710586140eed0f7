#include "crashd/crashd.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "audit/invariant_auditor.h"
#include "audit/sweep_shape.h"
#include "common/annotations.h"
#include "common/check.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cc_nvm.h"
#include "core/tcb.h"
#include "nvm/file_backend.h"
#include "service/kv_service.h"
#include "store/kv_store.h"

namespace ccnvm::crashd {
namespace {

constexpr std::size_t kCrashdDaqEntries = 6;
constexpr std::size_t kCheckpointEvery = 8;

/// The paper's crash model has no notion of a process observing its own
/// death; raise(SIGKILL) matches that — no handlers, no unwinding, no
/// atexit, nothing after this line runs.
[[noreturn]] void die_now() {
  std::raise(SIGKILL);
  std::abort();  // unreachable: SIGKILL cannot be blocked
}

int run_store_worker(const std::string& image_path, const Scenario& sc);
int run_service_worker(const std::string& image_path, const Scenario& sc);

/// One row of the family table: everything that differs between the
/// scenario families. The worker, the verifier and the sweep are shared
/// and read only this; a new family is one more row (docs/BACKENDS.md).
struct FamilyRow {
  Family family;
  const char* flag;    // CLI selector; nullptr for the default family
  const char* prefix;  // describe() prefix
  /// The family's scenario draws from (sweep_seed, index). Each keeps its
  /// own draw order forever: that order is what makes (seed, index) name
  /// the same scenario across commits.
  Scenario (*derive)(std::uint64_t sweep_seed, std::uint64_t index);
  std::string (*shape)(const Scenario&);  // describe()'s geometry fields
  int (*worker)(const std::string& image_path, const Scenario&);
  // Action streams: keys "<key_prefix>[<client>]-<k>" for k below
  // keys_per_client; put values under max_value bytes.
  const char* key_prefix;
  std::size_t keys_per_client;
  std::size_t max_value;
  /// Under the update-limit trigger, 3 of 4 ops hammer key 0.
  bool hammer_key0;
  /// 60% of actions are 2-4-op transactions.
  bool txn_mix;
  /// Multi-client families name keys, streams and files per client and
  /// shard ("sv<t>-k", derive_seed(workload_seed, t), image + ".s<s>",
  /// image + ".ack.t<t>"). The op family's single client uses the bare
  /// forms ("cd-k", workload_seed, the image itself, image + ".ack").
  bool per_client_names;
  /// Per-engine KV geometry. Service engines hold one store shard (the
  /// service supplies the sharding) sized for the worst case: all 4 x 8
  /// keys of <=140 bytes routed to one engine, plus heap churn slack. The
  /// txn journal's 8 op slots cover one prepared txn's staged copies
  /// (values stay under 100 bytes so those fit beside the live set).
  store::StoreConfig store;
};

const char* trigger_name(core::DrainTrigger t) {
  switch (t) {
    case core::DrainTrigger::kDaqPressure: return "daq-pressure";
    case core::DrainTrigger::kDirtyEviction: return "dirty-eviction";
    case core::DrainTrigger::kUpdateLimit: return "update-limit";
    case core::DrainTrigger::kExplicit: return "explicit";
  }
  return "?";
}

const char* phase_name(core::DrainCrashPoint p) {
  switch (p) {
    case core::DrainCrashPoint::kNone: return "none";
    case core::DrainCrashPoint::kMidBatch: return "mid-batch";
    case core::DrainCrashPoint::kAfterBatchBeforeEnd: return "after-batch";
    case core::DrainCrashPoint::kAfterEndBeforeCommit: return "before-commit";
  }
  return "?";
}

// ---- Scenario draws ---------------------------------------------------

/// Only designs whose full crash state is mirrored into the backend (TCB
/// registers); cc-NVM+'s per-block update registers are in-process sweep
/// territory.
void draw_engine(Rng& rng, Scenario& sc) {
  sc.kind = rng.chance(0.5) ? core::DesignKind::kCcNvm
                            : core::DesignKind::kCcNvmNoDs;
  sc.trigger = audit::kSweepTriggers[rng.below(audit::kSweepTriggers.size())];
}

/// 2..4 clients of `min_actions` + below(`spread`) actions each, behind
/// a randomly shaped group commit.
void draw_clients(Rng& rng, Scenario& sc, std::size_t min_actions,
                  std::size_t spread) {
  sc.threads = 2 + static_cast<std::size_t>(rng.below(3));
  sc.actions = min_actions + static_cast<std::size_t>(rng.below(spread));
  constexpr std::size_t kBatchSizes[5] = {1, 2, 4, 8, 16};
  sc.max_batch = kBatchSizes[rng.below(5)];
  constexpr std::uint32_t kGaps[4] = {0, 0, 100, 500};
  sc.max_delay_us = kGaps[rng.below(4)];
}

Scenario derive_op(std::uint64_t sweep_seed, std::uint64_t index) {
  Scenario sc;
  sc.family = Family::kOp;
  Rng rng(derive_seed(sweep_seed, index, 0xc4a5d));
  draw_engine(rng, sc);
  sc.actions = 24 + static_cast<std::size_t>(rng.below(33));
  const std::uint64_t roll = rng.below(100);
  if (roll < 10) {
    sc.kill = Kill::kNone;
  } else if (roll < 30) {
    sc.kill = Kill::kOpBoundary;
    sc.kill_at = rng.below(sc.actions);
  } else if (roll < 45) {
    sc.kill = Kill::kBeforeAck;
    sc.kill_at = rng.below(sc.actions);
  } else if (roll < 90) {
    sc.kill = Kill::kDrainPhase;
    constexpr core::DrainCrashPoint kPhases[3] = {
        core::DrainCrashPoint::kMidBatch,
        core::DrainCrashPoint::kAfterBatchBeforeEnd,
        core::DrainCrashPoint::kAfterEndBeforeCommit};
    sc.phase = kPhases[rng.below(3)];
    sc.kill_at = rng.below(6);
  } else {
    sc.kill = Kill::kAttack;
  }
  sc.workload_seed = derive_seed(sweep_seed, index, 0x30b5);
  sc.attack_seed = derive_seed(sweep_seed, index, 0xa77acc);
  return sc;
}

Scenario derive_service(std::uint64_t sweep_seed, std::uint64_t index) {
  Scenario sc;
  sc.family = Family::kService;
  Rng rng(derive_seed(sweep_seed, index, 0x5e41ce));
  draw_engine(rng, sc);
  draw_clients(rng, sc, 12, 21);
  const std::uint64_t total_ops = sc.threads * sc.actions;
  const std::uint64_t roll = rng.below(100);
  if (roll < 20) {
    sc.kill = Kill::kNone;
    // Only clean runs fan out across shards (see Scenario::shards).
    sc.shards = 1 + static_cast<std::size_t>(rng.below(2));
  } else if (roll < 60) {
    sc.kill = Kill::kMidBatch;
    sc.kill_at = 1 + rng.below(total_ops);
  } else {
    sc.kill = Kill::kAfterBarrier;
    // Barrier counts depend on batching; aim low so most targets fire.
    sc.kill_at = 1 + rng.below(total_ops / 2 + 1);
  }
  sc.workload_seed = derive_seed(sweep_seed, index, 0x5eed5);
  return sc;
}

Scenario derive_txn(std::uint64_t sweep_seed, std::uint64_t index) {
  Scenario sc;
  sc.family = Family::kTxn;
  // Two shards: the smallest count with a distributed commit, and the only
  // one where a both-shard txn's locks silence EVERY drain worker.
  sc.shards = 2;
  Rng rng(derive_seed(sweep_seed, index, 0x7a135));
  draw_engine(rng, sc);
  draw_clients(rng, sc, 8, 9);
  const std::uint64_t roll = rng.below(100);
  if (roll < 20) {
    sc.kill = Kill::kNone;
  } else {
    sc.kill = Kill::kAtWave;
    sc.kill_wave = static_cast<int>(rng.below(3));
    // ~60% of actions are txns and most 2-4-op draws over 8 keys span
    // both shards; aim low so most targets fire before the run drains.
    sc.kill_at = 1 + rng.below(sc.threads * sc.actions / 4 + 1);
  }
  sc.workload_seed = derive_seed(sweep_seed, index, 0x7a5eed);
  return sc;
}

const FamilyRow kFamilies[] = {
    {.family = Family::kOp,
     .flag = nullptr,
     .prefix = "",
     .derive = derive_op,
     .shape = [](const Scenario& sc) {
       return " ops=" + std::to_string(sc.actions);
     },
     .worker = run_store_worker,
     .key_prefix = "cd",
     .keys_per_client = 16,
     .max_value = 140,
     .hammer_key0 = true,
     .txn_mix = false,
     .per_client_names = false,
     .store = {.shards = 2, .buckets_per_shard = 64,
               .heap_lines_per_shard = 192}},
    {.family = Family::kService,
     .flag = "--service",
     .prefix = "service ",
     .derive = derive_service,
     .shape = [](const Scenario& sc) {
       return " shards=" + std::to_string(sc.shards) +
              " threads=" + std::to_string(sc.threads) +
              " ops/thread=" + std::to_string(sc.actions) +
              " batch=" + std::to_string(sc.max_batch) +
              " gap=" + std::to_string(sc.max_delay_us) + "us";
     },
     .worker = run_service_worker,
     .key_prefix = "sv",
     .keys_per_client = 8,
     .max_value = 140,
     .hammer_key0 = true,
     .txn_mix = false,
     .per_client_names = true,
     .store = {.shards = 1, .buckets_per_shard = 64,
               .heap_lines_per_shard = 192}},
    {.family = Family::kTxn,
     .flag = "--txn",
     .prefix = "txn ",
     .derive = derive_txn,
     .shape = [](const Scenario& sc) {
       return " threads=" + std::to_string(sc.threads) +
              " actions/thread=" + std::to_string(sc.actions) +
              " batch=" + std::to_string(sc.max_batch) +
              " gap=" + std::to_string(sc.max_delay_us) + "us";
     },
     .worker = run_service_worker,
     .key_prefix = "tx",
     .keys_per_client = 8,
     .max_value = 100,
     .hammer_key0 = false,
     .txn_mix = true,
     .per_client_names = true,
     .store = {.shards = 1, .buckets_per_shard = 64,
               .heap_lines_per_shard = 192, .txn_ops_capacity = 8}},
};

const FamilyRow& row_of(Family family) {
  for (const FamilyRow& row : kFamilies) {
    if (row.family == family) return row;
  }
  CCNVM_CHECK_MSG(false, "crashd: unknown scenario family");
  return kFamilies[0];
}

/// The one check of a --design against the family: sets `pin` (nullopt
/// for an empty name) or returns why the name cannot pin this family.
std::string resolve_pin(Family family, const std::string& design,
                        std::optional<DesignPin>& pin) {
  pin.reset();
  if (design.empty()) return {};
  if (family != Family::kOp) {
    return std::string("--design pins the op family only; drop ") +
           row_of(family).flag;
  }
  pin = parse_design_pin(design);
  if (!pin) return "unknown or unsupported design pin '" + design + "'";
  return {};
}

// ---- Names and the shared geometry -------------------------------------

std::string key_name(const FamilyRow& row, std::size_t client,
                     std::size_t k) {
  return row.key_prefix +
         (row.per_client_names ? std::to_string(client) : std::string()) +
         "-" + std::to_string(k);
}

std::string image_file(const std::string& image_path, const Scenario& sc,
                       std::size_t shard) {
  return row_of(sc.family).per_client_names
             ? image_path + ".s" + std::to_string(shard)
             : image_path;
}

std::string ack_file(const std::string& image_path, const Scenario& sc,
                     std::size_t client) {
  return row_of(sc.family).per_client_names
             ? image_path + ".ack.t" + std::to_string(client)
             : image_path + ".ack";
}

/// The one geometry source for worker and verifier. The op family's bare
/// store runs on shard 0 of it, whose KvService::engine_design_config is
/// `design` itself.
service::ServiceConfig family_config(const Scenario& sc) {
  service::ServiceConfig cfg;
  cfg.shards = sc.shards;
  cfg.queue_capacity = 64;
  cfg.commit.max_batch = sc.max_batch;
  cfg.commit.max_delay_us = sc.max_delay_us;
  cfg.kind = sc.kind;
  cfg.design = audit::shaped_design_config(sc.trigger, kCrashdDaqEntries);
  cfg.design.persist_level = sc.persist_level;
  cfg.store = row_of(sc.family).store;
  return cfg;
}

/// One op draw. The mix mirrors the in-process crash fuzz engine: mostly
/// puts (out-of-place updates stress the heap/commit path), a hammered key
/// when the update-limit trigger is under test.
KvOp draw_op(Rng& rng, const FamilyRow& row, const Scenario& sc,
             std::size_t client, std::uint64_t& put_tag) {
  KvOp op;
  const std::size_t k =
      (row.hammer_key0 && sc.trigger == core::DrainTrigger::kUpdateLimit &&
       !rng.chance(0.25))
          ? 0
          : static_cast<std::size_t>(rng.below(row.keys_per_client));
  op.key = key_name(row, client, k);
  const std::uint64_t roll = rng.below(100);
  if (roll < 55) {
    op.kind = OpKind::kPut;
    const std::uint64_t vtag = ++put_tag;
    op.value.assign(rng.below(row.max_value), '\0');
    for (std::size_t j = 0; j < op.value.size(); ++j) {
      op.value[j] = static_cast<char>(
          static_cast<std::uint8_t>(vtag * 167 + j + client * 29));
    }
  } else if (roll < 80) {
    op.kind = OpKind::kErase;
  } else {
    op.kind = OpKind::kGet;
  }
  return op;
}

// ---- Worker ------------------------------------------------------------

/// The worker's ack logs, one per client, all created before any traffic
/// so the verifier finds every log even after an instant kill. Unbuffered:
/// one write(2) per acknowledged action. A buffered stream would lose acks
/// sitting in user-space buffers at the kill and make the verifier
/// under-count what the worker promised.
class AckLogs {
 public:
  AckLogs(const std::string& image_path, const Scenario& sc) {
    for (std::size_t t = 0; t < sc.threads; ++t) {
      const int fd = ::open(ack_file(image_path, sc, t).c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC, 0644);
      CCNVM_CHECK_MSG(fd >= 0, "crashd worker: cannot create ack log");
      fds_.push_back(fd);
    }
  }
  ~AckLogs() {
    for (const int fd : fds_) ::close(fd);
  }
  AckLogs(const AckLogs&) = delete;
  AckLogs& operator=(const AckLogs&) = delete;

  int fd(std::size_t client) const { return fds_[client]; }

 private:
  std::vector<int> fds_;
};

/// One client's loop, shared by every family: apply action i, then
/// acknowledge it. `apply(i, action)` returns only once the action is
/// durable — the store's commit, or the service's barrier (KvService's
/// ack-after-barrier contract); `after_ack(i)` runs the op family's
/// op-boundary kills and checkpoints.
template <typename Apply, typename AfterAck>
void drive_client(const Scenario& sc, std::size_t client, int ack_fd,
                  Apply&& apply, AfterAck&& after_ack) {
  // The ack IS the durability promise the verifier holds the image to:
  // anything acknowledged must survive the kill. CCNVM_ACK lets nvlint
  // prove no unbarriered persistent write can precede an ack (check N1).
  CCNVM_ACK const auto ack = [ack_fd](char c) {
    CCNVM_CHECK(::write(ack_fd, &c, 1) == 1);
  };
  const std::vector<Action> actions = client_actions(sc, client);
  for (std::size_t i = 0; i < actions.size(); ++i) {
    apply(i, actions[i]);
    ack(actions[i].is_txn ? 'T' : 'A');
    after_ack(i);
  }
  ack('C');  // clean exit: every action of this client acknowledged
}

bool applied(bool ok) { return ok; }
bool applied(const service::Result& result) { return result.ok; }

/// One single op against a bare store or a service (same call shapes).
template <typename Kv>
void apply_op(Kv& kv, const KvOp& op) {
  switch (op.kind) {
    case OpKind::kPut:
      CCNVM_CHECK_MSG(applied(kv.put(op.key, op.value)),
                      "crashd worker: store full");
      break;
    case OpKind::kErase:
      (void)kv.erase(op.key);
      break;
    case OpKind::kGet:
      (void)kv.get(op.key);
      break;
  }
}

void apply_action(service::KvService& service, const Action& action) {
  if (!action.is_txn) {
    apply_op(service, action.ops.front());
    return;
  }
  std::vector<service::TxnOp> ops;
  ops.reserve(action.ops.size());
  for (const KvOp& op : action.ops) {
    service::TxnOp sub;
    sub.op = op.kind == OpKind::kPut     ? service::OpType::kPut
             : op.kind == OpKind::kErase ? service::OpType::kErase
                                         : service::OpType::kGet;
    sub.key = op.key;
    sub.value = op.value;
    ops.push_back(std::move(sub));
  }
  CCNVM_CHECK_MSG(service.submit_txn(ops).committed,
                  "crashd worker: txn aborted");
}

/// The op family: one client straight on a SecureKvStore, killed at an op
/// boundary, before an ack, or inside a drain window.
int run_store_worker(const std::string& image_path, const Scenario& sc) {
  core::DesignConfig cfg = family_config(sc).design;
  cfg.backend_factory = [path = image_file(image_path, sc, 0)](
                            std::uint64_t capacity_bytes) {
    // kNone: SIGKILL keeps the page cache, which is all this harness
    // needs (see file comment in nvm/file_backend.h); kSync would model
    // machine power cuts and msync on every batch.
    return nvm::FileBackend::create(path, capacity_bytes,
                                    nvm::FileBackend::SyncMode::kNone);
  };
  auto design = core::make_design(sc.kind, cfg);
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  auto* cc = dynamic_cast<core::CcNvmDesign*>(design.get());
  CCNVM_CHECK_MSG(base != nullptr, "crashd worker needs a SecureNvmBase");
  CCNVM_CHECK_MSG(cc != nullptr || sc.kill != Kill::kDrainPhase,
                  "crashd drain-phase kill needs a CcNvmDesign");
  const AckLogs acks(image_path, sc);
  if (sc.kill == Kill::kDrainPhase) {
    cc->set_power_loss_hook([] { die_now(); });
  }

  store::SecureKvStore kv(*base, row_of(sc.family).store);
  bool armed = false;
  drive_client(
      sc, 0, acks.fd(0),
      [&](std::size_t i, const Action& action) {
        if (sc.kill == Kill::kDrainPhase && !armed &&
            base->stats().drains >= sc.kill_at) {
          cc->arm_drain_crash(sc.phase);
          armed = true;
        }
        apply_op(kv, action.ops.front());
        if (sc.kill == Kill::kBeforeAck && i == sc.kill_at) die_now();
      },
      [&](std::size_t i) {
        if (sc.kill == Kill::kOpBoundary && i == sc.kill_at) die_now();
        if (sc.trigger == core::DrainTrigger::kExplicit &&
            (i + 1) % kCheckpointEvery == 0) {
          kv.checkpoint();
        }
        // Clean shutdown (reached when no kill was drawn or an armed drain
        // crash never fired): quiesce before promising the full trace.
        if (i + 1 == sc.actions) kv.checkpoint();
      });
  return 0;
}

/// The service and txn families: client threads on a KvService, killed
/// from the service's own hooks at points where no engine can be halfway
/// through a line write.
int run_service_worker(const std::string& image_path, const Scenario& sc) {
  CCNVM_CHECK_MSG(
      (sc.kill != Kill::kMidBatch && sc.kill != Kill::kAfterBarrier) ||
          sc.shards == 1,
      "crashd service: drain-worker kills must be single-shard");
  // Declared before the service so the hooks capturing it outlive the
  // drain workers.
  std::atomic<std::uint64_t> events{0};
  const auto count_to_kill = [&events, target = sc.kill_at] {
    if (events.fetch_add(1) + 1 == target) die_now();
  };

  service::ServiceConfig cfg = family_config(sc);
  cfg.backend_factory = [&image_path, &sc](std::size_t shard,
                                           std::uint64_t capacity_bytes) {
    // kNone for the same reason as run_store_worker.
    return nvm::FileBackend::create(image_file(image_path, sc, shard),
                                    capacity_bytes,
                                    nvm::FileBackend::SyncMode::kNone);
  };
  switch (sc.kill) {
    case Kill::kMidBatch:
      cfg.after_apply_hook = count_to_kill;
      break;
    case Kill::kAfterBarrier:
      cfg.after_barrier_hook = count_to_kill;
      break;
    case Kill::kAtWave:
      cfg.txn_wave_hook = [count_to_kill, wave = sc.kill_wave,
                           shards = sc.shards](int w,
                                               std::size_t participants) {
        // Both-shard commits only: their admission locks park every drain
        // worker by the time the hook runs on the client thread, so the
        // SIGKILL raised here cannot catch a half-written line. A
        // single-shard txn's waves leave the other worker live — skip.
        if (w != wave || participants < shards) return;
        count_to_kill();
      };
      break;
    default:
      break;
  }

  const AckLogs acks(image_path, sc);
  service::KvService service(cfg);
  std::vector<std::thread> clients;
  clients.reserve(sc.threads);
  for (std::size_t t = 0; t < sc.threads; ++t) {
    clients.emplace_back([&service, &sc, &acks, t] {
      drive_client(
          sc, t, acks.fd(t),
          [&service](std::size_t, const Action& action) {
            apply_action(service, action);
          },
          [](std::size_t) {});
    });
  }
  for (std::thread& c : clients) c.join();
  // Reached when no kill was drawn or the target never fired: quiesce.
  service.shutdown();
  return 0;
}

// ---- Verifier ----------------------------------------------------------

/// One client's ack log: an 'A' (single op) or 'T' (txn) per acknowledged
/// action, then 'C' if the client finished cleanly.
struct AckLog {
  std::string acked;  // without the trailing 'C'
  bool clean = false;
};

AckLog read_ack_log(const std::string& path, std::size_t actions) {
  AckLog log;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  CCNVM_CHECK_MSG(f != nullptr, "crashd verify: missing ack log");
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) log.acked.append(buf, n);
  std::fclose(f);
  log.clean = !log.acked.empty() && log.acked.back() == 'C';
  if (log.clean) log.acked.pop_back();
  CCNVM_CHECK_MSG(log.acked.find_first_not_of("AT") == std::string::npos,
                  "crashd verify: malformed ack log");
  CCNVM_CHECK_MSG(log.acked.size() <= actions,
                  "crashd verify: more acks than actions");
  if (log.clean) {
    CCNVM_CHECK_MSG(log.acked.size() == actions,
                    "crashd verify: clean exit with missing acks");
  }
  return log;
}

/// An engine reopened from the image a dead process left behind, with the
/// auditor attached across restore and recovery.
struct Reopened {
  std::unique_ptr<core::SecureNvmDesign> design;
  core::SecureNvmBase* base = nullptr;
  std::unique_ptr<audit::InvariantAuditor> auditor;
  core::RecoveryReport report;
};

/// FileBackend open, TCB register decode, a fresh design with the auditor
/// attached, then restore_from_power_down and recover(). `tamper`, when
/// set, corrupts the image between the design's construction and the
/// restore.
Reopened reopen(
    const std::string& path, core::DesignKind kind,
    const core::DesignConfig& cfg,
    const std::function<void(nvm::NvmImage&, const core::SecureNvmBase&)>&
        tamper = {}) {
  auto backend = nvm::FileBackend::open(path);
  CCNVM_CHECK_MSG(backend != nullptr,
                  "crashd verify: image file missing or unreadable");
  std::uint8_t regs[nvm::Backend::kRegisterCapacity];
  const std::size_t reg_len = backend->load_registers(regs, sizeof(regs));
  core::TcbRegisters tcb;
  CCNVM_CHECK_MSG(core::decode_tcb(regs, reg_len, tcb),
                  "crashd verify: image carries no valid TCB register blob");
  nvm::NvmImage image(std::move(backend));

  Reopened r;
  r.design = core::make_design(kind, cfg);
  r.base = dynamic_cast<core::SecureNvmBase*>(r.design.get());
  CCNVM_CHECK(r.base != nullptr);
  r.auditor = std::make_unique<audit::InvariantAuditor>(
      audit::InvariantAuditor::Options{.verify_image = true});
  r.auditor->attach(*r.base);
  if (tamper) tamper(image, *r.base);
  r.base->restore_from_power_down(std::move(image), tcb);
  r.report = r.design->recover();
  return r;
}

/// §4.4 attack location: flip one bit in a populated data line of the
/// (cleanly quiesced) image; recovery must both detect and pinpoint it.
void verify_attack(const std::string& image_path, const Scenario& sc,
                   VerifyResult& res) {
  Addr victim = 0;
  const Reopened r = reopen(
      image_file(image_path, sc, 0), sc.kind,
      family_config(sc).design,
      [&](nvm::NvmImage& image, const core::SecureNvmBase& base) {
        std::vector<Addr> candidates;
        image.for_each_line([&](Addr addr, const Line&) {
          if (addr < base.layout().data_capacity()) candidates.push_back(addr);
        });
        std::sort(candidates.begin(), candidates.end());
        CCNVM_CHECK_MSG(!candidates.empty(),
                        "crashd verify: attack scenario found no data lines");
        Rng attack_rng(sc.attack_seed);
        victim = candidates[attack_rng.below(candidates.size())];
        Line line = image.read_line(victim);
        line[attack_rng.below(kLineSize)] ^=
            static_cast<std::uint8_t>(1u << attack_rng.below(8));
        image.restore_line(victim, line);
      });
  CCNVM_CHECK_MSG(r.report.attack_detected,
                  "crashd verify: corrupted data line not detected");
  CCNVM_CHECK_MSG(r.report.attack_located,
                  "crashd verify: corrupted data line not located");
  CCNVM_CHECK_MSG(std::find(r.report.tampered_blocks.begin(),
                            r.report.tampered_blocks.end(),
                            victim) != r.report.tampered_blocks.end(),
                  "crashd verify: located the wrong line");
  res.attack_checked = true;
  res.auditor_checks = r.auditor->checks_performed();
}

/// The after-state an in-flight action leaves per key if it applied (last
/// sub-op wins, nullopt = erased; reads contribute nothing).
using Effect = std::map<std::string, std::optional<std::string>>;

void apply_to_model(std::map<std::string, std::string>& model,
                    const Effect& effect) {
  for (const auto& [key, after] : effect) {
    if (after) {
      model[key] = *after;
    } else {
      model.erase(key);
    }
  }
}

Effect effect_of(const Action& action) {
  Effect effect;
  for (const KvOp& op : action.ops) {
    if (op.kind == OpKind::kGet) continue;
    effect[op.key] = op.kind == OpKind::kPut
                         ? std::optional<std::string>(op.value)
                         : std::nullopt;
  }
  return effect;
}

VerifyResult verify_or_throw(const std::string& image_path,
                                    const Scenario& sc) {
  const FamilyRow& row = row_of(sc.family);
  VerifyResult res;

  // --- Per-client ack logs: what each client was promised. ---
  std::vector<AckLog> logs;
  bool all_clean = true;
  for (std::size_t t = 0; t < sc.threads; ++t) {
    logs.push_back(read_ack_log(ack_file(image_path, sc, t), sc.actions));
    all_clean = all_clean && logs.back().clean;
    res.acked_ops += logs.back().acked.size();
  }
  if (sc.kill == Kill::kNone || sc.kill == Kill::kAttack) {
    CCNVM_CHECK_MSG(all_clean, "crashd verify: worker died in a no-kill run");
  }
  res.worker_was_killed = !all_clean;
  if (sc.kill == Kill::kAttack) {
    verify_attack(image_path, sc, res);
    return res;
  }

  // --- Replay each client's acked prefix into the model. Key namespaces
  // are disjoint per client, and a client submits action i+1 only after
  // action i's ack, so at most ONE action per client is in flight. ---
  std::map<std::string, std::string> model;
  std::vector<Effect> in_flight;
  for (std::size_t t = 0; t < sc.threads; ++t) {
    const std::vector<Action> actions = client_actions(sc, t);
    const std::string& acked = logs[t].acked;
    for (std::size_t i = 0; i < acked.size(); ++i) {
      CCNVM_CHECK_MSG(
          acked[i] == (actions[i].is_txn ? 'T' : 'A'),
          "crashd verify: ack log kind disagrees with the stream");
      apply_to_model(model, effect_of(actions[i]));
    }
    if (!logs[t].clean && acked.size() < actions.size()) {
      Effect effect = effect_of(actions[acked.size()]);
      if (!effect.empty()) in_flight.push_back(std::move(effect));
    }
  }

  // --- Reopen every engine. Shard 0 first: it coordinates every
  // cross-shard txn (lowest participant), so its decision line is there
  // when the other shards' journals resolve. ---
  const service::ServiceConfig cfg = family_config(sc);
  std::vector<Reopened> engines;
  engines.reserve(sc.shards);
  for (std::size_t s = 0; s < sc.shards; ++s) {
    engines.push_back(reopen(image_file(image_path, sc, s), sc.kind,
                             service::KvService::engine_design_config(cfg, s)));
    CCNVM_CHECK_MSG(
        engines.back().report.clean && engines.back().report.metadata_recovered,
        "crashd verify: recovery of the killed image not clean");
  }
  std::vector<store::SecureKvStore> stores;
  stores.reserve(sc.shards);
  const store::TxnResolver resolver = [&stores](std::uint64_t txn_id,
                                                std::uint32_t coordinator) {
    // coordinator != 0 = a self-coordinated txn whose own decision line
    // already failed to answer — undecided, presumed abort.
    return coordinator == 0 && stores[0].last_txn_decision() ==
                                   std::optional<std::uint64_t>(txn_id);
  };
  for (std::size_t s = 0; s < sc.shards; ++s) {
    stores.push_back(store::SecureKvStore::open(
        *engines[s].base, cfg.store,
        s == 0 ? store::TxnResolver() : resolver));
  }

  // --- Read every key once, settle each in-flight action all-or-nothing
  // against what came back (applied actions join the model, rolled-back
  // ones leave it untouched; actions are key-disjoint, so order is
  // irrelevant), then hold the union to the model. ---
  std::map<std::string, std::optional<std::string>> got;
  for (std::size_t t = 0; t < sc.threads; ++t) {
    for (std::size_t k = 0; k < row.keys_per_client; ++k) {
      const std::string key = key_name(row, t, k);
      got[key] = stores[service::KvService::shard_of(key, sc.shards)].get(key);
    }
  }
  for (const Effect& effect : in_flight) {
    std::size_t applied_keys = 0;
    std::size_t rolled_back = 0;
    for (const auto& [key, after] : effect) {
      const auto it = model.find(key);
      const std::optional<std::string> before =
          it == model.end() ? std::nullopt
                            : std::optional<std::string>(it->second);
      if (after == before) continue;  // e.g. erase of an absent key
      if (got.at(key) == after) {
        ++applied_keys;
      } else {
        CCNVM_CHECK_MSG(got.at(key) == before,
                        "crashd verify: in-flight action left a third state");
        ++rolled_back;
      }
    }
    CCNVM_CHECK_MSG(applied_keys == 0 || rolled_back == 0,
                    "crashd verify: torn in-flight transaction after the kill");
    if (applied_keys > 0) apply_to_model(model, effect);
  }
  std::vector<std::uint64_t> live(sc.shards, 0);
  for (const auto& [key, value] : got) {
    if (const auto it = model.find(key); it != model.end()) {
      CCNVM_CHECK_MSG(value == it->second,
                      "crashd verify: acknowledged action lost");
    } else {
      CCNVM_CHECK_MSG(!value.has_value(),
                      "crashd verify: erased/unwritten key reappeared");
    }
    if (value) ++live[service::KvService::shard_of(key, sc.shards)];
    ++res.keys_checked;
  }
  for (std::size_t s = 0; s < sc.shards; ++s) {
    CCNVM_CHECK_MSG(stores[s].size() == live[s],
                    "crashd verify: store holds spurious entries");
    res.auditor_checks += engines[s].auditor->checks_performed();
  }
  return res;
}

}  // namespace

std::optional<DesignPin> parse_design_pin(const std::string& name) {
  const std::optional<core::DesignSpec> spec = core::parse_design(name);
  if (!spec) return std::nullopt;
  switch (spec->kind) {
    case core::DesignKind::kCcNvm:
    case core::DesignKind::kCcNvmNoDs:
    case core::DesignKind::kTriadNvm:
    case core::DesignKind::kPhoenix:
      return spec;
    default:
      return std::nullopt;
  }
}

Scenario derive_scenario(Family family, std::uint64_t sweep_seed,
                         std::uint64_t index, const DesignPin* pin) {
  Scenario sc = row_of(family).derive(sweep_seed, index);
  if (pin != nullptr) {
    CCNVM_CHECK_MSG(family == Family::kOp,
                    "crashd: design pins are op-family only");
    // Applied after the full derivation: the rng stream is untouched, so
    // a pinned sweep runs the same op streams and kill points as the
    // default mix — only the design under test changes.
    sc.kind = pin->kind;
    sc.persist_level = pin->persist_level;
    // Designs with the §4.2 drain protocol (the only ones kDrainPhase can
    // kill inside).
    const bool drains = sc.kind == core::DesignKind::kCcNvmNoDs ||
                        sc.kind == core::DesignKind::kCcNvm ||
                        sc.kind == core::DesignKind::kCcNvmPlus;
    if (sc.kill == Kill::kDrainPhase && !drains) {
      // Barrier designs commit on every write-back — there is no drain
      // window to kill inside. Remap to a deterministic op boundary so
      // the pinned sweep keeps the same kill density.
      sc.kill = Kill::kOpBoundary;
      sc.kill_at = (sc.kill_at * 7 + static_cast<std::uint64_t>(sc.phase)) %
                   sc.actions;
      sc.phase = core::DrainCrashPoint::kNone;
    }
  }
  return sc;
}

std::string describe(const Scenario& sc) {
  const FamilyRow& row = row_of(sc.family);
  std::string s = row.prefix + std::string(core::design_name(sc.kind));
  if (sc.kind == core::DesignKind::kTriadNvm) {
    s += "(n=" + std::to_string(sc.persist_level) + ")";
  }
  s += " trigger=" + std::string(trigger_name(sc.trigger)) + row.shape(sc);
  const std::string at = std::to_string(sc.kill_at);
  switch (sc.kill) {
    case Kill::kNone: return s + " kill=none";
    case Kill::kAttack: return s + " kill=none+attack";
    case Kill::kOpBoundary: return s + " kill=op-boundary@" + at;
    case Kill::kBeforeAck: return s + " kill=before-ack@" + at;
    case Kill::kDrainPhase:
      return s + " kill=drain:" + phase_name(sc.phase) + "#" + at;
    case Kill::kMidBatch: return s + " kill=mid-batch@" + at;
    case Kill::kAfterBarrier: return s + " kill=after-barrier@" + at;
    case Kill::kAtWave:
      return s + " kill=wave" + std::to_string(sc.kill_wave) + "@" + at;
  }
  return s;
}

std::vector<Action> client_actions(const Scenario& sc, std::size_t client) {
  const FamilyRow& row = row_of(sc.family);
  Rng rng(row.per_client_names ? derive_seed(sc.workload_seed, client)
                               : sc.workload_seed);
  std::uint64_t put_tag = 0;
  std::vector<Action> actions(sc.actions);
  for (Action& action : actions) {
    // Biased toward txns — they are what the txn family exists to kill.
    action.is_txn = row.txn_mix && rng.below(100) < 60;
    const std::size_t n =
        action.is_txn ? 2 + static_cast<std::size_t>(rng.below(3)) : 1;
    for (std::size_t i = 0; i < n; ++i) {
      action.ops.push_back(draw_op(rng, row, sc, client, put_tag));
    }
  }
  return actions;
}

std::vector<std::string> scenario_files(const std::string& image_path,
                                        const Scenario& sc) {
  std::vector<std::string> files;
  for (std::size_t s = 0; s < sc.shards; ++s) {
    files.push_back(image_file(image_path, sc, s));
  }
  for (std::size_t t = 0; t < sc.threads; ++t) {
    files.push_back(ack_file(image_path, sc, t));
  }
  return files;
}

int run_worker(const std::string& image_path, const Scenario& sc) {
  return row_of(sc.family).worker(image_path, sc);
}

VerifyResult verify_scenario(const std::string& image_path,
                             const Scenario& sc) {
  try {
    VerifyResult res = verify_or_throw(image_path, sc);
    res.ok = true;
    return res;
  } catch (const std::exception& e) {
    VerifyResult res;
    res.message = e.what();
    return res;
  }
}

SweepResult run_sweep(const SweepConfig& config) {
  SweepResult sweep;
  std::optional<DesignPin> pin;
  if (std::string error = resolve_pin(config.family, config.design, pin);
      !error.empty()) {
    sweep.failures.push_back(std::move(error));
    return sweep;
  }
  const FamilyRow& row = row_of(config.family);
  std::string worker_exe =
      config.worker_exe.empty() ? "/proc/self/exe" : config.worker_exe;
  std::string dir = config.work_dir;
  bool made_dir = false;
  if (dir.empty()) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at sweep startup,
    // before any worker threads exist; nothing mutates the environment
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
                       "/ccnvm-crashd-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    CCNVM_CHECK_MSG(::mkdtemp(buf.data()) != nullptr,
                    "crashd sweep: mkdtemp failed");
    dir = buf.data();
    made_dir = true;
  }

  struct PerScenario {
    Scenario scenario;
    bool killed = false;
    bool clean = false;
    VerifyResult verify;
    std::string spawn_error;
  };

  // One throw-scope for the whole sweep: auditor/contract violations in
  // verify_scenario surface as CheckFailure, are caught there, and fold
  // into per-index failure strings — deterministic for any job count.
  CheckThrowScope throw_scope;
  const std::vector<PerScenario> results = parallel_map<PerScenario>(
      static_cast<std::size_t>(config.scenarios), config.jobs,
      [&](std::size_t i) {
        PerScenario out;
        out.scenario = derive_scenario(config.family, config.seed, i,
                                       pin ? &*pin : nullptr);
        const std::string image = dir + "/img-" + std::to_string(i);
        std::vector<std::string> args = {worker_exe, "crashd", "worker"};
        if (row.flag != nullptr) args.emplace_back(row.flag);
        if (pin) args.push_back("--design=" + config.design);
        args.push_back("--image=" + image);
        args.push_back("--seed=" + std::to_string(config.seed));
        args.push_back("--index=" + std::to_string(i));
        std::vector<char*> argv;
        argv.reserve(args.size() + 1);
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);

        const pid_t pid = ::fork();
        if (pid == 0) {
          // Child: only async-signal-safe calls until exec (the parent
          // runs a thread pool).
          ::execv(worker_exe.c_str(), argv.data());
          ::_exit(127);
        }
        if (pid < 0) {
          out.spawn_error = "fork failed";
          return out;
        }
        int status = 0;
        if (::waitpid(pid, &status, 0) != pid) {
          out.spawn_error = "waitpid failed";
          return out;
        }
        if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
          out.killed = true;
        } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          out.clean = true;
        } else {
          out.spawn_error =
              "worker died unexpectedly (wait status " +
              std::to_string(status) + ")";
          return out;
        }
        out.verify = verify_scenario(image, out.scenario);
        if (out.verify.ok && out.verify.worker_was_killed != out.killed) {
          out.verify.ok = false;
          out.verify.message = "ack log disagrees with the wait status";
        }
        if (!config.keep_files) {
          for (const std::string& f : scenario_files(image, out.scenario)) {
            std::remove(f.c_str());
          }
        }
        return out;
      });

  sweep.scenarios = config.scenarios;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PerScenario& r = results[i];
    if (r.scenario.kill == Kill::kAttack) ++sweep.attack_scenarios;
    if (r.killed) ++sweep.killed;
    if (r.clean) ++sweep.clean_exits;
    sweep.acked_ops += r.verify.acked_ops;
    sweep.auditor_checks += r.verify.auditor_checks;
    if (!r.spawn_error.empty() || !r.verify.ok) {
      const std::string& why =
          !r.spawn_error.empty() ? r.spawn_error : r.verify.message;
      sweep.failures.push_back("scenario " + std::to_string(i) + " [" +
                               describe(r.scenario) + "]: " + why);
    }
  }
  if (made_dir && !config.keep_files) ::rmdir(dir.c_str());
  return sweep;
}

std::optional<Command> parse_command(const std::vector<std::string>& args,
                                     std::string& error) {
  error.clear();
  if (args.empty()) return std::nullopt;
  Command cmd;
  if (args[0] == "sweep") {
    cmd.sub = Command::Sub::kSweep;
  } else if (args[0] == "worker") {
    cmd.sub = Command::Sub::kWorker;
  } else if (args[0] == "verify") {
    cmd.sub = Command::Sub::kVerify;
  } else {
    return std::nullopt;
  }
  // A sweep names no single scenario; a worker/verify run has no sweep to
  // size, place or keep.
  const bool sweep = cmd.sub == Command::Sub::kSweep;
  const auto stray = [&](const std::string& arg) {
    error = "'" + arg + "' does not apply to crashd " + args[0];
    return std::optional<Command>();
  };
  bool family_set = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::optional<std::string> value =
        eq == std::string::npos ? std::nullopt
                                : std::optional<std::string>(arg.substr(eq + 1));
    const auto number = [&value] {
      return value ? parse_u64(*value) : std::nullopt;
    };
    const auto selector =
        std::find_if(std::begin(kFamilies), std::end(kFamilies),
                     [&arg](const FamilyRow& row) {
                       return row.flag != nullptr && arg == row.flag;
                     });
    if (selector != std::end(kFamilies)) {
      if (family_set && cmd.sweep.family != selector->family) {
        error = "choose at most one scenario family";
        return std::nullopt;
      }
      cmd.sweep.family = selector->family;
      family_set = true;
    } else if (flag == "--seed") {
      const auto n = number();
      if (!n) return std::nullopt;
      cmd.sweep.seed = *n;
    } else if (flag == "--design" && value) {
      cmd.sweep.design = *value;
    } else if (flag == "--scenarios") {
      if (!sweep) return stray(arg);
      const auto n = number();
      if (!n) return std::nullopt;
      cmd.sweep.scenarios = *n;
    } else if (flag == "--jobs") {
      if (!sweep) return stray(arg);
      const auto n = number();
      if (!n) return std::nullopt;
      cmd.sweep.jobs = static_cast<std::size_t>(*n);
    } else if (flag == "--dir" && value) {
      if (!sweep) return stray(arg);
      cmd.sweep.work_dir = *value;
    } else if (arg == "--keep") {
      if (!sweep) return stray(arg);
      cmd.sweep.keep_files = true;
    } else if (flag == "--image" && value) {
      if (sweep) return stray(arg);
      cmd.image = *value;
    } else if (flag == "--index") {
      if (sweep) return stray(arg);
      const auto n = number();
      if (!n) return std::nullopt;
      cmd.index = *n;
    } else {
      return std::nullopt;
    }
  }
  if (!sweep && cmd.image.empty()) return std::nullopt;
  if (const std::string& dir = cmd.sweep.work_dir; !dir.empty()) {
    // Checked here, before any worker exists: every worker would
    // otherwise abort creating its image and be reported as a crash.
    struct stat st {};
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode) ||
        ::access(dir.c_str(), W_OK | X_OK) != 0) {
      error = "--dir=" + dir + " is not a writable directory";
      return std::nullopt;
    }
  }
  std::optional<DesignPin> pin;
  error = resolve_pin(cmd.sweep.family, cmd.sweep.design, pin);
  if (!error.empty()) return std::nullopt;
  if (!sweep) {
    cmd.scenario = derive_scenario(cmd.sweep.family, cmd.sweep.seed,
                                   cmd.index, pin ? &*pin : nullptr);
  }
  return cmd;
}

}  // namespace ccnvm::crashd
