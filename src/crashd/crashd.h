// Out-of-process kill-9 crash harness ("crashd").
//
// Everything the in-process sweeps test is simulated: DrainCrashPoint
// unwinds the stack, the NvmImage stays in the same heap, and nothing
// ever actually dies. crashd closes that gap. A *worker process* runs KV
// traffic on designs whose NvmImages live in mmap'ed files
// (nvm::FileBackend) and SIGKILLs itself at a scenario-chosen moment.
// A *verifier* (fresh process or at least fresh designs) then reopens
// every image file, restores the mirrored TCB registers, runs recovery
// with the PR-1 invariant auditor attached, and checks:
//
//   * recovery is clean and every *acknowledged* action (one byte in an
//     unbuffered side-channel ack log per client, written only after the
//     action returned) reads back exactly;
//   * the at-most-one unacknowledged in-flight action per client surfaces
//     all-or-nothing, as its old or its new state, never a third one;
//   * zero auditor violations (I1-I8 on the crash state and the
//     recovered state, including full image-vs-roots verification);
//   * no engine holds spurious entries;
//   * on attack scenarios, a deliberately corrupted data line in the
//     image is detected AND located per §4.4.
//
// Why SIGKILL is honest here: stores into a MAP_SHARED mapping live in
// the kernel page cache the moment they retire; SIGKILL cannot undo
// them, and nothing after the kill runs. The reopened file therefore
// holds exactly the prefix of NVM line writes (in program order) that
// the victim completed — the paper's power-cut ordering model, §4.2's
// "ADR drains the WPQ" included, because the model performs those
// writes before the kill point fires. Every kill therefore fires where
// no other thread can be halfway through a line write.
//
// Scenario families. One worker/verifier core serves three families,
// each one row of the family table in crashd.cpp (docs/BACKENDS.md):
//
//   op       one client straight on a SecureKvStore; kills at an op
//            boundary, after applying but before acknowledging an op, or
//            inside a drain at one of the §4.2 crash windows (via
//            CcNvmDesign's power-loss hook); plus attack scenarios.
//   service  2-4 blocking client threads on a service::KvService; kills
//            from the drain worker's safe-point hooks (mid-batch or
//            after a barrier, before its acks) with requests in flight.
//   txn      2-4 client threads issuing single ops and 2-4-op
//            transactions over a two-shard KvService; kills at a 2PC wave
//            boundary of a both-shard commit (after the prepares, the
//            decision or the finalizes), where the committing txn holds
//            both shards' admission locks and so parks every drain
//            worker.
//
// Determinism: a scenario is fully derived from (family, sweep_seed,
// index[, design pin]), so worker and verifier — different processes —
// reconstruct the identical action streams, and any failure replays
// standalone via `ccnvm crashd worker/verify --seed=S --index=I`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/design.h"
#include "core/protocol_observer.h"

namespace ccnvm::crashd {

/// The scenario families (see the file comment).
enum class Family { kOp, kService, kTxn };

/// When (if at all) the worker raises SIGKILL on itself.
enum class Kill {
  kNone,          // run to a clean quiesced shutdown
  kAttack,        // op: clean run; the verifier then corrupts the image
  kOpBoundary,    // op: after acknowledging op `kill_at`
  kBeforeAck,     // op: after *applying* op `kill_at`, before its ack
  kDrainPhase,    // op: inside a drain at `phase` (§4.2 window)
  kMidBatch,      // service: after the kill_at-th applied request
  kAfterBarrier,  // service: after the kill_at-th barrier, before its acks
  kAtWave,        // txn: at wave `kill_wave` of the kill_at-th commit
};

struct Scenario {
  Family family = Family::kOp;
  core::DesignKind kind = core::DesignKind::kCcNvm;
  std::uint32_t persist_level = 1;  // Triad-NVM frontier (pin only)
  core::DrainTrigger trigger = core::DrainTrigger::kExplicit;
  /// Engines, one image file each. Service kill scenarios use one (a
  /// SIGKILL from one drain worker's safe point must not catch a second
  /// worker mid-line-write); the txn family always uses two.
  std::size_t shards = 1;
  std::size_t threads = 1;  // client threads, one ack log each
  std::size_t actions = 0;  // per client; an action is one op or one txn
  std::size_t max_batch = 8;        // service/txn group commit
  std::uint32_t max_delay_us = 0;   // service/txn straggler gap
  Kill kill = Kill::kNone;
  /// Where the kill fires. kOpBoundary/kBeforeAck: the op index.
  /// kDrainPhase: arm once this many drains have committed, so the kill
  /// lands in the next one. kMidBatch/kAfterBarrier/kAtWave: the 1-based
  /// ordinal of the applied request / barrier / both-shard wave event; a
  /// target past the run's end degrades to a clean run.
  std::uint64_t kill_at = 0;
  core::DrainCrashPoint phase = core::DrainCrashPoint::kNone;  // kDrainPhase
  /// kAtWave: 0 = prepares acked (before the decision), 1 = decision
  /// acked (before the finalizes), 2 = finalizes acked (before the
  /// client's ack byte).
  int kill_wave = 0;
  std::uint64_t workload_seed = 0;
  std::uint64_t attack_seed = 0;  // kAttack: which bit of which data line
};

/// Pins every op-family scenario to one design — how the baselines CI
/// lane runs its per-design kill-9 sweeps.
using DesignPin = core::DesignSpec;

/// core::parse_design, narrowed to the designs crashd can pin: ccnvm,
/// ccnvm-nods, triad[-nK] and phoenix. Rejects the rest: wocc (recovery
/// is supposed to fail), ccnvm-plus (its per-block update registers are
/// process state, not mirrored into the backend), sc/osiris (no pinned
/// sweep demand — the in-process matrix covers them).
std::optional<DesignPin> parse_design_pin(const std::string& name);

/// The deterministic scenario for (family, sweep_seed, index). A pin
/// (op family only) overrides only the design, and remaps drain-window
/// kills, which need a draining design, to a deterministic op-boundary
/// kill; the op stream, kill density and workload seeds stay identical
/// across pins so sweeps are comparable.
Scenario derive_scenario(Family family, std::uint64_t sweep_seed,
                         std::uint64_t index,
                         const DesignPin* pin = nullptr);

std::string describe(const Scenario& scenario);

enum class OpKind { kPut, kErase, kGet };

struct KvOp {
  OpKind kind = OpKind::kGet;
  std::string key;
  std::string value;  // kPut only
};

/// One client action: a single op (acknowledged 'A') or a whole
/// transaction (one submit_txn, acknowledged 'T').
struct Action {
  bool is_txn = false;
  std::vector<KvOp> ops;  // one entry for a single op, 2..4 for a txn
};

/// Client `thread`'s deterministic action stream (`scenario.actions`
/// entries) — what the worker drives and the verifier replays. Key
/// namespaces are disjoint per client, and put values are tagged by
/// client, so a cross-client mixup cannot pass as a correct read-back.
std::vector<Action> client_actions(const Scenario& scenario,
                                   std::size_t thread);

/// Every file a worker for `scenario` creates under `image_path`: the
/// shard images, then the per-client ack logs.
std::vector<std::string> scenario_files(const std::string& image_path,
                                        const Scenario& scenario);

/// Runs the worker side against `image_path`. Kill scenarios do not
/// return — the process dies by SIGKILL at the scenario's point. Clean
/// scenarios return 0.
int run_worker(const std::string& image_path, const Scenario& scenario);

struct VerifyResult {
  bool ok = false;
  std::string message;       // on failure
  bool worker_was_killed = false;
  std::uint64_t acked_ops = 0;  // acknowledged actions
  std::uint64_t keys_checked = 0;
  std::uint64_t auditor_checks = 0;
  bool attack_checked = false;
};

/// Verifies the images a (possibly killed) worker left behind. Requires a
/// common::CheckThrowScope in the caller (auditor violations and lost
/// actions surface as CheckFailure and are converted into a failed
/// result).
VerifyResult verify_scenario(const std::string& image_path,
                             const Scenario& scenario);

struct SweepConfig {
  Family family = Family::kOp;
  std::uint64_t seed = 1;
  std::uint64_t scenarios = 200;
  /// Pin every scenario to one design (see parse_design_pin). Empty =
  /// the default cc mix. Op family only.
  std::string design;
  std::size_t jobs = 1;  // deterministic executor width (0 = hw)
  /// Directory for image/ack files; empty = a fresh mkdtemp under
  /// $TMPDIR. Files are deleted per scenario unless keep_files.
  std::string work_dir;
  bool keep_files = false;
  /// Executable to fork+exec as `<exe> crashd worker ...`; empty =
  /// /proc/self/exe (the running binary).
  std::string worker_exe;
};

struct SweepResult {
  std::uint64_t scenarios = 0;
  std::uint64_t killed = 0;       // workers that died by SIGKILL
  std::uint64_t clean_exits = 0;  // workers that exited 0
  std::uint64_t attack_scenarios = 0;
  std::uint64_t acked_ops = 0;
  std::uint64_t auditor_checks = 0;
  std::vector<std::string> failures;  // index order, deterministic

  bool ok() const { return failures.empty(); }
};

/// Fork+exec one worker per scenario (in parallel over the deterministic
/// executor), reap it, and verify every image in-process. Installs its
/// own CheckThrowScope — must not run inside another one.
SweepResult run_sweep(const SweepConfig& config);

/// A parsed `ccnvm crashd <sweep|worker|verify> [flags]` command line.
struct Command {
  enum class Sub { kSweep, kWorker, kVerify };
  Sub sub = Sub::kSweep;
  /// sweep: every field; worker/verify: family, seed and design.
  SweepConfig sweep;
  std::string image;        // worker/verify
  std::uint64_t index = 0;  // worker/verify
  Scenario scenario;        // worker/verify: the scenario they run
};

/// Parses the arguments after `crashd`. Returns nullopt — the caller
/// prints usage — on an unknown subcommand, a malformed value, two
/// family selectors, a flag the subcommand does not take (sweep takes no
/// --image/--index; worker/verify take no --scenarios/--jobs/--dir/
/// --keep and need --image), a --dir that is not a writable directory, or
/// an unusable --design; `error` then holds a reason when there is one
/// beyond "bad usage".
std::optional<Command> parse_command(const std::vector<std::string>& args,
                                     std::string& error);

}  // namespace ccnvm::crashd
