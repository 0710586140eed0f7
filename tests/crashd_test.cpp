// crashd harness internals that don't need a real SIGKILL: scenario
// derivation determinism and coverage, pinned describe/action-stream
// digests, design-pin and command-line parsing, and the worker/verifier
// pair run in-process for the scenarios that exit cleanly (kNone and
// kAttack — any other kill mode would take the test runner down with it).
// The fork+kill path itself is exercised by the `cli_crashd_*` ctests and
// the CI kill9-crash-sweep job.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "crashd/crashd.h"

namespace ccnvm::crashd {
namespace {

/// Per-test-unique path: gtest_discover_tests runs every TEST as its own
/// ctest entry, and `ctest -j` runs them concurrently in one TempDir —
/// shared filenames would race.
std::string temp_path(const char* name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(::testing::TempDir()) + "/" + info->test_suite_name() +
         "-" + info->name() + "-" + name;
}

void cleanup(const std::string& image, const Scenario& sc) {
  for (const std::string& f : scenario_files(image, sc)) {
    std::remove(f.c_str());
  }
}

void append_ack(const std::string& path, char c) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputc(c, f);
  std::fclose(f);
}

/// First index of `family` (seed 1) whose scenario has kill mode `kill`
/// (and, for kAtWave, wave `wave`).
std::optional<std::uint64_t> find_index(Family family, Kill kill,
                                        int wave = -1,
                                        std::uint64_t limit = 2000) {
  for (std::uint64_t i = 0; i < limit; ++i) {
    const Scenario sc = derive_scenario(family, 1, i);
    if (sc.kill == kill && (wave < 0 || sc.kill_wave == wave)) return i;
  }
  return std::nullopt;
}

void expect_same(const Scenario& a, const Scenario& b) {
  EXPECT_EQ(a.family, b.family);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.persist_level, b.persist_level);
  EXPECT_EQ(a.trigger, b.trigger);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.max_batch, b.max_batch);
  EXPECT_EQ(a.max_delay_us, b.max_delay_us);
  EXPECT_EQ(a.kill, b.kill);
  EXPECT_EQ(a.kill_at, b.kill_at);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.kill_wave, b.kill_wave);
  EXPECT_EQ(a.workload_seed, b.workload_seed);
  EXPECT_EQ(a.attack_seed, b.attack_seed);
}

/// Runs a clean scenario's worker in-process and verifies what it left.
VerifyResult round_trip(const std::string& image, const Scenario& sc) {
  EXPECT_EQ(run_worker(image, sc), 0);
  CheckThrowScope throw_scope;
  return verify_scenario(image, sc);
}

TEST(CrashdScenarioTest, DerivationIsDeterministic) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Scenario a = derive_scenario(Family::kOp, 1, i);
    expect_same(a, derive_scenario(Family::kOp, 1, i));
    EXPECT_EQ(a.threads, 1u);
    EXPECT_EQ(a.shards, 1u);
    EXPECT_FALSE(describe(a).empty());
  }
  // Different seeds must explore different scenarios.
  EXPECT_NE(derive_scenario(Family::kOp, 1, 0).workload_seed,
            derive_scenario(Family::kOp, 2, 0).workload_seed);
}

TEST(CrashdScenarioTest, SweepCoversEveryKillMode) {
  for (const Kill kill : {Kill::kNone, Kill::kOpBoundary, Kill::kBeforeAck,
                          Kill::kDrainPhase, Kill::kAttack}) {
    EXPECT_TRUE(find_index(Family::kOp, kill).has_value())
        << static_cast<int>(kill);
  }
}

TEST(CrashdWorkerTest, CleanScenarioRoundTripsThroughTheImageFile) {
  const auto index = find_index(Family::kOp, Kill::kNone);
  ASSERT_TRUE(index.has_value());
  const Scenario sc = derive_scenario(Family::kOp, 1, *index);
  const std::string image = temp_path("crashd-clean.dimm");
  const VerifyResult r = round_trip(image, sc);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_FALSE(r.worker_was_killed);
  EXPECT_EQ(r.acked_ops, sc.actions);
  EXPECT_GT(r.keys_checked, 0u);
  EXPECT_GT(r.auditor_checks, 0u);
  cleanup(image, sc);
}

TEST(CrashdWorkerTest, AttackScenarioIsDetectedAndLocated) {
  const auto index = find_index(Family::kOp, Kill::kAttack);
  ASSERT_TRUE(index.has_value());
  const Scenario sc = derive_scenario(Family::kOp, 1, *index);
  const std::string image = temp_path("crashd-attack.dimm");
  const VerifyResult r = round_trip(image, sc);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_TRUE(r.attack_checked);
  cleanup(image, sc);
}

TEST(CrashdVerifyTest, TamperedAckLogFailsVerification) {
  // Forge an extra ack the worker never wrote: the verifier must refuse
  // rather than quietly trusting a too-long promise list.
  const auto index = find_index(Family::kOp, Kill::kNone);
  ASSERT_TRUE(index.has_value());
  const Scenario sc = derive_scenario(Family::kOp, 1, *index);
  const std::string image = temp_path("crashd-forged.dimm");
  ASSERT_EQ(run_worker(image, sc), 0);
  append_ack(image + ".ack", 'A');
  CheckThrowScope throw_scope;
  EXPECT_FALSE(verify_scenario(image, sc).ok);
  cleanup(image, sc);
}

TEST(CrashdVerifyTest, MissingImageFails) {
  CheckThrowScope throw_scope;
  const VerifyResult r = verify_scenario(temp_path("crashd-nope.dimm"),
                                         derive_scenario(Family::kOp, 1, 0));
  EXPECT_FALSE(r.ok);
}

// ---- Service scenario family -------------------------------------------

TEST(CrashdServiceScenarioTest, DerivationIsDeterministicAndBounded) {
  bool saw_multi_shard = false;
  for (std::uint64_t i = 0; i < 128; ++i) {
    const Scenario a = derive_scenario(Family::kService, 1, i);
    expect_same(a, derive_scenario(Family::kService, 1, i));
    EXPECT_FALSE(describe(a).empty());

    // Bounds the worker/verifier geometry depends on.
    EXPECT_GE(a.threads, 2u);
    EXPECT_LE(a.threads, 4u);
    EXPECT_GE(a.actions, 12u);
    EXPECT_LE(a.actions, 32u);
    EXPECT_TRUE(a.max_batch == 1 || a.max_batch == 2 || a.max_batch == 4 ||
                a.max_batch == 8 || a.max_batch == 16)
        << a.max_batch;
    EXPECT_TRUE(a.max_delay_us == 0 || a.max_delay_us == 100 ||
                a.max_delay_us == 500)
        << a.max_delay_us;
    // The kill discipline: a SIGKILL from the drain worker is only safe
    // when it is the sole thread touching NVM, so kill scenarios must be
    // single-shard. Clean scenarios may fan out.
    if (a.kill != Kill::kNone) {
      EXPECT_TRUE(a.kill == Kill::kMidBatch || a.kill == Kill::kAfterBarrier);
      EXPECT_EQ(a.shards, 1u) << "kill scenario with " << a.shards
                              << " shards at index " << i;
      EXPECT_GE(a.kill_at, 1u);
    } else {
      EXPECT_GE(a.shards, 1u);
      EXPECT_LE(a.shards, 2u);
      if (a.shards > 1) saw_multi_shard = true;
    }
  }
  EXPECT_TRUE(saw_multi_shard);  // clean scenarios do exercise 2 shards
  EXPECT_NE(derive_scenario(Family::kService, 1, 0).workload_seed,
            derive_scenario(Family::kService, 2, 0).workload_seed);
}

TEST(CrashdServiceScenarioTest, SweepCoversEveryServiceKill) {
  for (const Kill kill : {Kill::kNone, Kill::kMidBatch, Kill::kAfterBarrier}) {
    EXPECT_TRUE(find_index(Family::kService, kill).has_value())
        << static_cast<int>(kill);
  }
}

TEST(CrashdServiceWorkerTest, CleanScenarioRoundTripsThroughShardImages) {
  const auto index = find_index(Family::kService, Kill::kNone);
  ASSERT_TRUE(index.has_value());
  const Scenario sc = derive_scenario(Family::kService, 1, *index);
  const std::string image = temp_path("crashd-svc-clean.dimm");
  const VerifyResult r = round_trip(image, sc);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_FALSE(r.worker_was_killed);
  EXPECT_EQ(r.acked_ops, sc.threads * sc.actions);
  EXPECT_GT(r.auditor_checks, 0u);
  cleanup(image, sc);
}

TEST(CrashdServiceVerifyTest, TamperedThreadAckLogFailsVerification) {
  const auto index = find_index(Family::kService, Kill::kNone);
  ASSERT_TRUE(index.has_value());
  const Scenario sc = derive_scenario(Family::kService, 1, *index);
  const std::string image = temp_path("crashd-svc-forged.dimm");
  ASSERT_EQ(run_worker(image, sc), 0);
  // An ack after thread 0's clean-exit marker: the worker never wrote it,
  // so the verifier must reject the log as malformed.
  append_ack(image + ".ack.t0", 'A');
  CheckThrowScope throw_scope;
  EXPECT_FALSE(verify_scenario(image, sc).ok);
  cleanup(image, sc);
}

TEST(CrashdServiceVerifyTest, MissingShardImagesFail) {
  CheckThrowScope throw_scope;
  const VerifyResult r =
      verify_scenario(temp_path("crashd-svc-nope.dimm"),
                      derive_scenario(Family::kService, 1, 0));
  EXPECT_FALSE(r.ok);
}

// ---- Txn scenario family -------------------------------------------

TEST(CrashdTxnScenarioTest, DerivationIsDeterministicAndBounded) {
  for (std::uint64_t i = 0; i < 128; ++i) {
    const Scenario a = derive_scenario(Family::kTxn, 1, i);
    expect_same(a, derive_scenario(Family::kTxn, 1, i));
    EXPECT_FALSE(describe(a).empty());

    EXPECT_EQ(a.shards, 2u);
    EXPECT_GE(a.threads, 2u);
    EXPECT_LE(a.threads, 4u);
    EXPECT_GE(a.actions, 8u);
    EXPECT_LE(a.actions, 16u);
    if (a.kill != Kill::kNone) {
      EXPECT_EQ(a.kill, Kill::kAtWave);
      EXPECT_GE(a.kill_wave, 0);
      EXPECT_LE(a.kill_wave, 2);
      EXPECT_GE(a.kill_at, 1u);
    }
  }
  EXPECT_NE(derive_scenario(Family::kTxn, 1, 0).workload_seed,
            derive_scenario(Family::kTxn, 2, 0).workload_seed);
}

TEST(CrashdTxnScenarioTest, SweepCoversEveryWaveKill) {
  // The tentpole coverage claim: SIGKILL between the per-shard barriers
  // of a multi-shard commit — after prepares (wave 0), after the
  // decision (wave 1), after finalizes (wave 2) — plus clean runs.
  EXPECT_TRUE(find_index(Family::kTxn, Kill::kNone).has_value());
  EXPECT_TRUE(find_index(Family::kTxn, Kill::kAtWave, 0).has_value());
  EXPECT_TRUE(find_index(Family::kTxn, Kill::kAtWave, 1).has_value());
  EXPECT_TRUE(find_index(Family::kTxn, Kill::kAtWave, 2).has_value());
}

TEST(CrashdTxnWorkerTest, CleanScenarioRoundTripsThroughShardImages) {
  const auto index = find_index(Family::kTxn, Kill::kNone);
  ASSERT_TRUE(index.has_value());
  const Scenario sc = derive_scenario(Family::kTxn, 1, *index);
  const std::string image = temp_path("crashd-txn-clean.dimm");
  const VerifyResult r = round_trip(image, sc);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_FALSE(r.worker_was_killed);
  EXPECT_EQ(r.acked_ops, sc.threads * sc.actions);
  EXPECT_GT(r.auditor_checks, 0u);
  cleanup(image, sc);
}

TEST(CrashdTxnVerifyTest, TamperedThreadAckLogFailsVerification) {
  // Forge a txn ack the worker never issued: the verifier must refuse
  // the promise rather than hunting the store for effects.
  const auto index = find_index(Family::kTxn, Kill::kNone);
  ASSERT_TRUE(index.has_value());
  const Scenario sc = derive_scenario(Family::kTxn, 1, *index);
  const std::string image = temp_path("crashd-txn-forged.dimm");
  ASSERT_EQ(run_worker(image, sc), 0);
  append_ack(image + ".ack.t0", 'T');
  CheckThrowScope throw_scope;
  EXPECT_FALSE(verify_scenario(image, sc).ok);
  cleanup(image, sc);
}

TEST(CrashdTxnVerifyTest, MissingShardImagesFail) {
  CheckThrowScope throw_scope;
  const VerifyResult r =
      verify_scenario(temp_path("crashd-txn-nope.dimm"),
                      derive_scenario(Family::kTxn, 1, 0));
  EXPECT_FALSE(r.ok);
}

// ---- Pinned equivalence ------------------------------------------------
//
// Fixed digests of every family's scenario descriptions and action
// streams. A change to any derivation, draw order or value byte moves
// them: (seed, index) must keep naming the same scenario and the same
// traffic across commits, or CI seeds and repro lines stop meaning
// anything.

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t describe_digest(Family family, const DesignPin* pin) {
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    h = fnv1a(h, describe(derive_scenario(family, 1, i, pin)) + "\n");
  }
  return h;
}

/// Every client's action stream of the first 64 scenarios: per action
/// 'A'/'T', then per op its kind letter, key and value (NUL-terminated);
/// '|' closes a client, '\n' a scenario.
std::uint64_t stream_digest(Family family) {
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Scenario sc = derive_scenario(family, 1, i);
    for (std::size_t t = 0; t < sc.threads; ++t) {
      std::string bytes;
      for (const Action& action : client_actions(sc, t)) {
        bytes += action.is_txn ? 'T' : 'A';
        for (const KvOp& op : action.ops) {
          bytes += op.kind == OpKind::kPut     ? 'P'
                   : op.kind == OpKind::kErase ? 'E'
                                               : 'G';
          bytes += op.key;
          bytes += '\0';
          bytes += op.value;
          bytes += '\0';
        }
      }
      h = fnv1a(h, bytes + "|");
    }
    h = fnv1a(h, "\n");
  }
  return h;
}

TEST(CrashdEquivalenceTest, DescribeDigestsArePinned) {
  const std::optional<DesignPin> phoenix = parse_design_pin("phoenix");
  const std::optional<DesignPin> triad2 = parse_design_pin("triad-n2");
  ASSERT_TRUE(phoenix && triad2);
  EXPECT_EQ(describe_digest(Family::kOp, nullptr), 0xd8f6e33223328442ULL);
  EXPECT_EQ(describe_digest(Family::kService, nullptr), 0x1a77f3c2e5736360ULL);
  EXPECT_EQ(describe_digest(Family::kTxn, nullptr), 0x0fbdbdb7b80aa855ULL);
  EXPECT_EQ(describe_digest(Family::kOp, &*phoenix), 0xc690194b0811091dULL);
  EXPECT_EQ(describe_digest(Family::kOp, &*triad2), 0xb3889776bd3c0825ULL);
}

TEST(CrashdEquivalenceTest, ActionStreamDigestsArePinned) {
  EXPECT_EQ(stream_digest(Family::kOp), 0x5e076bdcc964f5ecULL);
  EXPECT_EQ(stream_digest(Family::kService), 0xf980f7cc3748c0c2ULL);
  EXPECT_EQ(stream_digest(Family::kTxn), 0xa9442d6513c5f794ULL);
}

// ---- Design pins and the command line ----------------------------------

TEST(CrashdPinTest, PinParserIsTheCliDesignParser) {
  // Malformed or out-of-range frontiers: rejected by the one parser, so
  // the pin and `ccnvm run` agree (a uint32 wrap would turn
  // triad-n4294967297 into triad-n1).
  for (const char* bad :
       {"triad-n4294967297", "triad-n18446744073709551616", "triad-n0",
        "triad-n65", "triad-n", "triad-nx", "triad-n+2", "triad-n2x"}) {
    EXPECT_FALSE(core::parse_design(bad).has_value()) << bad;
    EXPECT_FALSE(parse_design_pin(bad).has_value()) << bad;
  }
  const std::optional<DesignPin> top = parse_design_pin("triad-n64");
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->kind, core::DesignKind::kTriadNvm);
  EXPECT_EQ(top->persist_level, 64u);
  ASSERT_TRUE(parse_design_pin("triad").has_value());
  EXPECT_EQ(parse_design_pin("triad")->persist_level, 1u);
  // Valid designs crashd cannot verify out-of-process stay unpinnable.
  for (const char* unpinnable : {"wocc", "sc", "osiris", "ccnvm-plus"}) {
    EXPECT_TRUE(core::parse_design(unpinnable).has_value()) << unpinnable;
    EXPECT_FALSE(parse_design_pin(unpinnable).has_value()) << unpinnable;
  }
  for (const char* pinnable : {"ccnvm", "ccnvm-nods", "phoenix", "triad-n2"}) {
    EXPECT_TRUE(parse_design_pin(pinnable).has_value()) << pinnable;
  }
}

std::optional<Command> parse(std::vector<std::string> args) {
  std::string error;
  return parse_command(args, error);
}

TEST(CrashdCommandTest, RejectsFlagsTheSubcommandDoesNotTake) {
  const std::vector<std::vector<std::string>> bad = {
      {"sweep", "--index=5", "--image=/nonexistent"},
      {"sweep", "--image=/nonexistent"},
      {"worker", "--image=x", "--scenarios=4"},
      {"worker", "--image=x", "--jobs=4"},
      {"verify", "--image=x", "--dir=/tmp"},
      {"verify", "--image=x", "--keep"},
      {"worker", "--seed=1"},  // no --image
      {"sweep", "--service", "--txn"},
      {"sweep", "--txn", "--design=phoenix"},
      {"worker", "--image=x", "--service", "--design=ccnvm"},
      {"sweep", "--design=triad-n4294967297"},
      {"sweep", "--dir=/nonexistent-crashd-work-dir"},
      {"sweep", "--seed=-1"},
      {"sweep", "--bogus"},
      {"replay"},
      {},
  };
  for (const auto& args : bad) {
    std::string joined;
    for (const std::string& a : args) joined += a + " ";
    EXPECT_FALSE(parse(args).has_value()) << joined;
  }
}

TEST(CrashdCommandTest, ParsesEveryFamilyAndPin) {
  // --dir must name an existing directory.
  const std::string dir = ::testing::TempDir();
  const auto sweep = parse({"sweep", "--txn", "--scenarios=16", "--seed=3",
                            "--jobs=4", "--dir=" + dir, "--keep"});
  ASSERT_TRUE(sweep.has_value());
  EXPECT_EQ(sweep->sub, Command::Sub::kSweep);
  EXPECT_EQ(sweep->sweep.family, Family::kTxn);
  EXPECT_EQ(sweep->sweep.scenarios, 16u);
  EXPECT_EQ(sweep->sweep.seed, 3u);
  EXPECT_EQ(sweep->sweep.jobs, 4u);
  EXPECT_EQ(sweep->sweep.work_dir, dir);
  EXPECT_TRUE(sweep->sweep.keep_files);

  const auto service =
      parse({"verify", "--service", "--image=x", "--seed=2", "--index=9"});
  ASSERT_TRUE(service.has_value());
  expect_same(service->scenario, derive_scenario(Family::kService, 2, 9));

  const auto pinned =
      parse({"worker", "--design=triad-n2", "--image=x", "--index=7"});
  ASSERT_TRUE(pinned.has_value());
  const DesignPin pin = *parse_design_pin("triad-n2");
  expect_same(pinned->scenario, derive_scenario(Family::kOp, 1, 7, &pin));
  EXPECT_EQ(pinned->scenario.persist_level, 2u);
}

}  // namespace
}  // namespace ccnvm::crashd
