// Invariant auditor for the drain protocol (§4.2–§4.3).
//
// The paper's crash-consistency argument rests on invariants the repo
// previously enforced only implicitly, through end-to-end recovery tests.
// InvariantAuditor makes them *checked*: attached to a design via
// SecureNvmBase::attach_observer, it re-derives each invariant from the
// design's observable state after every protocol event and trips a
// CCNVM_CHECK (with design/epoch context) the moment one breaks — at the
// event that broke it, not thousands of operations later in a recovery
// test.
//
// Audited invariants (see docs/MODEL.md "Audited invariants" for the
// paper mapping):
//   I1  DAQ entries are unique and the queue never exceeds its capacity,
//       which never exceeds the WPQ (§4.2: a drain batch must fit ADR).
//   I2  Every dirty Meta Cache metadata line is DAQ-tracked, and every
//       DAQ entry is a dirty line, a reserved spread node on a tracked
//       dirty counter's path, or a line evicted this epoch (§4.2 Ã).
//   I3  N_wb equals the write-backs observed since the last commit
//       (§4.3's replay-window identity N_wb == N_retry).
//   I4  The drain follows start → batch* → end → commit, batches only
//       DAQ-tracked lines, and never exceeds the WPQ (§4.2 steps Õ-œ).
//   I5  After a commit: N_wb == 0, ROOT_old == ROOT_new, no dirty
//       metadata remains, and the NVM image is one consistent tree equal
//       to the committed root.
//   I6  After any crash — including every DrainCrashPoint — the NVM
//       image verifies as a single consistent tree against ROOT_old or
//       ROOT_new (§4.2's all-or-nothing ADR argument).
//   I7  Deferred spreading stops the per-write-back walk exactly at the
//       first cached node and never takes a step past one (§4.3).
//   I8  Osiris Plus stop-loss: a persisted counter line is never stale
//       by more than the update limit (§3).
#pragma once

#include <cstdint>
#include <unordered_set>

#include "core/cc_nvm.h"
#include "core/design.h"

namespace ccnvm::audit {

class InvariantAuditor : public core::ProtocolObserver {
 public:
  struct Options {
    /// Full image-vs-root tree verification at commits, crashes and
    /// recoveries (I5/I6). O(tree) per event — leave off for big
    /// geometries, on for test-sized ones.
    bool verify_image = true;
  };

  InvariantAuditor() = default;
  explicit InvariantAuditor(const Options& options) : options_(options) {}

  /// Registers this auditor on `design` and syncs epoch baselines. The
  /// auditor must outlive the design or be detached first.
  void attach(core::SecureNvmBase& design);

  /// Totals, so tests can assert the audit actually ran.
  std::uint64_t events_observed() const { return events_; }
  std::uint64_t checks_performed() const { return checks_; }
  std::uint64_t image_verifications() const { return image_verifications_; }

  // --- ProtocolObserver ------------------------------------------------
  void on_write_back_complete(const core::AuditView& view,
                              Addr data_addr) override;
  void on_meta_eviction(const core::AuditView& view, Addr line_addr,
                        bool dirty) override;
  void on_propagate_step(const core::AuditView& view, Addr data_addr,
                         std::uint32_t child_level, bool child_was_cached,
                         bool stop_at_cached) override;
  void on_propagate_stop(const core::AuditView& view, Addr data_addr,
                         std::uint32_t child_level, bool child_was_cached,
                         bool stop_at_cached, bool reached_root) override;
  void on_crash(const core::AuditView& view) override;
  void on_recovery_complete(const core::AuditView& view,
                            const core::RecoveryReport& report) override;
  void on_drain_start(const core::AuditView& view,
                      core::DrainTrigger trigger) override;
  void on_drain_batch_line(const core::AuditView& view,
                           Addr line_addr) override;
  void on_drain_end(const core::AuditView& view) override;
  void on_drain_commit(const core::AuditView& view) override;

 private:
  enum class DrainState { kIdle, kStarted, kEnded };

  bool is_cc_design(const core::AuditView& view) const;

  /// I1 + I2.
  void check_daq(const core::AuditView& view);
  /// I5/I6: image is one consistent tree matching ROOT_old or (when
  /// `committed_only` is false) ROOT_new.
  void check_image_against_roots(const core::AuditView& view,
                                 bool committed_only);
  /// I8.
  void check_osiris_stop_loss(const core::AuditView& view, Addr data_addr);

  Options options_;
  DrainState drain_state_ = DrainState::kIdle;
  bool crashed_ = false;
  std::uint64_t write_backs_since_commit_ = 0;
  /// A drain commit can fire *inside* a write-back (update-limit trigger)
  /// and reset N_wb after that write-back's increment; this flag lets the
  /// I3 check accept exactly that interleaving and no other.
  bool commit_since_last_write_back_ = false;
  std::size_t batch_lines_ = 0;
  /// Metadata lines displaced from the Meta Cache in the current epoch:
  /// legitimately DAQ-tracked though no longer cached (the displacing
  /// drain clears them at commit).
  std::unordered_set<Addr> evicted_this_epoch_;

  std::uint64_t events_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t image_verifications_ = 0;
};

}  // namespace ccnvm::audit
