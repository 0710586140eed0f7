// Branch-persist designs — SC, Triad-NVM and Phoenix as presets of one
// policy.
//
// Every write-back recomputes the counter/tree chain serially to the root
// (ROOT_new must cover the written-back data; encryption overlaps the
// walk) and atomically persists the bottom of that branch in one WPQ
// batch: the counter line plus the tree nodes at levels 1..frontier. The
// root lives in the persistent TCB register as everywhere else. Levels
// above the frontier stay chip-only (Osiris-style): dropped on eviction,
// recomputed from their children on a miss, and rebuilt at recovery from
// the persisted frontier (RecoveryMode::kBranchPersist), which also
// bounds how precisely tampering can be located.
//
// The presets (core/design.h DesignKind):
//   SC (§2.3)           top frontier, WPQ transfer after the walk — the
//                       whole branch on every write-back (11 metadata
//                       lines per data line at the paper's 16 GB).
//   Triad-NVM (ISCA'19) frontier N = DesignConfig::persist_level, transfer
//                       after the walk; N >= the tree height is SC.
//   Phoenix             top frontier, WPQ transfer streamed alongside the
//                       walk (each node enters the queue as soon as its
//                       own HMAC lands).
#pragma once

#include <cstdint>
#include <limits>

#include "core/design.h"

namespace ccnvm::baselines {

struct BranchPersistPolicy {
  /// Requests the top internal level (root_level() - 1) of any geometry.
  static constexpr std::uint32_t kTopFrontier =
      std::numeric_limits<std::uint32_t>::max();

  /// Highest tree level persisted with each write-back.
  std::uint32_t frontier = kTopFrontier;
  /// The WPQ transfer overlaps the walk: max(crypt, walk, 4·lines) instead
  /// of max(crypt, walk) + 4·lines.
  bool overlap_transfer = false;
};

class BranchPersistDesign : public core::SecureNvmBase {
 public:
  BranchPersistDesign(const core::DesignConfig& config, core::DesignKind kind,
                      const BranchPersistPolicy& policy);

  core::DesignKind kind() const override { return kind_; }

 protected:
  std::uint64_t on_write_back_metadata(Addr addr, bool counter_was_cached,
                                       std::uint64_t crypt_cycles) override;
  std::uint64_t on_meta_eviction(Addr line_addr, bool dirty) override;
  std::uint64_t fetch_metadata(Addr line_addr) override;

  core::RecoveryMode recovery_mode() const override {
    return core::RecoveryMode::kBranchPersist;
  }

  bool tree_level_persisted(std::uint32_t level) const override {
    return level <= frontier_;
  }

  void augment_recovery_inputs(core::RecoveryInputs& inputs) override {
    inputs.persist_level = frontier_;
  }

 private:
  /// A tree node above the frontier: it has no current NVM copy.
  bool chip_only(Addr line_addr) const {
    return !whole_branch_ && layout_.is_mt_addr(line_addr) &&
           layout_.node_id_of(line_addr).level > frontier_;
  }

  core::DesignKind kind_;
  /// The policy's frontier clamped to the internal levels of this geometry.
  std::uint32_t frontier_;
  bool overlap_transfer_;
  /// The frontier is the top internal level: every metadata line persists,
  /// so no path needs a per-line level test.
  bool whole_branch_;
  /// Lines persisted per write-back: the counter line plus levels
  /// 1..frontier — a prefix of metadata_addrs_for's bottom-up branch.
  std::size_t persisted_lines_;
};

}  // namespace ccnvm::baselines
