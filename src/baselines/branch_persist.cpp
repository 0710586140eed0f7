#include "baselines/branch_persist.h"

#include <algorithm>
#include <vector>

namespace ccnvm::baselines {

BranchPersistDesign::BranchPersistDesign(const core::DesignConfig& config,
                                         core::DesignKind kind,
                                         const BranchPersistPolicy& policy)
    : SecureNvmBase(config),
      kind_(kind),
      frontier_(std::min(policy.frontier, layout_.root_level() - 1)),
      overlap_transfer_(policy.overlap_transfer),
      whole_branch_(frontier_ + 1 == layout_.root_level()),
      persisted_lines_(std::size_t{frontier_} + 1) {}

std::uint64_t BranchPersistDesign::on_write_back_metadata(
    Addr addr, bool counter_was_cached, std::uint64_t crypt_cycles) {
  // Serial recomputation all the way to the root: each parent HMAC needs
  // the child's new contents, so the chain itself never overlaps (§2.3);
  // the data encryption pipeline runs alongside it.
  const std::uint64_t walk = std::max(
      crypt_cycles,
      propagate_path(addr, counter_was_cached, /*stop_at_cached=*/false));

  // Persistence barrier: atomically flush the counter line plus the path
  // nodes at levels 1..frontier. Levels above the frontier never hit the
  // WPQ — the write traffic a lower frontier saves. Lines stay cached
  // (clean) for reuse.
  std::vector<Addr> branch = metadata_addrs_for(addr);
  branch.resize(persisted_lines_);
  controller_.begin_atomic_batch();
  for (Addr line : branch) persist_metadata(line, /*batched=*/true);
  controller_.end_atomic_batch();
  for (Addr line : branch) meta_cache_.clean(line);
  tcb_.root_old = tcb_.root_new;
  tcb_.n_wb = 0;

  // On-chip transfer into the WPQ, 4 cycles a line: after the walk, or
  // streamed alongside it.
  const std::uint64_t transfer = 4 * branch.size();
  return overlap_transfer_ ? std::max(walk, transfer) : walk + transfer;
}

std::uint64_t BranchPersistDesign::on_meta_eviction(Addr line_addr,
                                                    bool dirty) {
  // Above the frontier a dirty line is dropped: it is recomputable from
  // the levels below. At or below it, dirty lines exist only transiently
  // inside the current write-back's propagation; the pending batch flush
  // covers their final values, making the eviction write safe (and at
  // worst redundant).
  if (dirty && !chip_only(line_addr)) {
    persist_metadata(line_addr, /*batched=*/false);
  }
  return 0;
}

std::uint64_t BranchPersistDesign::fetch_metadata(Addr line_addr) {
  if (chip_only(line_addr)) {
    // No current NVM copy exists above the frontier: recompute the node
    // from its children, one counter-HMAC per child slot (Osiris-style).
    stats_.hmac_ops += nvm::NvmLayout::kArity;
    return nvm::NvmLayout::kArity * timing_.hmac_latency;
  }
  // Counters and levels up to the frontier persist on every write-back,
  // so the default fetch-and-verify against the committed chain applies.
  return SecureNvmBase::fetch_metadata(line_addr);
}

}  // namespace ccnvm::baselines
