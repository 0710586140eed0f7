// Crash recovery and attack locating (§4.4).
//
// After a power failure the system is left with: the NVM image (data,
// data HMACs, counters and tree nodes as of their last persist), and the
// TCB's persistent registers. RecoveryManager reconstructs the newest
// security metadata and classifies integrity attacks, per design:
//
//   kCcNvm  — the paper's 4-step procedure:
//             1. locate tree-level replay attacks: the NVM tree must match
//                ROOT_old or ROOT_new; parent/child mismatches localize
//                replayed nodes. One batched tree pass checks both roots
//                (only the root's slot comparisons differ between them);
//             2. recover stalled counters by brute-forcing each data HMAC
//                forward (<= N retries, N being the update-limit trigger);
//                an exhausted search locates a spoofing/splicing attack.
//                Every written block's persisted counter is tried in
//                data_hmac_many bursts of a window of pages each; only the
//                blocks they reject search forward one candidate at a time;
//             3. compare the retry total against N_wb to detect the
//                deferred-spreading replay window (detected, not located);
//             4. rebuild the Merkle tree from the recovered counters.
//   kOsiris — counters brute-forced the same way, tree rebuilt, and the
//             rebuilt root compared with the TCB root: a mismatch detects
//             an attack but cannot locate it, so all data is dropped.
//   kBranchPersist — SC, Triad-N and Phoenix (baselines/branch_persist.h):
//             counters and tree levels 1..persist_level are current in
//             NVM. Recovery rebuilds the levels above that frontier from
//             the persisted frontier (only the root, at the top frontier),
//             checks the result against ROOT_new, and scans every data
//             HMAC under its persisted counter (step 2's batched scan with
//             no forward search). A mismatch is localized by verifying the
//             stored tree (counters + persisted levels + rebuilt levels)
//             against ROOT_new.
//   kNone   — conventional secure memory: the root register is volatile,
//             so after a crash nothing can be authenticated at all.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tcb.h"
#include "nvm/image.h"
#include "nvm/layout.h"
#include "secure/cme_engine.h"
#include "secure/counter_block.h"
#include "secure/merkle.h"

namespace ccnvm::core {

enum class RecoveryMode { kNone, kOsiris, kCcNvm, kBranchPersist };

struct RecoveryReport {
  /// True when recovery finished with fresh, verified metadata and no
  /// attack of any kind was observed.
  bool clean = false;
  /// Counters and tree restored to their newest consistent state (and
  /// written back to the NVM image).
  bool metadata_recovered = false;
  bool attack_detected = false;
  /// The exact tampered lines were identified (cc-NVM's headline ability).
  bool attack_located = false;
  /// N_wb / N_retry mismatch: a replay in the deferred-spreading window
  /// was detected but cannot be pinpointed (§4.3).
  bool potential_replay = false;
  /// The design cannot tell which data is bad, so everything must go.
  bool data_dropped = false;
  /// No authentication possible at all (w/o CC after power loss).
  bool unrecoverable = false;

  /// Located tampered data blocks (spoofed/spliced/replayed data or DH).
  std::vector<Addr> tampered_blocks;
  /// Located replayed metadata lines (counter lines are level 0).
  std::vector<nvm::NodeId> replayed_nodes;

  std::uint64_t total_retries = 0;
  std::uint64_t counters_recovered = 0;
  /// Tree-reconstruction work this recovery performed: node-tag HMACs
  /// computed while rebuilding unpersisted levels (plus the root check),
  /// and internal node lines rewritten into the NVM image. Deterministic
  /// model quantities — the tradeoff bench derives recovery latency from
  /// them. The top frontier (SC, Phoenix) rebuilds 0 nodes; Triad-N shrinks
  /// both as N grows.
  std::uint64_t rebuild_hash_ops = 0;
  std::uint64_t tree_nodes_rebuilt = 0;
  /// ECC-oracle evaluations performed (Osiris's "extra online checking").
  std::uint64_t ecc_checks = 0;
  /// The Merkle root after recovery (valid when metadata_recovered).
  Line recovered_root{};
  std::string detail;
};

/// Per-block write-back counts since the last commit, keyed by counter
/// line address — the extra persistent register file of the paper's
/// closing extension ("record ... the update times of each dirty counter
/// cache ... to locate the tempered data blocks").
using PerBlockUpdates =
    std::unordered_map<Addr, std::array<std::uint8_t, kBlocksPerPage>>;

struct RecoveryInputs {
  const nvm::NvmLayout* layout = nullptr;
  nvm::NvmImage* image = nullptr;  // repaired in place on success
  const secure::CmeEngine* cme = nullptr;
  const secure::MerkleEngine* merkle = nullptr;
  TcbRegisters tcb;
  std::uint32_t update_limit = 16;  // N
  RecoveryMode mode = RecoveryMode::kCcNvm;
  /// When non-null (cc-NVM+), step 3 compares retries per *block* instead
  /// of in aggregate, turning epoch-window replays from detected into
  /// located.
  const PerBlockUpdates* per_block_updates = nullptr;
  /// Osiris: filter counter candidates through the plaintext-ECC oracle
  /// (decrypt + SECDED check) before the data-HMAC confirmation — the
  /// MICRO'18 mechanism. Functionally equivalent (the HMAC remains the
  /// authority); changes the cost accounting.
  bool use_ecc_oracle = false;
  /// Worker count for the step-4 full-tree rebuild (1 = inline, 0 = auto).
  /// The rebuilt tree is bit-identical for any value.
  std::size_t jobs = 1;
  /// kBranchPersist: highest tree level persisted per write-back (clamped
  /// to the internal levels; levels above it are rebuilt here).
  std::uint32_t persist_level = 1;
};

class RecoveryManager {
 public:
  explicit RecoveryManager(const RecoveryInputs& in) : in_(in) {}

  RecoveryReport run();

 private:
  struct CounterRecovery {
    std::vector<secure::CounterBlock> blocks;  // recovered, by leaf index
    std::uint64_t retries = 0;
    std::uint64_t advanced = 0;
    std::uint64_t overflow_retries = 0;  // retries on the flagged page
    std::vector<Addr> failed_blocks;
    /// Non-zero retries per data block, in address order (cc-NVM+ step-3
    /// comparison); a block that is absent needed none.
    std::map<Addr, std::uint64_t> per_block_retries;
    std::uint64_t ecc_checks = 0;
  };

  /// One page as the data-HMAC scan sees it: the persisted counter line
  /// and the written blocks (an all-zero stored tag marks a never-written
  /// block in this model), each with its ciphertext and stored data HMAC.
  struct PageScan {
    std::uint64_t leaf = 0;
    secure::CounterBlock persisted;
    std::vector<std::size_t> slots;  // block index within the page
    std::vector<Line> ciphertext;
    std::vector<Tag128> want;
    /// scan_pages: the block verifies under its persisted counter.
    std::vector<bool> match;

    Addr addr(std::size_t slot) const {
      return leaf * kPageSize + slot * kLineSize;
    }
  };

  RecoveryReport run_cc_nvm();
  RecoveryReport run_osiris();
  /// kBranchPersist: rebuild the levels above the persisted frontier,
  /// verify the root and every data HMAC, localize on mismatch.
  RecoveryReport run_level_persisted();

  /// Step 2: brute-force every written block's counter forward against its
  /// data HMAC. The persisted counters (k = 0) go through scan_pages'
  /// bursts; only the blocks they reject search k = 1..N, one candidate at
  /// a time.
  CounterRecovery recover_counters() const;

  /// Step 2 for one page: advances each block the burst rejected by up to
  /// N minor increments; an exhausted search marks the block failed.
  void recover_page(const PageScan& page, CounterRecovery& out) const;

  /// Recovery of a page whose minor-counter overflow re-encryption was
  /// interrupted by the crash (flagged in the TCB).
  void recover_overflow_page(const PageScan& page, CounterRecovery& out) const;

  /// Step 4 / Osiris rebuild: recompute the full tree from `blocks`,
  /// persist counters + internal nodes into the image, return the root.
  Line rebuild_tree(const std::vector<secure::CounterBlock>& blocks,
                    bool persist) const;

  /// Reads page `leaf`'s counter line, DH lines (each once) and written
  /// blocks into `page`.
  void read_page(std::uint64_t leaf, PageScan& page) const;

  /// The data-HMAC scan every recovery mode shares: reads the pages a
  /// window at a time, checks each written block of the window (but not of
  /// page `skip_leaf`) under its persisted counter in one data_hmac_many
  /// burst — in the Osiris mode a candidate must first pass the ECC oracle
  /// — fills page.match, and hands the pages to `visit` in page order.
  /// Returns the ECC checks the bursts performed.
  std::uint64_t scan_pages(std::optional<std::uint64_t> skip_leaf,
                           const std::function<void(const PageScan&)>& visit)
      const;

  /// Osiris's plaintext-ECC screen for one counter candidate (counted in
  /// `ecc_checks`); always true outside the Osiris mode or without ECC.
  bool ecc_admits(const Line& ciphertext, Addr data_addr,
                  const crypto::PadCounter& cand,
                  std::uint64_t& ecc_checks) const;

  /// The kBranchPersist data scan: appends, in address order,
  /// every written block that does not verify under its persisted counter.
  void scan_persisted(std::vector<Addr>& tampered) const;

  RecoveryInputs in_;
};

}  // namespace ccnvm::core
