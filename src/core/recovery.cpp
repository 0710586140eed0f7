#include "core/recovery.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "secure/counter_block.h"
#include "secure/ecc.h"

namespace ccnvm::core {

using nvm::NodeId;
using secure::CounterBlock;

namespace {

bool tag_is_zero(const Tag128& t) {
  return std::all_of(t.bytes.begin(), t.bytes.end(),
                     [](std::uint8_t b) { return b == 0; });
}

// Model work of reconstructing every tree level above `frontier`: one
// node-tag HMAC per child consumed, one image write per internal node
// recomputed. frontier == 0 is the full rebuild from the counter leaves.
std::uint64_t rebuild_hash_ops_above(const nvm::NvmLayout& layout,
                                     std::uint32_t frontier) {
  std::uint64_t ops = 0;
  for (std::uint32_t level = frontier + 1; level <= layout.root_level();
       ++level) {
    ops += layout.nodes_at_level(level - 1);
  }
  return ops;
}

std::uint64_t tree_nodes_above(const nvm::NvmLayout& layout,
                               std::uint32_t frontier) {
  std::uint64_t nodes = 0;
  for (std::uint32_t level = frontier + 1; level < layout.root_level();
       ++level) {
    nodes += layout.nodes_at_level(level);
  }
  return nodes;
}

}  // namespace

void RecoveryManager::read_page(std::uint64_t leaf, PageScan& page) const {
  const nvm::NvmLayout& layout = *in_.layout;
  page.leaf = leaf;
  page.persisted = CounterBlock::unpack(
      in_.image->read_line(layout.data_capacity() + leaf * kLineSize));
  page.slots.clear();
  page.ciphertext.clear();
  page.want.clear();
  // One DH line holds the tags of kTagsPerLine consecutive blocks; it is
  // read once for all of them.
  constexpr std::size_t kTagsPerLine = kLineSize / sizeof(Tag128);
  for (std::size_t first = 0; first < kBlocksPerPage; first += kTagsPerLine) {
    const Addr dh_addr = layout.dh_line_addr(page.addr(first));
    if (!in_.image->has_line(dh_addr)) continue;
    const Line dh_line = in_.image->read_line(dh_addr);
    for (std::size_t b = first; b < first + kTagsPerLine; ++b) {
      const Tag128 tag = secure::dh_tag_in_line(
          dh_line, layout.dh_offset_in_line(page.addr(b)));
      if (tag_is_zero(tag)) continue;
      page.slots.push_back(b);
      page.ciphertext.push_back(in_.image->read_line(page.addr(b)));
      page.want.push_back(tag);
    }
  }
}

bool RecoveryManager::ecc_admits(const Line& ciphertext, Addr data_addr,
                                 const crypto::PadCounter& cand,
                                 std::uint64_t& ecc_checks) const {
  if (!in_.use_ecc_oracle || !in_.image->has_ecc(data_addr)) return true;
  // Osiris: cheap plaintext-ECC filter before the HMAC authority.
  ++ecc_checks;
  const Line guess = in_.cme->crypt(ciphertext, data_addr, cand);
  secure::EccBits stored;
  stored.bytes = in_.image->read_ecc(data_addr);
  return secure::line_matches_ecc(guess, stored);
}

std::uint64_t RecoveryManager::scan_pages(
    std::optional<std::uint64_t> skip_leaf,
    const std::function<void(const PageScan&)>& visit) const {
  // A single page often leaves SIMD lanes idle, so pages are read
  // kScanPages at a time and share one burst; they are still visited one
  // by one in page order.
  constexpr std::uint64_t kScanPages = 16;
  const std::uint64_t pages = in_.layout->num_pages();
  std::vector<PageScan> window(std::min(kScanPages, pages));
  std::vector<secure::DataHmacReq> reqs;
  std::vector<std::pair<PageScan*, std::size_t>> which;
  std::vector<Tag128> tags;
  std::uint64_t ecc_checks = 0;
  for (std::uint64_t first = 0; first < pages; first += window.size()) {
    const std::span<PageScan> batch(
        window.data(), std::min<std::uint64_t>(window.size(), pages - first));
    reqs.clear();
    which.clear();
    for (std::size_t p = 0; p < batch.size(); ++p) {
      PageScan& page = batch[p];
      read_page(first + p, page);
      page.match.assign(page.slots.size(), false);
      if (page.leaf == skip_leaf) continue;
      for (std::size_t i = 0; i < page.slots.size(); ++i) {
        const Addr data_addr = page.addr(page.slots[i]);
        const crypto::PadCounter cand =
            page.persisted.pad_counter(page.slots[i]);
        if (!ecc_admits(page.ciphertext[i], data_addr, cand, ecc_checks)) {
          continue;
        }
        reqs.push_back({&page.ciphertext[i], data_addr, cand});
        which.emplace_back(&page, i);
      }
    }
    tags.resize(reqs.size());
    in_.cme->data_hmac_many(reqs, tags);
    for (std::size_t j = 0; j < which.size(); ++j) {
      const auto [page, i] = which[j];
      page->match[i] = tags[j] == page->want[i];
    }
    for (const PageScan& page : batch) visit(page);
  }
  return ecc_checks;
}

void RecoveryManager::scan_persisted(std::vector<Addr>& tampered) const {
  (void)scan_pages(std::nullopt, [&](const PageScan& page) {
    for (std::size_t i = 0; i < page.slots.size(); ++i) {
      if (!page.match[i]) tampered.push_back(page.addr(page.slots[i]));
    }
  });
}

RecoveryReport RecoveryManager::run() {
  switch (in_.mode) {
    case RecoveryMode::kNone: {
      RecoveryReport report;
      report.unrecoverable = true;
      report.detail =
          "w/o CC keeps the Merkle root in a volatile register; after power "
          "loss nothing in NVM can be authenticated";
      return report;
    }
    case RecoveryMode::kOsiris:
      return run_osiris();
    case RecoveryMode::kCcNvm:
      return run_cc_nvm();
    case RecoveryMode::kBranchPersist:
      return run_level_persisted();
  }
  CCNVM_CHECK_MSG(false, "unknown recovery mode");
  return {};
}

RecoveryManager::CounterRecovery RecoveryManager::recover_counters() const {
  CounterRecovery out;
  out.blocks.resize(in_.layout->num_pages());
  const std::optional<std::uint64_t> overflow_leaf =
      in_.tcb.overflow_pending ? std::optional(in_.tcb.overflow_leaf)
                               : std::nullopt;
  const std::uint64_t screened =
      scan_pages(overflow_leaf, [&](const PageScan& page) {
        if (page.leaf == overflow_leaf) {
          recover_overflow_page(page, out);
        } else {
          recover_page(page, out);
        }
      });
  out.ecc_checks += screened;
  return out;
}

void RecoveryManager::recover_page(const PageScan& page,
                                   CounterRecovery& out) const {
  // The scan's burst already tried every block's persisted counter (k = 0);
  // only the blocks it rejected search forward.
  CounterBlock cb = page.persisted;
  for (std::size_t i = 0; i < page.slots.size(); ++i) {
    if (page.match[i]) continue;
    const std::size_t b = page.slots[i];
    const Addr data_addr = page.addr(b);
    // Candidate counters in increment order, up to N steps past the
    // persisted minor (N bounds per-line staleness via the update-limit
    // drain trigger).
    bool found = false;
    for (std::uint64_t k = 1; k <= in_.update_limit; ++k) {
      const std::uint64_t minor = cb.minors[b] + k;
      if (minor > CounterBlock::kMinorMax) break;
      const crypto::PadCounter cand{cb.major, minor};
      if (!ecc_admits(page.ciphertext[i], data_addr, cand, out.ecc_checks)) {
        continue;
      }
      if (in_.cme->data_hmac(page.ciphertext[i], data_addr, cand) ==
          page.want[i]) {
        cb.minors[b] = static_cast<std::uint8_t>(minor);
        out.retries += k;
        out.per_block_retries.emplace(data_addr, k);
        ++out.advanced;
        found = true;
        break;
      }
    }
    if (!found) out.failed_blocks.push_back(data_addr);
  }
  out.blocks[page.leaf] = cb;
}

void RecoveryManager::recover_overflow_page(const PageScan& page,
                                            CounterRecovery& out) const {
  // A flagged overflow means the crash hit the page re-encryption window:
  // every block is either already re-encrypted under (major+1, small
  // minor) or still under the old (major, stale minor). Recovery decides
  // per block — the two counter families cannot both match one data HMAC —
  // and then *completes* the re-encryption so the page ends uniformly at
  // major+1, which is the only state a single counter line can describe.
  const nvm::NvmLayout& layout = *in_.layout;
  const CounterBlock& persisted = page.persisted;
  CounterBlock cb;
  cb.major = persisted.major + 1;
  cb.minors.fill(0);

  for (std::size_t i = 0; i < page.slots.size(); ++i) {
    const std::size_t b = page.slots[i];
    const Addr data_addr = page.addr(b);
    const Line& ciphertext = page.ciphertext[i];
    const Tag128& want = page.want[i];

    bool found = false;
    // New family first: (major+1, 0..N).
    for (std::uint64_t m = 0; m <= in_.update_limit && !found; ++m) {
      const crypto::PadCounter cand{persisted.major + 1, m};
      if (in_.cme->data_hmac(ciphertext, data_addr, cand) == want) {
        cb.minors[b] = static_cast<std::uint8_t>(m);
        out.overflow_retries += m;
        out.retries += m;
        found = true;
      }
    }
    // Old family: (major, persisted minor .. +N); complete the
    // re-encryption for blocks the crash left behind.
    for (std::uint64_t k = 0; k <= in_.update_limit && !found; ++k) {
      const std::uint64_t minor = persisted.minors[b] + k;
      if (minor > CounterBlock::kMinorMax) break;
      const crypto::PadCounter old_cand{persisted.major, minor};
      if (in_.cme->data_hmac(ciphertext, data_addr, old_cand) == want) {
        const Line plaintext = in_.cme->crypt(ciphertext, data_addr, old_cand);
        const crypto::PadCounter fresh{persisted.major + 1, 0};
        const Line new_ct = in_.cme->crypt(plaintext, data_addr, fresh);
        in_.image->write_line(data_addr, new_ct);
        Line dh_line = in_.image->read_line(layout.dh_line_addr(data_addr));
        secure::set_dh_tag_in_line(
            dh_line, layout.dh_offset_in_line(data_addr),
            in_.cme->data_hmac(new_ct, data_addr, fresh));
        in_.image->write_line(layout.dh_line_addr(data_addr), dh_line);
        cb.minors[b] = 0;
        out.overflow_retries += k;
        out.retries += k;
        ++out.advanced;
        found = true;
      }
    }
    if (!found) out.failed_blocks.push_back(data_addr);
  }
  out.blocks[page.leaf] = cb;
}

Line RecoveryManager::rebuild_tree(const std::vector<CounterBlock>& blocks,
                                   bool persist) const {
  const nvm::NvmLayout& layout = *in_.layout;
  const auto leaf_reader = [&](const NodeId& id) -> Line {
    CCNVM_CHECK(id.level == 0);
    return blocks[id.index].pack();
  };
  const auto writer = [&](const NodeId& id, const Line& value) {
    if (persist) in_.image->write_line(layout.node_addr(id), value);
  };
  const Line root = in_.merkle->build_full_tree(leaf_reader, writer, in_.jobs);
  if (persist) {
    for (std::uint64_t leaf = 0; leaf < layout.num_pages(); ++leaf) {
      in_.image->write_line(layout.data_capacity() + leaf * kLineSize,
                            blocks[leaf].pack());
    }
  }
  return root;
}

RecoveryReport RecoveryManager::run_osiris() {
  RecoveryReport report;
  const CounterRecovery rec = recover_counters();
  report.total_retries = rec.retries;
  report.counters_recovered = rec.advanced;
  report.ecc_checks = rec.ecc_checks;

  const Line rebuilt_root = rebuild_tree(rec.blocks, /*persist=*/false);
  const bool root_matches = rebuilt_root == in_.tcb.root_new;

  if (!rec.failed_blocks.empty() || !root_matches) {
    // Osiris detects the attack (root mismatch / HMAC exhaustion) but has
    // no second root to localize against: any spoofing or splicing also
    // poisons the reconstructed root, so nothing can be trusted (§3).
    report.attack_detected = true;
    report.attack_located = false;
    report.data_dropped = true;
    report.detail = rec.failed_blocks.empty()
                        ? "rebuilt root mismatches TCB root: replay "
                          "somewhere, all data dropped"
                        : "data HMAC exhaustion during counter recovery; "
                          "root unrecoverable, all data dropped";
    return report;
  }

  (void)rebuild_tree(rec.blocks, /*persist=*/true);
  report.rebuild_hash_ops = rebuild_hash_ops_above(*in_.layout, 0);
  report.tree_nodes_rebuilt = tree_nodes_above(*in_.layout, 0);
  report.metadata_recovered = true;
  report.recovered_root = rebuilt_root;
  report.clean = true;
  report.detail = "counters restored within the update limit";
  return report;
}

RecoveryReport RecoveryManager::run_level_persisted() {
  RecoveryReport report;
  const nvm::NvmLayout& layout = *in_.layout;
  const std::uint32_t root_level = layout.root_level();
  const std::uint32_t frontier = std::min(in_.persist_level, root_level - 1);
  // SC, Phoenix and a Triad-N whose N reaches the top persist every
  // internal level; only lower frontiers leave levels to rebuild.
  const bool whole_tree = frontier == root_level - 1;

  const auto stored = [&](const NodeId& id) -> Line {
    if (id.level == 0) {
      return in_.image->read_line(layout.data_capacity() +
                                  id.index * kLineSize);
    }
    return in_.image->read_line(layout.node_addr(id));
  };

  // ---- Rebuild the levels above the persisted frontier, treating the
  // frontier's stored nodes as the leaf set. At the top frontier only the
  // root recompute (the verification) remains. The frontier is read up
  // front so the rebuild's workers never touch the image.
  std::vector<Line> frontier_lines(layout.nodes_at_level(frontier));
  for (std::uint64_t i = 0; i < frontier_lines.size(); ++i) {
    frontier_lines[i] = stored(NodeId{frontier, i});
  }
  // rebuilt[level] for frontier < level < root_level, written in index
  // order.
  std::vector<std::vector<Line>> rebuilt(root_level);
  const Line computed_root = in_.merkle->build_full_tree(
      [&](const NodeId& id) { return frontier_lines[id.index]; },
      [&](const NodeId& id, const Line& value) {
        rebuilt[id.level].push_back(value);
      },
      in_.jobs, frontier);
  report.rebuild_hash_ops = rebuild_hash_ops_above(layout, frontier);
  const bool root_matches = computed_root == in_.tcb.root_new;

  // ---- Verify the whole tree — stored nodes at and below the frontier,
  // rebuilt nodes standing in above it — against ROOT_new. The rebuild
  // alone cannot vouch for the *stored* levels (it reads only the
  // frontier), so every persisted node is checked against the
  // recomputation from its children, which is also what localizes
  // tampering (§4.4 step 1): a mismatching child is reported directly.
  const auto hybrid = [&](const NodeId& id) -> Line {
    if (id.level <= frontier) return stored(id);
    return rebuilt[id.level][id.index];
  };
  const auto bad = in_.merkle->find_inconsistencies(hybrid, in_.tcb.root_new);

  // ---- Data-HMAC scan against the persisted counters (they are current
  // at every crash point — every frontier persists the counter line on
  // each write-back), catching spoofed/spliced/replayed data, DH and
  // counter lines.
  scan_persisted(report.tampered_blocks);

  if (root_matches && bad.empty() && report.tampered_blocks.empty()) {
    // Persist the rebuilt levels so the NVM image and the reinstalled
    // logical state agree above the frontier too.
    for (std::uint32_t level = frontier + 1; level < root_level; ++level) {
      for (std::uint64_t i = 0; i < rebuilt[level].size(); ++i) {
        in_.image->write_line(layout.node_addr(NodeId{level, i}),
                              rebuilt[level][i]);
      }
    }
    report.tree_nodes_rebuilt = tree_nodes_above(layout, frontier);
    report.metadata_recovered = true;
    report.recovered_root = computed_root;
    report.clean = true;
    report.detail =
        whole_tree
            ? "persisted tree verified against ROOT_new, nothing rebuilt"
            : "triad: persisted frontier verified, upper levels rebuilt";
    return report;
  }

  // ---- Localize: parent/child mismatches pin tampering inside the
  // persisted region; a divergence confined above the frontier only
  // bounds the subtree — the localization limit of the volatile levels.
  for (const NodeId& id : bad) {
    report.replayed_nodes.push_back(id);
    if (id.level == 0) {
      report.tampered_blocks.push_back(id.index * kPageSize);
    }
  }
  report.attack_detected = true;
  report.attack_located =
      !report.tampered_blocks.empty() || !report.replayed_nodes.empty();
  if (report.attack_located) {
    report.detail = whole_tree ? "tampered persisted metadata located"
                               : "triad: tampering located against the "
                                 "persisted frontier";
  } else {
    report.data_dropped = true;
    report.detail = whole_tree ? "ROOT_new diverges from a self-consistent "
                                 "persisted tree; not locatable"
                               : "triad: divergence above the persisted "
                                 "frontier; subtree bounded but not "
                                 "locatable";
  }
  return report;
}

RecoveryReport RecoveryManager::run_cc_nvm() {
  RecoveryReport report;
  const nvm::NvmLayout& layout = *in_.layout;

  // ---- Step 1: locate tree-level replay attacks. ------------------------
  const auto nvm_reader = [&](const NodeId& id) -> Line {
    if (id.level == 0) {
      return in_.image->read_line(layout.data_capacity() +
                                  id.index * kLineSize);
    }
    return in_.image->read_line(layout.node_addr(id));
  };
  const auto [bad_old, bad_new] = in_.merkle->find_inconsistencies(
      nvm_reader, in_.tcb.root_old, in_.tcb.root_new);

  const bool matches_new = bad_new.empty();
  const bool matches_old = bad_old.empty();
  if (!matches_new && !matches_old) {
    // The epoch invariant says the NVM tree always matches one root in the
    // absence of attacks, so any two mismatching parent/child nodes
    // pinpoint replayed (or tampered) metadata.
    report.attack_detected = true;
    report.attack_located = true;
    // Report against the committed root: those are the lines that diverge
    // from the last known-good persisted state.
    for (const NodeId& id : bad_old) {
      report.replayed_nodes.push_back(id);
      if (id.level == 0) {
        report.tampered_blocks.push_back(id.index * kPageSize);
      }
    }
    report.detail = "Merkle tree in NVM matches neither TCB root: replayed "
                    "metadata located";
    return report;
  }

  // ---- Step 2: recover stalled counters, locate spoofing/splicing. ------
  const CounterRecovery rec = recover_counters();
  report.total_retries = rec.retries;
  report.counters_recovered = rec.advanced;
  if (!rec.failed_blocks.empty()) {
    report.attack_detected = true;
    report.attack_located = true;
    report.tampered_blocks = rec.failed_blocks;
    report.detail = "data HMAC exhausted after N retries: spoofed/spliced "
                    "data or DH located";
    return report;
  }

  // ---- Step 3: N_wb vs N_retry — the deferred-spreading replay check. ---
  // If the tree matches ROOT_new while the roots differ, the crash hit the
  // window after the drain's end signal but before the register reset: the
  // committed counters already contain every write-back, so zero retries
  // are expected. Otherwise the persisted counters are N_wb increments
  // behind. A flagged overflow page is excluded (its retries are not
  // 1:1 with write-backs); the overflow flag itself bounds that window.
  const bool committed =
      matches_new && !(matches_old && in_.tcb.root_old == in_.tcb.root_new);
  const std::uint64_t expected = committed ? 0 : in_.tcb.n_wb;

  // cc-NVM+ extension: with per-block update registers, the comparison is
  // block-exact, so an epoch-window replay is *located*, not just
  // detected.
  if (in_.per_block_updates != nullptr) {
    const nvm::NvmLayout& lay = *in_.layout;
    std::vector<Addr> mismatched;
    for (const auto& [cline, counts] : *in_.per_block_updates) {
      const std::uint64_t leaf = lay.counter_line_index(cline);
      if (in_.tcb.overflow_pending && in_.tcb.overflow_leaf == leaf) continue;
      for (std::size_t b = 0; b < kBlocksPerPage; ++b) {
        const Addr da = leaf * kPageSize + b * kLineSize;
        const auto it = rec.per_block_retries.find(da);
        const std::uint64_t actual =
            it == rec.per_block_retries.end() ? 0 : it->second;
        const std::uint64_t want = committed ? 0 : counts[b];
        if (actual != want) mismatched.push_back(da);
      }
    }
    // Retries on a block whose counter line the registers do not track
    // are equally impossible without an attack.
    for (const auto& [da, actual] : rec.per_block_retries) {
      if (actual == 0) continue;
      const Addr cline = lay.counter_line_addr(da);
      if (in_.tcb.overflow_pending &&
          in_.tcb.overflow_leaf == da / kPageSize) {
        continue;
      }
      if (!in_.per_block_updates->contains(cline)) mismatched.push_back(da);
    }
    if (!mismatched.empty()) {
      report.attack_detected = true;
      report.attack_located = true;
      report.potential_replay = true;
      report.tampered_blocks = mismatched;
      report.detail = "per-block update registers: replayed data/DH pair(s) "
                      "located inside the epoch window (cc-NVM+ extension)";
      return report;
    }
  }

  const std::uint64_t comparable = rec.retries - rec.overflow_retries;
  if (in_.per_block_updates == nullptr && !in_.tcb.overflow_pending &&
      comparable != expected) {
    report.attack_detected = true;
    report.attack_located = false;
    report.potential_replay = true;
    report.detail = "N_retry != N_wb: data/DH pair replayed inside the "
                    "deferred-spreading window (detected, not locatable)";
    return report;
  }
  if (in_.tcb.overflow_pending && comparable > expected) {
    report.attack_detected = true;
    report.attack_located = false;
    report.potential_replay = true;
    report.detail = "N_retry exceeds N_wb despite overflow tolerance";
    return report;
  }

  // ---- Step 4: rebuild the tree from the recovered counters. ------------
  report.recovered_root = rebuild_tree(rec.blocks, /*persist=*/true);
  report.rebuild_hash_ops = rebuild_hash_ops_above(layout, 0);
  report.tree_nodes_rebuilt = tree_nodes_above(layout, 0);
  report.metadata_recovered = true;
  report.clean = true;
  report.detail = "counters recovered, Merkle tree rebuilt";
  return report;
}

}  // namespace ccnvm::core
