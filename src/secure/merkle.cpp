#include "secure/merkle.h"

#include <algorithm>
#include <cstring>

#include "common/thread_pool.h"

namespace ccnvm::secure {

Tag128 MerkleEngine::node_tag(const Line& contents) const {
  return mac_.tag(contents);
}

Line MerkleEngine::compute_node(const NodeId& id,
                                const NodeReader& read_child) const {
  CCNVM_CHECK_MSG(id.level >= 1, "leaves are counter lines, not computed");
  Line node{};
  for (std::uint64_t slot = 0; slot < NvmLayout::kArity; ++slot) {
    const NodeId child = layout_->child(id, slot);
    const Line contents = node_exists(child) ? read_child(child) : zero_line();
    const Tag128 tag = node_tag(contents);
    std::memcpy(node.data() + slot * sizeof(Tag128), tag.bytes.data(),
                sizeof(Tag128));
  }
  return node;
}

void MerkleEngine::compute_nodes(std::span<const NodeId> ids,
                                 const NodeReader& read_child,
                                 std::span<Line> out) const {
  CCNVM_CHECK_MSG(ids.size() == out.size(),
                  "compute_nodes: ids/out span sizes must match");
  // Bounded scratch: 64 nodes * kArity children = 256 lines (16 KiB) per
  // round, enough to keep 8-wide lanes saturated without scaling memory
  // with the level size.
  constexpr std::size_t kChunkNodes = 64;
  std::vector<Line> contents;
  std::vector<crypto::LineRef> refs;
  std::vector<Tag128> tags;
  for (std::size_t base = 0; base < ids.size(); base += kChunkNodes) {
    const std::size_t n = std::min(kChunkNodes, ids.size() - base);
    contents.resize(n * NvmLayout::kArity);
    refs.resize(n * NvmLayout::kArity);
    tags.resize(n * NvmLayout::kArity);
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId& id = ids[base + i];
      CCNVM_CHECK_MSG(id.level >= 1, "leaves are counter lines, not computed");
      for (std::uint64_t slot = 0; slot < NvmLayout::kArity; ++slot) {
        const NodeId child = layout_->child(id, slot);
        contents[k] =
            node_exists(child) ? read_child(child) : zero_line();
        refs[k] = {contents[k].data(), contents[k].size()};
        ++k;
      }
    }
    mac_.tag_many(refs, tags);
    k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Line node{};
      for (std::uint64_t slot = 0; slot < NvmLayout::kArity; ++slot) {
        std::memcpy(node.data() + slot * sizeof(Tag128), tags[k].bytes.data(),
                    sizeof(Tag128));
        ++k;
      }
      out[base + i] = node;
    }
  }
}

Line MerkleEngine::build_full_tree(const NodeReader& read,
                                   const NodeWriter& write, std::size_t jobs,
                                   std::uint32_t start_level) const {
  CCNVM_CHECK_MSG(start_level < layout_->root_level(),
                  "build_full_tree: start level must lie below the root");
  // One flat vector per level: node {level, i} lives at prev[i] while the
  // next level up is computed, so each node is derived exactly once and
  // the nodes of a level — which only read the level below — can be
  // computed concurrently. `write` stays on the calling thread, issued in
  // index order after the level completes, so the writer sees the same
  // sequence for every `jobs` value.
  std::vector<Line> prev;
  for (std::uint32_t level = start_level + 1; level <= layout_->root_level();
       ++level) {
    const std::uint64_t count = layout_->nodes_at_level(level);
    const NodeReader reader = [&](const NodeId& id) -> Line {
      if (id.level == start_level) return read(id);
      CCNVM_CHECK_MSG(id.level == level - 1, "bottom-up order violated");
      return prev[id.index];
    };
    // Each worker owns a contiguous chunk of the level and batches its
    // nodes' child tags through tag_many (compute_nodes); results land by
    // index, so the output stays bit-identical for any `jobs` value.
    constexpr std::uint64_t kChunkNodes = 64;
    const std::size_t chunks =
        static_cast<std::size_t>((count + kChunkNodes - 1) / kChunkNodes);
    std::vector<Line> cur(count);
    parallel_for(chunks, jobs, [&](std::size_t c) {
      const std::uint64_t begin = static_cast<std::uint64_t>(c) * kChunkNodes;
      const std::uint64_t end = std::min(begin + kChunkNodes, count);
      std::vector<NodeId> ids;
      ids.reserve(end - begin);
      for (std::uint64_t i = begin; i < end; ++i) ids.push_back({level, i});
      compute_nodes(ids, reader,
                    {cur.data() + begin, static_cast<std::size_t>(end - begin)});
    });
    if (level < layout_->root_level()) {
      for (std::uint64_t i = 0; i < count; ++i) write(NodeId{level, i}, cur[i]);
    }
    prev = std::move(cur);
  }
  return prev.front();
}

void MerkleEngine::append_mismatches(const NodeId& id, const Line& stored,
                                     const Line& computed,
                                     std::vector<NodeId>& bad) const {
  // A mismatch at parent P means some child's stored contents are not what
  // P committed to — report the child whose tag slot disagrees, which is
  // the replayed or tampered node.
  for (std::uint64_t slot = 0; slot < NvmLayout::kArity; ++slot) {
    const NodeId child = layout_->child(id, slot);
    const std::size_t off = slot * sizeof(Tag128);
    if (node_exists(child) &&
        std::memcmp(stored.data() + off, computed.data() + off,
                    sizeof(Tag128)) != 0) {
      bad.push_back(child);
    }
  }
}

std::vector<NodeId> MerkleEngine::find_inconsistencies(const NodeReader& read,
                                                       const Line& root) const {
  return find_inconsistencies(read, root, root).bad_old;
}

MerkleEngine::RootPairCheck MerkleEngine::find_inconsistencies(
    const NodeReader& read, const Line& root_old,
    const Line& root_new) const {
  // Every internal node below the root is recomputed from its stored
  // children and compared with its stored value — once, for both roots.
  RootPairCheck out;
  constexpr std::uint64_t kChunkNodes = 64;
  std::vector<NodeId> ids;
  std::vector<Line> computed;
  for (std::uint32_t level = 1; level < layout_->root_level(); ++level) {
    const std::uint64_t count = layout_->nodes_at_level(level);
    for (std::uint64_t begin = 0; begin < count; begin += kChunkNodes) {
      const std::uint64_t end = std::min(begin + kChunkNodes, count);
      ids.clear();
      for (std::uint64_t i = begin; i < end; ++i) ids.push_back({level, i});
      computed.resize(ids.size());
      compute_nodes(ids, read, computed);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        append_mismatches(ids[i], read(ids[i]), computed[i], out.bad_old);
      }
    }
  }
  const NodeId root = root_id();
  Line computed_root;
  compute_nodes({&root, 1}, read, {&computed_root, 1});
  out.bad_new = out.bad_old;
  append_mismatches(root, root_old, computed_root, out.bad_old);
  append_mismatches(root, root_new, computed_root, out.bad_new);
  return out;
}

std::optional<NodeId> MerkleEngine::verify_path(Addr data_addr,
                                                const NodeReader& read,
                                                const Line& root) const {
  const NodeId leaf{0, data_addr / kPageSize};
  NodeId child = leaf;
  while (true) {
    const NodeId par = layout_->parent(child);
    const Line parent_line =
        (par.level == layout_->root_level()) ? root : read(par);
    const Line child_contents = read(child);
    const Tag128 expect = node_tag(child_contents);
    Tag128 stored_tag;
    std::memcpy(stored_tag.bytes.data(),
                parent_line.data() + layout_->slot_in_parent(child) *
                                         sizeof(Tag128),
                sizeof(Tag128));
    if (!(stored_tag == expect)) return child;
    if (par.level == layout_->root_level()) return std::nullopt;
    child = par;
  }
}

}  // namespace ccnvm::secure
