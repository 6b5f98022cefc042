#include "ruco/util/tree_shape.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "ruco/util/bits.h"

namespace ruco::util {

std::uint32_t TreeShape::depth(NodeId n) const {
  std::uint32_t d = 0;
  while (nodes_[n].parent != kNil) {
    n = nodes_[n].parent;
    ++d;
  }
  return d;
}

TreeShape::NodeId TreeShape::sibling(NodeId n) const {
  const NodeId p = nodes_[n].parent;
  if (p == kNil) return kNil;
  return nodes_[p].left == n ? nodes_[p].right : nodes_[p].left;
}

TreeShape::NodeId TreeShape::add_leaf(std::uint32_t leaf_ordinal) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node node;
  node.leaf = leaf_ordinal;
  nodes_.push_back(node);
  if (leaf_ordinal >= leaves_.size()) leaves_.resize(leaf_ordinal + 1, kNil);
  leaves_[leaf_ordinal] = id;
  return id;
}

TreeShape::NodeId TreeShape::add_internal(NodeId left_child,
                                          NodeId right_child) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node node;
  node.left = left_child;
  node.right = right_child;
  nodes_.push_back(node);
  nodes_[left_child].parent = id;
  nodes_[right_child].parent = id;
  return id;
}

TreeShape::NodeId TreeShape::build_complete(std::uint32_t first,
                                            std::uint32_t count) {
  assert(count >= 1);
  if (count == 1) return add_leaf(first);
  // Left-complete split: the left subtree takes the largest power of two
  // strictly less than count, so every leaf depth is <= ceil(log2(count)).
  const std::uint32_t half =
      static_cast<std::uint32_t>(next_pow2(count) / 2);
  const std::uint32_t left_count = (half == count) ? count / 2 : half;
  const NodeId l = build_complete(first, left_count);
  const NodeId r = build_complete(first + left_count, count - left_count);
  return add_internal(l, r);
}

TreeShape::NodeId TreeShape::build_b1(std::uint32_t count) {
  assert(count >= 1);
  // Group g holds leaf ordinals [2^g - 1, min(2^{g+1} - 1, count)).  Each
  // group is a complete subtree; groups hang off a right-descending spine so
  // leaf v's depth is (its group index) + (depth inside the group subtree)
  // + 1 = O(log v).
  struct Group {
    std::uint32_t first;
    std::uint32_t size;
  };
  std::vector<Group> groups;
  for (std::uint32_t g = 0;; ++g) {
    const std::uint64_t lo = (std::uint64_t{1} << g) - 1;
    if (lo >= count) break;
    const std::uint64_t hi =
        std::min<std::uint64_t>((std::uint64_t{1} << (g + 1)) - 1, count);
    groups.push_back({static_cast<std::uint32_t>(lo),
                      static_cast<std::uint32_t>(hi - lo)});
  }
  NodeId chain = build_complete(groups.back().first, groups.back().size);
  for (std::size_t g = groups.size() - 1; g-- > 0;) {
    const NodeId sub = build_complete(groups[g].first, groups[g].size);
    chain = add_internal(sub, chain);
  }
  return chain;
}

TreeShape complete_shape(std::uint32_t leaves) {
  if (leaves == 0) throw std::invalid_argument{"complete_shape: 0 leaves"};
  TreeShape shape;
  shape.set_root(shape.build_complete(0, leaves));
  return shape;
}

TreeShape b1_shape(std::uint32_t leaves) {
  if (leaves == 0) throw std::invalid_argument{"b1_shape: 0 leaves"};
  TreeShape shape;
  shape.set_root(shape.build_b1(leaves));
  return shape;
}

TreeShape algorithm_a_shape(std::uint32_t num_processes) {
  if (num_processes == 0) {
    throw std::invalid_argument{"algorithm_a_shape: 0 processes"};
  }
  // Both subtrees share one arena: TL leaves get ordinals [0, N) (value
  // leaves) and TR leaves get ordinals [N, 2N) (process leaves).
  TreeShape shape;
  const TreeShape::NodeId tl = shape.build_b1(num_processes);
  const TreeShape::NodeId tr =
      shape.build_complete(num_processes, num_processes);
  shape.set_root(shape.add_internal(tl, tr));
  return shape;
}

}  // namespace ruco::util
