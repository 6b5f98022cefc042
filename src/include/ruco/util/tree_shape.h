// Static binary-tree shapes used by the tree-based objects.
//
// A TreeShape is an immutable arena of nodes with parent/child links and a
// leaf table.  Shapes are built once at object construction; the concurrent
// algorithms then index into flat value arrays using NodeId, so the *same*
// shape code drives both the std::atomic production layer and the
// deterministic simulation layer (guaranteeing identical step counts).
//
// Three shapes are provided:
//   * complete_shape(L)  -- a left-complete binary tree with L leaves, the
//     substrate for Jayanti-style f-arrays and the right subtree TR of
//     Algorithm A (Hendler & Khait, PODC'14, Section 5).
//   * b1_shape(L)        -- the Bentley-Yao B1 unbounded-search tree: leaf v
//     sits at depth O(log v), the left subtree TL of Algorithm A.
//   * algorithm_a_shape(N) -- the composite tree T of Figure 4: a root
//     whose left child is b1_shape(N) (value leaves) and whose right child
//     is complete_shape(N) (per-process leaves).
#pragma once

#include <cstdint>
#include <vector>

namespace ruco::util {

class TreeShape {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kNil = UINT32_MAX;

  TreeShape() = default;

  [[nodiscard]] NodeId root() const noexcept { return root_; }
  [[nodiscard]] NodeId parent(NodeId n) const { return nodes_[n].parent; }
  [[nodiscard]] NodeId left(NodeId n) const { return nodes_[n].left; }
  [[nodiscard]] NodeId right(NodeId n) const { return nodes_[n].right; }
  [[nodiscard]] bool is_leaf(NodeId n) const {
    return nodes_[n].left == kNil && nodes_[n].right == kNil;
  }
  /// For leaf nodes: the leaf ordinal (0-based); kNil for internal nodes.
  [[nodiscard]] std::uint32_t leaf_index(NodeId n) const {
    return nodes_[n].leaf;
  }
  /// NodeId of the i-th leaf (0-based).
  [[nodiscard]] NodeId leaf(std::uint32_t i) const { return leaves_[i]; }
  [[nodiscard]] std::size_t leaf_count() const noexcept {
    return leaves_.size();
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  /// Number of edges from n up to the root.
  [[nodiscard]] std::uint32_t depth(NodeId n) const;
  /// The sibling of n, or kNil for the root.
  [[nodiscard]] NodeId sibling(NodeId n) const;

 private:
  friend TreeShape complete_shape(std::uint32_t leaves);
  friend TreeShape b1_shape(std::uint32_t leaves);
  friend TreeShape algorithm_a_shape(std::uint32_t num_processes);

  struct Node {
    NodeId parent = kNil;
    NodeId left = kNil;
    NodeId right = kNil;
    std::uint32_t leaf = kNil;  // leaf ordinal, kNil for internal nodes
  };

  NodeId add_leaf(std::uint32_t leaf_ordinal);
  NodeId add_internal(NodeId left_child, NodeId right_child);
  /// Left-complete tree over leaf ordinals [first, first+count).
  NodeId build_complete(std::uint32_t first, std::uint32_t count);
  /// Bentley-Yao B1 tree over leaf ordinals [0, count).
  NodeId build_b1(std::uint32_t count);
  void set_root(NodeId r) { root_ = r; }

  std::vector<Node> nodes_;
  std::vector<NodeId> leaves_;
  NodeId root_ = kNil;
};

/// A left-complete binary tree with `leaves` >= 1 leaves; leaf i at depth
/// <= ceil(log2(leaves)).
[[nodiscard]] TreeShape complete_shape(std::uint32_t leaves);

/// The Bentley-Yao B1 tree with `leaves` >= 1 leaves; leaf v at depth
/// <= 2*floor(log2(v+1)) + 2 = O(log v).  Small ordinals are near the root,
/// which is what makes Algorithm A's WriteMax(v) cost O(log v) for v < N.
[[nodiscard]] TreeShape b1_shape(std::uint32_t leaves);

/// The composite tree of Hendler & Khait Figure 4 for N >= 1 processes:
/// root(left = B1 over leaf ordinals [0, N), the value leaves; right =
/// complete over [N, 2N), the process leaves).  ReadMax reads the root
/// only; WriteMax starts at algorithm_a_leaf.
[[nodiscard]] TreeShape algorithm_a_shape(std::uint32_t num_processes);

/// The leaf ordinal of algorithm_a_shape(N) that WriteMax(v) by process
/// `proc` starts from: value leaf v when v < N, else process leaf N + proc.
[[nodiscard]] constexpr std::uint32_t algorithm_a_leaf(
    std::uint32_t num_processes, std::uint32_t proc, std::int64_t v) noexcept {
  return v < num_processes ? static_cast<std::uint32_t>(v)
                           : num_processes + proc;
}

}  // namespace ruco::util
