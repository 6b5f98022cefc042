// The propagation loop of every tree in the repository: Hendler & Khait's
// Algorithm A lines 3-9, Jayanti's Tree Algorithm adapted from LL/SC to
// CAS.  One loop, farray::propagate_wide, serves two trees through a
// walker that yields, for each level above the leaf, the node's cell and
// its children's cells (a Family):
//   * WideWalk, the 8-ary f-arrays: farray::FArray (the f-array counter
//     and the Sum/Max/Min/Or arrays) over Value cells, and
//     snapshot::FArraySnapshot over view pointers;
//   * TreeWalk, Algorithm A's binary tree (maxreg::TreeMaxRegister) over
//     util::TreeShape, with the Value-cell node operations and MaxCombine.
// simalgos::propagate_wide runs the same walkers over simulated memory.
//
// Wide tree.  The f-array meets Theorem 1's Omega(log N) update bound with
// any constant fan-out k at about (k + 2) log_k N steps, so the constant
// is a layout choice.  With k = 8, leaf i is slot i and node j of level L
// aggregates nodes 8j .. 8j+7 of level L - 1 (wide_family).  The cells
// live in one runtime::DenseAtomicArray of 8-byte atomics, and every level
// starts on a line boundary, so the 8 siblings a refresh reads fill one
// 64-B line.  A level costs one node load, one load per child, a merge
// and a CAS: about three serialized cache round trips, and at N = 64 an
// update pays 2 levels of them instead of a binary tree's 6.
// wide_levels() gives the layout and its root rule; DESIGN.md "Wide
// f-array" has the measurements.  Algorithm A keeps its binary tree,
// whose B1 subtree gives WriteMax(v) its O(log v) bound.
//
// Conditional double refresh.  At every level the loop runs up to two
// rounds of (load the node, load the children, merge, CAS).  A won CAS
// installed a merge of child loads made after our leaf store, so the node
// covers us and the level ends.  If the first CAS loses, a concurrent CAS
// succeeded and a second round follows; if that also loses, the winner
// read the children after our first attempt and covers us (Algorithm A's
// Lemma 9 argument).  Node values must be monotone under the merge, which
// is what rules out ABA and makes the LL/SC -> CAS substitution sound.
// Value cells also skip the CAS when the merge equals the node value: the
// node held the covering value at our load and stays covering, so the
// level costs its loads and no CAS.  View pointers never take that skip,
// because a fresh merge never equals the node's pointer.  The
// unconditional two-round loop survives only as the differential oracle
// of the simulation and weak-memory layers (RefreshPolicy::kAlwaysTwice,
// ruco/maxreg/refresh_policy.h).
//
// Memory orders.  The leaf store (the caller's), the node load, the child
// loads and the success CAS are seq_cst; a failed CAS's reload is never
// used (round 2 re-reads everything), so it stays relaxed.  Two arguments
// meet at these sites:
//   * Publication and the pruning decisions.  The no-change skip and the
//     won-CAS stop reason "the node already covers us because whoever
//     installed this value read children at least as new as our update"
//     -- an ordering claim, not just a value claim.  The node load reads
//     from the installing CAS, a release, so the installer's child reads
//     happen-before our child loads, and read-read coherence makes ours no
//     older than the values the installer merged.  A relaxed node load is
//     not sound on non-TSO machines: a fresh node value beside stale child
//     loads lets the skip drop a sibling's contribution or the CAS regress
//     the monotone value.
//   * Store buffering.  Acquire/release is not enough once a node can be
//     refreshed by a writer that is not the one whose leaf changed --
//     three leaf owners under one node, or one owner that updates twice.
//     Owner A's release leaf store can still sit in A's store buffer while
//     A loads the node X, reads its children and loses its CAS to a
//     refresher B; a third refresher C -- another leaf's owner, or B
//     refreshing again for its next update -- can then load X after B's
//     install, so after A's first-round load, and still read A's leaf from
//     before the store, and C's install beats A's second round.  X ends
//     without A's update, although A returned.  Making the four sites
//     seq_cst puts them in one total order, in which C's child loads
//     follow A's store.
// src/wmm pins both: the propagate-counter/{conditional,always-twice}
// kernels (two increments on a binary node; the node load relaxed loses
// one), the binary store-buffering kernels propagate-counter/repeat (one
// writer increments twice) and propagate-max/repeat (Algorithm A's max: A
// writes 1 then 2, B writes 3), and the wide ones propagate-wide and
// propagate-wide/skip (three leaves under one node).  Under RC11
// weakening any one of the four sites alone loses an update; so does a
// seq_cst fence after a release leaf store with the other sites
// acquire/release.  On x86 only the leaf store changes instruction (to
// xchg, about 12 ns on an uncontended update; DESIGN.md "Wide f-array");
// AArch64's LDAR/STLR are already sequentially consistent.  The orders are
// literal, not runtime::mo_*: they are already the strongest, so every
// build runs the same protocol.  Readers of the root stay acquire: they
// decide nothing from it but the value they return.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "ruco/runtime/padded.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/telemetry/metrics.h"
#include "ruco/util/tree_shape.h"

namespace ruco::farray {

/// Children per node: one line of 8-byte cells.
inline constexpr std::uint32_t kFanOut = 8;

/// The nodes of one level: cells [offset, offset + count).  Level 0 holds
/// the leaves, the last level the root.
struct Level {
  std::uint32_t offset;
  std::uint32_t count;
};

/// The levels of a wide tree over `leaves` >= 1 leaves.  Every level
/// starts on a line (its offset is a multiple of kFanOut), except a root
/// whose fewer than kFanOut children leave room for it on their line (N <
/// 8, or a last level of fewer than 8 nodes): it goes right after them.
[[nodiscard]] inline std::vector<Level> wide_levels(std::uint32_t leaves) {
  if (leaves == 0) throw std::invalid_argument{"wide f-array: 0 leaves"};
  std::vector<Level> levels;
  std::uint32_t offset = 0;
  for (std::uint32_t count = leaves;;) {
    levels.push_back(Level{offset, count});
    if (count == 1) return levels;
    if (count < kFanOut) {
      levels.push_back(Level{offset + count, 1});
      return levels;
    }
    const std::uint32_t lines = (count + kFanOut - 1) / kFanOut;
    offset += lines * kFanOut;
    count = lines;
  }
}

/// Cells a tree with `levels` allocates: whole lines, so that no other
/// allocation shares the root's line.
[[nodiscard]] inline std::size_t wide_cell_count(
    std::span<const Level> levels) {
  const std::size_t used = levels.back().offset + levels.back().count;
  return (used + kFanOut - 1) / kFanOut * kFanOut;
}

/// One level of a propagation: node cell `node` and its `count` children,
/// cells first, first + stride, ... in merge order.  The stride is signed:
/// a binary node's right child may have the lower id.
struct Family {
  std::uint32_t node;
  std::uint32_t first;
  std::int32_t stride;
  std::uint32_t count;
};

/// Node j of level l >= 1 of a wide tree and its children 8j .. 8j+7 of
/// level l - 1 (fewer at the end of that level).
[[nodiscard]] inline Family wide_family(std::span<const Level> levels,
                                        std::size_t l, std::uint32_t j) {
  const Level& below = levels[l - 1];
  const std::uint32_t first = j * kFanOut;
  return Family{levels[l].offset + j, below.offset + first, 1,
                std::min(kFanOut, below.count - first)};
}

/// The families above leaf `leaf` of a wide tree, nearest first.
class WideWalk {
 public:
  WideWalk(std::span<const Level> levels, std::uint32_t leaf)
      : levels_{levels}, index_{leaf} {}

  /// Sets `family` to the next level up; false past the root.
  bool next(Family& family) {
    if (++level_ >= levels_.size()) return false;
    index_ /= kFanOut;
    family = wide_family(levels_, level_, index_);
    return true;
  }

 private:
  std::span<const Level> levels_;
  std::size_t level_ = 0;
  std::uint32_t index_;
};

/// The families above node `leaf` of a binary tree whose cell n is node n,
/// nearest first.
/// Children go by id, left then right: build_b1 numbers a spine node's
/// right child before its left.
class TreeWalk {
 public:
  TreeWalk(const util::TreeShape& shape, util::TreeShape::NodeId leaf)
      : shape_{&shape}, node_{leaf} {}

  /// Sets `family` to the next level up; false past the root.
  bool next(Family& family) {
    node_ = shape_->parent(node_);
    if (node_ == util::TreeShape::kNil) return false;
    const util::TreeShape::NodeId left = shape_->left(node_);
    family = Family{node_, left,
                    static_cast<std::int32_t>(shape_->right(node_) - left), 2};
    return true;
  }

 private:
  const util::TreeShape* shape_;
  util::TreeShape::NodeId node_;
};

/// Refreshes every family `walk` yields, from the leaf's parent up to the
/// root.
///
/// `node` supplies what differs between cell types:
///   T merge(const T* children, std::uint32_t count)  -- the new aggregate;
///   static constexpr bool kSkipUnchanged  -- skip the CAS when the merge
///       equals the node value (Value cells), or always CAS (views);
///   void installed(T replaced)  -- our CAS removed `replaced` from its node;
///   void discarded(T merged)  -- our CAS lost and `merged` was never
///       published.
template <typename T, typename Walk, typename Node>
void propagate_wide(Walk walk, runtime::DenseAtomicArray<T>& cells,
                    const Node& node) {
  constexpr std::memory_order kSc = std::memory_order_seq_cst;
  std::array<T, kFanOut> children{};
  // Batched telemetry: tally in locals, publish once per propagation.
  std::uint64_t levels = 0;
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  std::uint64_t second_rounds = 0;
  std::uint64_t skipped = 0;
  for (Family family{}; walk.next(family);) {
    ++levels;
    std::atomic<T>& cell = cells[family.node];
    for (int round = 0; round < 2; ++round) {
      runtime::step_tick();
      T old_value = cell.load(kSc);
      std::uint32_t child = family.first;
      for (std::uint32_t c = 0; c < family.count; ++c) {
        runtime::step_tick();
        children[c] = cells[child].load(kSc);
        child += family.stride;
      }
      const T merged = node.merge(children.data(), family.count);
      if constexpr (Node::kSkipUnchanged) {
        if (merged == old_value) {
          // Pure-load level: the node already holds the covering value.
          ++skipped;
          break;
        }
      }
      runtime::step_tick();
      ++attempts;
      if (cell.compare_exchange_strong(old_value, merged, kSc,
                                       std::memory_order_relaxed)) {
        node.installed(old_value);
        break;  // won: merged from child loads after our leaf store
      }
      node.discarded(merged);
      ++failures;
      if (round == 0) ++second_rounds;
    }
  }
  if (levels != 0) {
    const telemetry::ProdMetrics& tm = telemetry::prod();
    tm.propagate_levels.add(levels);
    tm.propagate_cas_attempts.add(attempts);  // actual CASes, not levels * 2
    if (failures != 0) tm.propagate_cas_failures.add(failures);
    if (second_rounds != 0) tm.propagate_second_rounds.add(second_rounds);
    if (skipped != 0) tm.propagate_cas_skips.add(skipped);
  }
}

}  // namespace ruco::farray
