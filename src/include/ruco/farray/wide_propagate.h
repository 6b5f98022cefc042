// The wide propagation loop shared by every f-array whose nodes aggregate up
// to eight children: farray::FArray (the f-array counter and the
// Sum/Max/Min/Or arrays) over Value cells, and snapshot::FArraySnapshot
// over view pointers.  It is Hendler & Khait's Algorithm A lines 3-9
// (Jayanti's Tree Algorithm adapted from LL/SC to CAS) with fan-out
// kFanOut instead of 2.  Algorithm A's own binary tree keeps the binary
// loop, maxreg::propagate_twice.
//
// Wide tree.  The f-array meets Theorem 1's Omega(log N) update bound with
// any constant fan-out k at about (k + 2) log_k N steps, so the constant
// is a layout choice.  With k = 8, leaf i is slot i and node j of level L
// aggregates nodes 8j .. 8j+7 of level L - 1.  The cells live in one
// runtime::DenseAtomicArray of 8-byte atomics, and every level starts on a
// line boundary, so the 8 siblings a refresh reads fill one 64-B line.  A
// level costs one node load, one load per child, a merge and a CAS: about
// three serialized cache round trips, and at N = 64 an update pays 2
// levels of them instead of a binary tree's 6.  wide_levels() gives the
// layout and its root rule; DESIGN.md "Wide f-array" has the measurements.
//
// Conditional double refresh.  At every level the loop runs up to two
// rounds of (load the node, load the children, merge, CAS).  A won CAS
// installed a merge of child loads made after our leaf store, so the node
// covers us and the level ends.  If the first CAS loses, a concurrent CAS
// succeeded and a second round follows; if that also loses, the winner
// read the children after our first attempt and covers us (Algorithm A's
// Lemma 9 argument).  Node values must be monotone under the merge, which
// is what rules out ABA for the CAS.  Value cells also skip the CAS when
// the merge equals the node value: the node held the covering value at our
// load and stays covering.  View pointers never take that skip, because a
// fresh merge never equals the node's pointer.
//
// Memory orders.  The leaf store (the caller's), the node load, the child
// loads and the success CAS are seq_cst; a failed CAS's reload is never
// used, so it stays relaxed.  Acquire/release is not enough once a node
// can be refreshed by a writer that is not the one whose leaf changed --
// three leaf owners under one node, or one owner that updates twice.
// Owner A's release leaf store can still sit in A's store buffer while A
// loads the node X, reads its children and loses its CAS to a refresher
// B; a third refresher C -- another leaf's owner, or B refreshing again
// for its next update -- can then load X after B's install, so after A's
// first-round load, and still read A's leaf from before the store, and
// C's install beats A's second round.  X ends without A's update,
// although A returned.  Making the four sites seq_cst puts them in one
// total order, in which C's child loads follow A's store.  Under RC11
// (src/wmm's propagate-wide, propagate-wide/skip and
// propagate-counter/repeat kernels) weakening any one of the four alone
// loses an update; so does a seq_cst fence after a release leaf store with
// the other sites acquire/release.  On x86 only the leaf store changes
// instruction (to xchg, about 12 ns on an uncontended update; DESIGN.md
// "Wide f-array"); AArch64's LDAR/STLR are already sequentially
// consistent.  The orders are literal, not runtime::mo_*: they are
// already the strongest, so every build runs the same protocol.
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

/// Refreshes every level above leaf `leaf` (its index in level 0).
///
/// `node` supplies what differs between cell types:
///   T merge(const T* children, std::uint32_t count)  -- the new aggregate;
///   static constexpr bool kSkipUnchanged  -- skip the CAS when the merge
///       equals the node value (Value cells), or always CAS (views);
///   void installed(T replaced)  -- our CAS removed `replaced` from its node;
///   void discarded(T merged)  -- our CAS lost and `merged` was never
///       published.
template <typename T, typename Node>
void propagate_wide(std::span<const Level> levels,
                    runtime::DenseAtomicArray<T>& cells, std::uint32_t leaf,
                    Node& node) {
  constexpr std::memory_order kSc = std::memory_order_seq_cst;
  std::array<T, kFanOut> children{};
  // Batched telemetry: tally in locals, publish once per propagation.
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  std::uint64_t second_rounds = 0;
  std::uint64_t skipped = 0;
  std::uint32_t index = leaf;
  for (std::size_t l = 1; l < levels.size(); ++l) {
    const Level& below = levels[l - 1];
    index /= kFanOut;
    const std::uint32_t first = index * kFanOut;
    const std::uint32_t count = std::min(kFanOut, below.count - first);
    std::atomic<T>& cell = cells[levels[l].offset + index];
    for (int round = 0; round < 2; ++round) {
      runtime::step_tick();
      T old_value = cell.load(kSc);
      for (std::uint32_t c = 0; c < count; ++c) {
        runtime::step_tick();
        children[c] = cells[below.offset + first + c].load(kSc);
      }
      const T merged = node.merge(children.data(), count);
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
  if (levels.size() > 1) {
    const telemetry::ProdMetrics& tm = telemetry::prod();
    tm.propagate_levels.add(levels.size() - 1);
    tm.propagate_cas_attempts.add(attempts);
    if (failures != 0) tm.propagate_cas_failures.add(failures);
    if (second_rounds != 0) tm.propagate_second_rounds.add(second_rounds);
    if (skipped != 0) tm.propagate_cas_skips.add(skipped);
  }
}

}  // namespace ruco::farray
