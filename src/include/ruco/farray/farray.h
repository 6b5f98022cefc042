// Generic f-array (Jayanti, PODC'02 -- reference [14] of Hendler & Khait),
// CAS variant: a wait-free aggregate over an N-slot single-writer array
// with
//   read_aggregate : O(1) steps (one root load), and
//   update         : O(log N) steps (write own slot, double-CAS-merge the
//                    root path).
//
// The aggregate function is a template parameter.  Soundness of the
// LL/SC -> CAS substitution requires *monotonicity*: under the updates the
// program performs, every tree node's value sequence must be
// non-decreasing in some partial order (max: total order; sum of
// non-decreasing slots; componentwise orders...).  Monotonicity is what
// rules out CAS/ABA -- see ruco/farray/wide_propagate.h for the argument
// and DESIGN.md for the ablation.  Non-monotone updates (e.g. writing a
// *smaller* value to a slot under Max) are not linearizable through this
// construction; the tests demonstrate the failure mode.
//
// FArrayCounter is a SumFArray; downstream users reach for the class
// directly (min/max watermarks, monotone bitmask unions).  Algorithm A's
// TreeMaxRegister keeps the paper's binary tree and its own cells
// (ruco/maxreg/tree_max_register.h) but runs the same loop with
// ValueNode<MaxCombine>.
//
// Wide tree.  Slot i is leaf i, and node j of a level aggregates nodes
// 8j .. 8j+7 of the level below, in one line-aligned
// runtime::DenseAtomicArray of 8-byte cells where every level starts on a
// line: the 8 siblings a refresh reads fill one line.  The root, which
// every read loads, goes beside its children when they leave room on their
// line (N < 8, or a last level of fewer than 8 nodes) and on a line of its
// own otherwise; the rule follows from N (farray::wide_levels).  An
// update at N = 64 is the leaf store plus 2 levels of (node load, 8 child
// loads, CAS): 21 steps, 3 lines and 2 CASes.  The loop and its seq_cst
// store-load argument are farray::propagate_wide.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/farray/wide_propagate.h"
#include "ruco/runtime/memorder.h"
#include "ruco/runtime/padded.h"
#include "ruco/runtime/stepcount.h"

namespace ruco::farray {

struct MaxCombine {
  Value operator()(Value l, Value r) const noexcept {
    return l > r ? l : r;
  }
};
struct MinCombine {
  Value operator()(Value l, Value r) const noexcept {
    return l < r ? l : r;
  }
};
struct SumCombine {
  Value operator()(Value l, Value r) const noexcept { return l + r; }
};
struct OrCombine {  // monotone bitmask union
  Value operator()(Value l, Value r) const noexcept { return l | r; }
};

/// propagate_wide's node operations for Value cells: fold `combine` over
/// the children, skip a CAS that would not change the node, nothing to
/// dispose of.
template <typename Combine>
struct ValueNode {
  static constexpr bool kSkipUnchanged = true;
  [[no_unique_address]] Combine combine;

  Value merge(const Value* children, std::uint32_t count) const {
    Value v = children[0];
    for (std::uint32_t c = 1; c < count; ++c) v = combine(v, children[c]);
    return v;
  }
  void installed(Value /*replaced*/) const noexcept {}
  void discarded(Value /*merged*/) const noexcept {}
};

template <typename Combine>
class FArray {
 public:
  /// N >= 1 slots, all initialized to `identity` (which must satisfy
  /// combine(identity, x) == x).
  FArray(std::uint32_t num_slots, Value identity, Combine combine = {})
      : levels_{wide_levels(num_slots)},
        root_{levels_.back().offset},
        cells_(wide_cell_count(levels_), identity),
        node_{combine} {}

  /// Sets slot `slot` (single writer per slot) and refreshes the path.
  /// O(log N) steps.
  void update(ProcId slot, Value v) {
    runtime::step_tick();
    // seq_cst, with the loop's node and child loads and success CAS
    // (wide_propagate.h); as a release it also publishes v to every
    // refresher's child load.
    cells_[slot].store(v, std::memory_order_seq_cst);
    propagate_wide(WideWalk{levels_, slot}, cells_, node_);
  }

  /// The aggregate over all slots.  One step.
  [[nodiscard]] Value read_aggregate(ProcId /*proc*/) const {
    runtime::step_tick();
    return cells_[root_].load(runtime::mo_acquire);
  }

  /// Direct read of one slot.  One step.
  [[nodiscard]] Value read_slot(ProcId /*proc*/, std::uint32_t slot) const {
    runtime::step_tick();
    return cells_[slot].load(runtime::mo_acquire);
  }

  /// Slot `slot` as its single writer last set it.  Only that writer may
  /// call this: it reads back its own store, which is local knowledge, so
  /// it is a relaxed load and not a shared-memory step.
  [[nodiscard]] Value own_slot(ProcId slot) const {
    return cells_[slot].load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint32_t num_slots() const noexcept {
    return levels_.front().count;
  }
  /// The levels, leaves first (farray::wide_levels).
  [[nodiscard]] const std::vector<Level>& levels() const noexcept {
    return levels_;
  }
  /// The node cells; slot i is cell i.
  [[nodiscard]] const runtime::DenseAtomicArray<Value>& cells() const noexcept {
    return cells_;
  }

 private:
  std::vector<Level> levels_;
  std::uint32_t root_;  // levels_.back().offset
  runtime::DenseAtomicArray<Value> cells_;
  ValueNode<Combine> node_;
};

/// Max over slots: slot updates must be non-decreasing.
using MaxFArray = FArray<MaxCombine>;
/// Min over slots: slot updates must be non-increasing (identity = +inf).
using MinFArray = FArray<MinCombine>;
/// Sum over slots: slot updates must be non-decreasing.
using SumFArray = FArray<SumCombine>;
/// Bitwise-or over slots: slot updates may only add bits.
using OrFArray = FArray<OrCombine>;

}  // namespace ruco::farray
