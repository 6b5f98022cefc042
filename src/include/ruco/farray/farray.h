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
// rules out CAS/ABA -- see ruco/maxreg/propagate.h for the argument and
// DESIGN.md for the ablation.  Non-monotone updates (e.g. writing a
// *smaller* value to a slot under Max) are not linearizable through this
// construction; the tests demonstrate the failure mode.
//
// This class owns every Value-typed tree of the library: FArrayCounter is a
// SumFArray, and Algorithm A's TreeMaxRegister is a MaxFArray over
// util::algorithm_a_shape.  FArraySnapshot is a separate 8-ary tree of
// view pointers with its own seq_cst propagation loop
// (ruco/snapshot/farray_snapshot.h) and shares no code with this class.
// Downstream users reach for it directly (min/max watermarks, monotone
// bitmask unions).
//
// Cell layout: the nodes are plain 8-byte atomics packed eight to a line in
// one line-aligned allocation (runtime::DenseAtomicArray), indexed by the
// shape's post-order NodeId, so a propagation level reads one or two lines
// instead of three.  ruco/runtime/padded.h gives the reasoning.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "ruco/core/types.h"
#include "ruco/maxreg/propagate.h"
#include "ruco/runtime/memorder.h"
#include "ruco/runtime/padded.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/util/tree_shape.h"

namespace ruco::farray {

template <typename Combine>
class FArray {
 public:
  /// N slots over a left-complete tree, all initialized to `identity`
  /// (which must satisfy combine(identity, x) == x).
  FArray(std::uint32_t num_slots, Value identity, Combine combine = {})
      : FArray{util::complete_shape(num_slots), identity, combine} {}

  /// One slot per leaf of `shape` (slot i is leaf ordinal i), every node
  /// initialized to `identity`.  An update costs O(depth of its leaf).
  FArray(util::TreeShape shape, Value identity, Combine combine = {})
      : combine_{combine},
        shape_{std::move(shape)},
        values_(shape_.node_count(), identity) {}

  /// Sets slot `slot` (single writer per slot) and refreshes the path.
  /// O(depth of the slot's leaf) steps: O(log N) on the complete tree.
  void update(ProcId slot, Value v) {
    const auto leaf = shape_.leaf(slot);
    runtime::step_tick();
    // Release pairs with the acquire child loads in propagate_twice (ours
    // and every concurrent refresher's).
    values_[leaf].store(v, runtime::mo_release);
    maxreg::propagate_twice(shape_, values_, leaf, combine_);
  }

  /// Refreshes the path above slot `slot` without writing it: makes the
  /// aggregate cover whatever the slot holds.  Used by writers that find
  /// their slot already written by someone else.
  void refresh(ProcId slot) {
    maxreg::propagate_twice(shape_, values_, shape_.leaf(slot), combine_);
  }

  /// The aggregate over all slots.  One step.
  [[nodiscard]] Value read_aggregate(ProcId /*proc*/) const {
    runtime::step_tick();
    return values_[shape_.root()].load(runtime::mo_acquire);
  }

  /// Direct read of one slot.  One step.
  [[nodiscard]] Value read_slot(ProcId /*proc*/, std::uint32_t slot) const {
    runtime::step_tick();
    return values_[shape_.leaf(slot)].load(runtime::mo_acquire);
  }

  /// Slot `slot` as its single writer last set it.  Only that writer may
  /// call this: it reads back its own store, which is local knowledge, so
  /// it is a relaxed load and not a shared-memory step.
  [[nodiscard]] Value own_slot(ProcId slot) const {
    return values_[shape_.leaf(slot)].load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint32_t num_slots() const noexcept {
    return static_cast<std::uint32_t>(shape_.leaf_count());
  }
  [[nodiscard]] const util::TreeShape& shape() const noexcept {
    return shape_;
  }
  /// The node cells, indexed by the shape's NodeId.
  [[nodiscard]] const runtime::DenseAtomicArray<Value>& cells() const noexcept {
    return values_;
  }

 private:
  Combine combine_;
  util::TreeShape shape_;
  runtime::DenseAtomicArray<Value> values_;
};

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

/// Max over slots: slot updates must be non-decreasing.
using MaxFArray = FArray<MaxCombine>;
/// Min over slots: slot updates must be non-increasing (identity = +inf).
using MinFArray = FArray<MinCombine>;
/// Sum over slots: slot updates must be non-decreasing.
using SumFArray = FArray<SumCombine>;
/// Bitwise-or over slots: slot updates may only add bits.
using OrFArray = FArray<OrCombine>;

}  // namespace ruco::farray
