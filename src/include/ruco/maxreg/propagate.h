// The double-refresh propagation loop of Algorithm A's binary tree
// (maxreg::TreeMaxRegister): Hendler & Khait Algorithm A lines 3-9,
// Jayanti's Tree Algorithm adapted from LL/SC to CAS.  The 8-ary f-arrays
// (farray::FArray, the f-array counter, the f-array snapshot) run the same
// protocol over up to eight children per node in farray::propagate_wide.
//
// At every node on the path from `start` to the root, the caller's combine
// function is evaluated over the two children and CASed into the node.
// Two refresh rounds suffice for linearizability of *monotone* aggregates
// (max, sums of single-writer counters): if our CAS fails, a concurrent
// CAS succeeded, and its combine input was read after our child update; if
// the second also fails, the interfering CAS read the children after our
// first attempt, hence already covers our update (the paper's Lemma 9 /
// Invariant 1 argument).  Monotonicity is what rules out ABA, which is why
// the LL/SC -> CAS substitution is sound here.
//
// Conditional refresh.  The argument above makes the second round
// *conditional* on losing the first: a won CAS installed a combine
// computed from child values read after our child update, so the node
// covers us and round two is pure overhead.
// Likewise, when the combine equals the value the node already holds there
// is nothing to install: the node held the covering value at our load, and
// node values are monotone under combine, so it covers us forever after --
// the level costs three loads and no CAS at all.  On the uncontended path
// this halves CAS traffic per level (one CAS instead of two).  The
// unconditional two-round loop survives only as the differential oracle
// of the simulation and weak-memory layers (RefreshPolicy::kAlwaysTwice,
// ruco/maxreg/refresh_policy.h): the model checker exhaustively verifies
// the pruned protocol against it at small N (tests/hotpath_test.cpp) and
// the ablation bench quantifies the step savings.
//
// Memory orders.  The caller's leaf store, the node load, the child loads
// and the success CAS are seq_cst; a failed CAS's reload is discarded
// (round 2 re-reads everything), so it is relaxed.  Two arguments meet at
// these sites:
//   * Publication and the pruning decisions.  The no-change skip and the
//     won-CAS stop reason "the node already covers X because whoever
//     installed this value read children at least as new as X" -- an
//     ordering claim, not just a value claim.  The node load reads from
//     the installing CAS, which is a release, so the installer's child
//     reads happen-before our child loads, and read-read coherence makes
//     our child loads no older than the values the installer combined.
//     A relaxed node load is not sound on non-TSO machines: it may return
//     a fresh node value beside stale child loads, so the skip drops a
//     sibling's contribution or the CAS regresses the monotone value
//     (src/wmm's propagate-counter kernels pin it).
//   * Store buffering.  Acquire/release is not enough once a node can be
//     refreshed by someone other than the writer whose leaf changed:
//     owner A's release leaf store can still sit in A's store buffer while
//     A loses its CAS to B, and a third refresher -- B again for its next
//     write, say -- loads the node after B's install but reads A's leaf
//     from before the store, and its install beats A's second round.
//     Under RC11 the propagate-counter/repeat kernel (a counter writer
//     that increments twice) and the propagate-max/repeat kernel (Algorithm
//     A's max: A writes 1 then 2, B writes 3) lose an update at
//     release/acquire, and so did this register on x86
//     (MaxRegisterStress.TreeReadsCoverEveryCompletedWrite); with the four
//     sites seq_cst they are in one total order, in which the third
//     refresher's child loads follow A's store.
//     farray/wide_propagate.h has the same argument for wider nodes.
// On x86 only the leaf store changes instruction (to xchg, about 12 ns on
// an uncontended write; DESIGN.md "Wide f-array"); AArch64's LDAR/STLR are
// already sequentially consistent.  The orders are literal
// rather than runtime::mo_*, because they are already the strongest.
// Readers of the root stay acquire: they decide nothing from it but the
// value they return.
#pragma once

#include <atomic>
#include <cstdint>

#include "ruco/core/types.h"
#include "ruco/runtime/padded.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/telemetry/metrics.h"
#include "ruco/util/tree_shape.h"

namespace ruco::maxreg {

/// Propagates from the *parent* of `start` up to the root of `shape`.
/// `values[n]` is the cell of node n; `combine(l, r)` computes the new
/// aggregate from the two child values.  T must be equality-comparable,
/// and the sequence of values at every cell monotone under `combine` (see
/// file comment).
template <typename T, typename Combine>
void propagate_twice(const util::TreeShape& shape,
                     runtime::DenseAtomicArray<T>& values,
                     util::TreeShape::NodeId start, Combine&& combine) {
  using NodeId = util::TreeShape::NodeId;
  constexpr std::memory_order kSc = std::memory_order_seq_cst;
  // Batched telemetry: tally in locals, publish once per propagation so the
  // per-level loop stays free of counter traffic.
  std::uint64_t levels = 0;
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  std::uint64_t second_rounds = 0;
  std::uint64_t skipped = 0;
  NodeId n = start;
  while (shape.parent(n) != util::TreeShape::kNil) {
    n = shape.parent(n);
    ++levels;
    const NodeId l = shape.left(n);
    const NodeId r = shape.right(n);
    for (int round = 0; round < 2; ++round) {
      runtime::step_tick();
      // Not relaxed: the skip/stop decisions below need the installer's
      // child reads to happen-before ours (see file comment).
      T old_value = values[n].load(kSc);
      runtime::step_tick();
      const T lv = values[l].load(kSc);
      runtime::step_tick();
      const T rv = values[r].load(kSc);
      const T new_value = combine(lv, rv);
      if (new_value == old_value) {
        // Pure-load level: the node already holds the covering aggregate.
        ++skipped;
        break;
      }
      runtime::step_tick();
      ++attempts;
      if (values[n].compare_exchange_strong(old_value, new_value, kSc,
                                            std::memory_order_relaxed)) {
        break;  // won: combine read after our child update
      }
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

}  // namespace ruco::maxreg
