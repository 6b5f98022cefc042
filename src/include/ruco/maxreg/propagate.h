// The double-refresh propagation loop of farray::FArray (Algorithm A's max
// register, the f-array counter): Hendler & Khait Algorithm A lines 3-9,
// Jayanti's Tree Algorithm adapted from LL/SC to CAS.  The f-array
// snapshot runs its own 8-ary version of the loop, with seq_cst orders
// (src/snapshot/farray_snapshot.cpp).
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
// Memory orders (per-site argument; DESIGN.md "Hot-path memory orders";
// constants from ruco/runtime/memorder.h, which RUCO_SEQCST_ATOMICS
// collapses to seq_cst for weak-memory targets):
//   * node load: acquire.  Required for more than publication: the value
//     feeds the CAS expected operand AND the decisions to skip (no-change
//     test) or stop (won-CAS break).  Both decisions reason "the node
//     already covers X because whoever installed this value read children
//     at least as new as X" -- an ordering claim, not just a value claim.
//     The acquire synchronizes-with the release CAS (or release leaf
//     store) that installed the node value, so the installer's child reads
//     happen-before our subsequent child loads; read-read coherence then
//     forces our child loads to return values no older than the ones the
//     installer combined.  That is exactly the interleaving ("combine
//     inputs are at least as new as the node value we observed") the SC
//     model checker exhaustively verified, so the pruning argument
//     transfers to weak-memory hardware.  A relaxed load here is NOT
//     sound on non-TSO machines: it may return a fresh node value while
//     the child loads still return stale values (nothing orders them),
//     making the no-change skip drop a sibling's contribution (e.g. a
//     counter increment that never reaches the root) or the CAS install
//     combine(stale children) over a newer aggregate, regressing the
//     monotone value.  Cost of the acquire: free on x86/TSO, one ldar on
//     ARM.
//   * child loads: acquire.  They synchronize with the release CAS (or
//     release leaf store) that published the child value.
//   * CAS: release on success -- publishes the combined value to the next
//     level's acquire node/child loads; relaxed on failure -- the reloaded
//     expected is discarded (round 2 re-reads everything fresh).
//
// Known gap (ROADMAP): when one writer updates twice, its second refresh
// can play the third refresher of the store-buffering execution that
// farray_snapshot.cpp describes: it loads the node after the other
// owner's lost CAS, still reads that owner's leaf from before its release
// store, and its install beats the owner's second round.  Under RC11 an
// increment goes missing (src/wmm's propagate-counter/repeat kernel).  The
// snapshot closes this with seq_cst at four sites; this loop keeps its
// orders, because that fix measured close to update_storm's bound.
#pragma once

#include <atomic>
#include <cstdint>

#include "ruco/core/types.h"
#include "ruco/runtime/memorder.h"
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
      // Acquire, not relaxed: the skip/stop decisions below need the
      // installer's child reads to happen-before ours (see file comment).
      T old_value = values[n].load(runtime::mo_acquire);
      runtime::step_tick();
      const T lv = values[l].load(runtime::mo_acquire);
      runtime::step_tick();
      const T rv = values[r].load(runtime::mo_acquire);
      const T new_value = combine(lv, rv);
      if (new_value == old_value) {
        // Pure-load level: the node already holds the covering aggregate.
        ++skipped;
        break;
      }
      runtime::step_tick();
      ++attempts;
      if (values[n].compare_exchange_strong(old_value, new_value,
                                            runtime::mo_release,
                                            runtime::mo_relaxed)) {
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
