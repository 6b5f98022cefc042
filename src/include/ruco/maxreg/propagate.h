// The double-refresh propagation loop shared by farray::FArray (Algorithm
// A's max register, the f-array counter) and the f-array snapshot
// (Hendler & Khait Algorithm A lines 3-9; Jayanti's Tree Algorithm adapted
// from LL/SC to CAS).
//
// At every node on the path from `start` to the root, the caller's combine
// function is evaluated over the two children and CASed into the node.
// Two refresh rounds suffice for linearizability of *monotone* aggregates
// (max, sums of single-writer counters, version-ordered views): if our CAS
// fails, a concurrent CAS succeeded, and its combine input was read after
// our child update; if the second also fails, the interfering CAS read the
// children after our first attempt, hence already covers our update (the
// paper's Lemma 9 / Invariant 1 argument).  Monotonicity is what rules out
// ABA, which is why the LL/SC -> CAS substitution is sound here.  For
// pointer aggregates (the f-array snapshot's views) ABA is ruled out by
// address freshness instead: every combine allocates a new view, and the
// caller runs the whole propagation pinned (ruco/reclaim/ebr.h), so a view
// it loaded cannot be freed -- let alone re-allocated at the same address
// and re-installed -- before its CAS.
//
// Disposal.  Each CAS winner hands the value it replaced to
// `dispose.replaced` (it is unlinked from that node for good: exactly one
// CAS removes it), and a combine that is not installed -- the CAS lost, or
// the no-change skip fired -- goes to `dispose.discarded`: it was never
// published, so no other thread can hold it.  KeepValues, the default,
// does nothing, as plain integer aggregates need.
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
//     release leaf store) that published the child value; when T is a
//     pointer (f-array snapshot views) the referent is dereferenced by the
//     combine, so the acquire edge is what makes the published contents
//     visible.
//   * CAS: release on success -- publishes the combined value (and, for
//     pointer aggregates, everything the combine wrote) to the next
//     level's acquire node/child loads; relaxed on failure -- the
//     reloaded expected is discarded (round 2 re-reads everything fresh).
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "ruco/core/types.h"
#include "ruco/runtime/memorder.h"
#include "ruco/runtime/padded.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/telemetry/metrics.h"
#include "ruco/util/tree_shape.h"

namespace ruco::maxreg {

/// The disposal of plain aggregates: nothing to free.
struct KeepValues {
  template <typename T>
  void replaced(const T& /*old_value*/) const noexcept {}
  template <typename T>
  void discarded(const T& /*new_value*/) const noexcept {}
};

/// Propagates from the *parent* of `start` up to the root of `shape`.
/// `values[n]` is the cell of node n, in either layout of
/// ruco/runtime/padded.h (a std::atomic<T> or a PaddedAtomic<T>);
/// `combine(l, r)` computes the new aggregate from the two child values.
/// T must be trivially copyable, equality-comparable, and the sequence of
/// values at every cell monotone under `combine` (see file comment).
/// `dispose` receives every value a won CAS replaced and every combine that
/// was not installed.
template <typename Cells, typename Combine, typename Disposal = KeepValues>
void propagate_twice(const util::TreeShape& shape, Cells& values,
                     util::TreeShape::NodeId start, Combine&& combine,
                     Disposal&& dispose = {}) {
  using NodeId = util::TreeShape::NodeId;
  const auto cell = [&values](NodeId n) -> auto& {
    return runtime::atomic_of(values[n]);
  };
  using T = typename std::remove_reference_t<decltype(cell(0))>::value_type;
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
      T old_value = cell(n).load(runtime::mo_acquire);
      runtime::step_tick();
      const T lv = cell(l).load(runtime::mo_acquire);
      runtime::step_tick();
      const T rv = cell(r).load(runtime::mo_acquire);
      const T new_value = combine(lv, rv);
      if (new_value == old_value) {
        // Pure-load level: the node already holds the covering aggregate.
        dispose.discarded(new_value);
        ++skipped;
        break;
      }
      runtime::step_tick();
      ++attempts;
      if (cell(n).compare_exchange_strong(old_value, new_value,
                                          runtime::mo_release,
                                          runtime::mo_relaxed)) {
        dispose.replaced(old_value);
        break;  // won: combine read after our child update
      }
      dispose.discarded(new_value);
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
