// Jayanti-style f-array counter (PODC'02 "f-arrays", reference [14] of
// Hendler & Khait), adapted from LL/SC to CAS with Algorithm A's double-CAS
// propagation:
//   CounterRead      : O(1) steps (read the root sum), and
//   CounterIncrement : O(log N) steps (bump own leaf, re-aggregate the path).
//
// This is the read-optimal counter the paper's Theorem 1 shows is
// update-optimal too: with f(N) = O(1) reads, increments must cost
// Omega(log N) -- exactly what this object pays.  Sums of single-writer,
// non-decreasing leaves are monotone, so the CAS substitution is ABA-free
// (see ruco/farray/wide_propagate.h).  The tree is a farray::SumFArray with
// one slot per process, 8 children per node; an increment reads its own
// slot back and writes it plus one.  At N = 64 it costs 21 steps (a leaf
// store, then 2 levels of node load, 8 child loads and CAS), touches 3
// lines and makes 2 CASes; at N = 4 the root shares the leaves' line and
// an increment is 7 steps.
#pragma once

#include <cstdint>

#include "ruco/core/types.h"
#include "ruco/farray/farray.h"

namespace ruco::counter {

class FArrayCounter {
 public:
  explicit FArrayCounter(std::uint32_t num_processes);

  /// Number of increments linearized so far.  One step.
  [[nodiscard]] Value read(ProcId proc) const;

  /// Adds one to the count on behalf of process `proc`.  O(log N) steps.
  void increment(ProcId proc);

  [[nodiscard]] std::uint32_t num_processes() const noexcept {
    return counts_.num_slots();
  }

 private:
  farray::SumFArray counts_;  // slot p: process p's increments
};

}  // namespace ruco::counter
