#include "ruco/counter/farray_counter.h"

#include <cassert>

namespace ruco::counter {

// Leaves start at 0 (a counter's components are counts, not max values).
FArrayCounter::FArrayCounter(std::uint32_t num_processes)
    : counts_{num_processes, 0},
      local_count_(num_processes, runtime::PaddedAtomic<Value>{0}) {}

Value FArrayCounter::read(ProcId proc) const {
  return counts_.read_aggregate(proc);
}

void FArrayCounter::increment(ProcId proc) {
  assert(proc < num_processes());
  // local_count_ is process-private bookkeeping (each slot written by one
  // process only); relaxed suffices and it is not a shared-memory step.
  const Value next =
      local_count_[proc].value.load(std::memory_order_relaxed) + 1;
  local_count_[proc].value.store(next, std::memory_order_relaxed);
  counts_.update(proc, next);
}

}  // namespace ruco::counter
