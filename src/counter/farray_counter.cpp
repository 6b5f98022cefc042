#include "ruco/counter/farray_counter.h"

#include <cassert>

namespace ruco::counter {

// Leaves start at 0 (a counter's components are counts, not max values).
FArrayCounter::FArrayCounter(std::uint32_t num_processes)
    : counts_{num_processes, 0} {}

Value FArrayCounter::read(ProcId proc) const {
  return counts_.read_aggregate(proc);
}

void FArrayCounter::increment(ProcId proc) {
  assert(proc < num_processes());
  // The slot is ours alone, so reading it back is not a shared-memory step.
  counts_.update(proc, counts_.own_slot(proc) + 1);
}

}  // namespace ruco::counter
