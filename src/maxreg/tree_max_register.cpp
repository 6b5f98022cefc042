#include "ruco/maxreg/tree_max_register.h"

#include <cassert>
#include <stdexcept>

#include "ruco/farray/farray.h"
#include "ruco/runtime/memorder.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/telemetry/metrics.h"

namespace ruco::maxreg {

TreeMaxRegister::TreeMaxRegister(std::uint32_t num_processes,
                                 Faithfulness mode)
    : shape_{util::algorithm_a_shape(num_processes)},
      values_(shape_.node_count(), kNoValue),
      mode_{mode} {}

Value TreeMaxRegister::read_max(ProcId /*proc*/) const {
  runtime::step_tick();
  return values_[shape_.root()].load(runtime::mo_acquire);
}

void TreeMaxRegister::write_max(ProcId proc, Value v) {
  if (v < 0) {
    throw std::out_of_range{"TreeMaxRegister::write_max: negative operand"};
  }
  assert(proc < num_processes());
  if (mode_ == Faithfulness::kHelpOnDuplicate) {
    // Root-check fast path: if the root already covers v, every subsequent
    // ReadMax returns >= v and this operation may linearize right after the
    // write that put the root there -- O(1) instead of a full descent.
    // Not applied in kAsPrinted mode, which reproduces the paper's literal
    // pseudocode.
    if (read_max(proc) >= v) {
      telemetry::prod().tree_root_fastpath.inc();
      return;
    }
  }
  const util::TreeShape::NodeId leaf =
      shape_.leaf(util::algorithm_a_leaf(num_processes(), proc, v));
  telemetry::prod().tree_descent_depth.record(shape_.depth(leaf));
  runtime::step_tick();
  if (v <= values_[leaf].load(runtime::mo_acquire)) {
    // Another write of >= v already reached this leaf.  The paper's printed
    // code returns here; without helping, the other write may not have
    // propagated yet and this (completed) operation could be missed by a
    // subsequent ReadMax.
    telemetry::prod().tree_duplicate_writes.inc();
    if (mode_ == Faithfulness::kAsPrinted) return;
  } else {
    runtime::step_tick();
    // seq_cst, with the loop's node and child loads and success CAS
    // (ruco/farray/wide_propagate.h).
    values_[leaf].store(v, std::memory_order_seq_cst);
  }
  farray::propagate_wide(farray::TreeWalk{shape_, leaf}, values_,
                         farray::ValueNode<farray::MaxCombine>{});
}

std::uint32_t TreeMaxRegister::write_leaf_depth(ProcId proc, Value v) const {
  return shape_.depth(
      shape_.leaf(util::algorithm_a_leaf(num_processes(), proc, v)));
}

}  // namespace ruco::maxreg
