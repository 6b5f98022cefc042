#include "ruco/maxreg/tree_max_register.h"

#include <cassert>
#include <stdexcept>

#include "ruco/telemetry/metrics.h"
#include "ruco/util/tree_shape.h"

namespace ruco::maxreg {

TreeMaxRegister::TreeMaxRegister(std::uint32_t num_processes,
                                 Faithfulness mode)
    : tree_{util::algorithm_a_shape(num_processes), kNoValue}, mode_{mode} {}

Value TreeMaxRegister::read_max(ProcId proc) const {
  return tree_.read_aggregate(proc);
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
    if (tree_.read_aggregate(proc) >= v) {
      telemetry::prod().tree_root_fastpath.inc();
      return;
    }
  }
  const std::uint32_t slot = util::algorithm_a_leaf(num_processes(), proc, v);
  telemetry::prod().tree_descent_depth.record(write_leaf_depth(proc, v));
  if (v <= tree_.read_slot(proc, slot)) {
    // Another write of >= v already reached this leaf.  The paper's printed
    // code returns here; without helping, the other write may not have
    // propagated yet and this (completed) operation could be missed by a
    // subsequent ReadMax.
    telemetry::prod().tree_duplicate_writes.inc();
    if (mode_ == Faithfulness::kHelpOnDuplicate) tree_.refresh(slot);
    return;
  }
  tree_.update(slot, v);
}

std::uint32_t TreeMaxRegister::write_leaf_depth(ProcId proc, Value v) const {
  const util::TreeShape& shape = tree_.shape();
  return shape.depth(
      shape.leaf(util::algorithm_a_leaf(num_processes(), proc, v)));
}

}  // namespace ruco::maxreg
