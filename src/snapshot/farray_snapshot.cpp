#include "ruco/snapshot/farray_snapshot.h"

#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

#include "ruco/maxreg/propagate.h"
#include "ruco/reclaim/ebr.h"
#include "ruco/runtime/memorder.h"
#include "ruco/runtime/stepcount.h"

namespace ruco::snapshot {

std::size_t FArraySnapshot::View::bytes(std::size_t size) noexcept {
  return sizeof(View) + size * sizeof(Entry);
}

FArraySnapshot::View* FArraySnapshot::View::make(std::size_t size) {
  // The entries are implicit-lifetime; merge and update write them.
  void* mem = reclaim::allocate(bytes(size));
  return ::new (mem) View{size};
}

void FArraySnapshot::View::destroy(void* view) noexcept {
  reclaim::deallocate(view, bytes(static_cast<View*>(view)->size));
}

FArraySnapshot::FArraySnapshot(std::uint32_t num_processes)
    : n_{num_processes},
      shape_{util::complete_shape(num_processes)},
      seq_(num_processes, runtime::PaddedAtomic<std::uint64_t>{0}) {
  if (num_processes == 0) {
    throw std::invalid_argument{"FArraySnapshot: 0 processes"};
  }
  // Build the initial per-node views bottom-up (single-threaded setup).
  // Nodes were appended children-before-parents by the shape builder, so a
  // forward pass sees children already built.
  nodes_.assign(shape_.node_count(),
                runtime::PaddedAtomic<const View*>{nullptr});
  for (util::TreeShape::NodeId id = 0; id < shape_.node_count(); ++id) {
    const View* view = nullptr;
    if (shape_.is_leaf(id)) {
      View* leaf = View::make(1);
      leaf->entries()[0] = Entry{0, 0};
      view = leaf;
    } else {
      const auto child = [this](util::TreeShape::NodeId c) {
        return nodes_[c].value.load(std::memory_order_relaxed);
      };
      view = merge(child(shape_.left(id)), child(shape_.right(id)));
    }
    nodes_[id].value.store(view, std::memory_order_relaxed);
  }
}

FArraySnapshot::~FArraySnapshot() {
  // Retired views are owned by the reclamation domain; the current ones
  // are still ours.
  for (auto& node : nodes_) {
    View::destroy(
        const_cast<View*>(node.value.load(std::memory_order_relaxed)));
  }
}

const FArraySnapshot::View* FArraySnapshot::merge(const View* l,
                                                  const View* r) {
  View* merged = View::make(l->size + r->size);
  std::memcpy(merged->entries(), l->entries(), l->size * sizeof(Entry));
  std::memcpy(merged->entries() + l->size, r->entries(),
              r->size * sizeof(Entry));
  return merged;
}

// propagate_twice's disposal for views: a replaced view may still be read
// by pinned threads, a merged view that was not installed was never seen.
struct FArraySnapshot::RetireViews {
  void replaced(const View* view) const {
    reclaim::retire(const_cast<View*>(view), &View::destroy);
  }
  void discarded(const View* view) const noexcept {
    View::destroy(const_cast<View*>(view));
  }
};

void FArraySnapshot::update(ProcId proc, Value v) {
  assert(proc < n_);
  if (v < 0) throw std::out_of_range{"FArraySnapshot: negative value"};
  const reclaim::Guard pin;
  const std::uint64_t s =
      seq_[proc].value.load(std::memory_order_relaxed) + 1;
  seq_[proc].value.store(s, std::memory_order_relaxed);
  View* leaf_view = View::make(1);
  leaf_view->entries()[0] = Entry{v, s};
  const auto leaf = shape_.leaf(proc);
  // Only the owner writes its leaf, so this is local knowledge, not a step.
  const View* old_leaf = nodes_[leaf].value.load(std::memory_order_relaxed);
  runtime::step_tick();
  // Release publishes the freshly built View behind leaf_view; every reader
  // of this cell (propagate_twice's acquire child loads, scan's acquire
  // root load) dereferences it.
  nodes_[leaf].value.store(leaf_view, runtime::mo_release);
  reclaim::retire(const_cast<View*>(old_leaf), &View::destroy);
  maxreg::propagate_twice(shape_, nodes_, leaf, &FArraySnapshot::merge,
                          maxreg::RefreshPolicy::kConditional,
                          RetireViews{});
}

std::vector<Value> FArraySnapshot::scan(ProcId /*proc*/) const {
  std::vector<Value> values;
  values.reserve(n_);  // allocate before pinning
  const reclaim::Guard pin;
  runtime::step_tick();
  const View* root = nodes_[shape_.root()].value.load(runtime::mo_acquire);
  for (std::size_t i = 0; i < root->size; ++i) {
    values.push_back(root->entries()[i].value);
  }
  return values;
}

std::vector<std::pair<Value, std::uint64_t>> FArraySnapshot::scan_versions(
    ProcId /*proc*/) const {
  std::vector<std::pair<Value, std::uint64_t>> out;
  out.reserve(n_);
  const reclaim::Guard pin;
  runtime::step_tick();
  const View* root = nodes_[shape_.root()].value.load(runtime::mo_acquire);
  for (std::size_t i = 0; i < root->size; ++i) {
    out.emplace_back(root->entries()[i].value, root->entries()[i].seq);
  }
  return out;
}

}  // namespace ruco::snapshot
