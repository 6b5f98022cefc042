#include "ruco/snapshot/farray_snapshot.h"

#include <array>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

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
      levels_{farray::wide_levels(num_processes)},
      nodes_{farray::wide_cell_count(levels_), nullptr},
      seq_(num_processes, runtime::PaddedAtomic<std::uint64_t>{0}) {
  // Build the initial views bottom-up (single-threaded setup).
  for (std::uint32_t i = 0; i < n_; ++i) {
    View* leaf = View::make(1);
    leaf->entries()[0] = Entry{0, 0};
    nodes_[i].store(leaf, std::memory_order_relaxed);
  }
  std::array<const View*, kFanOut> children{};
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    for (std::uint32_t j = 0; j < levels_[l].count; ++j) {
      const farray::Family f = farray::wide_family(levels_, l, j);
      for (std::uint32_t c = 0; c < f.count; ++c) {
        children[c] = nodes_[f.first + c].load(std::memory_order_relaxed);
      }
      nodes_[f.node].store(Node::merge(children.data(), f.count),
                           std::memory_order_relaxed);
    }
  }
}

FArraySnapshot::~FArraySnapshot() {
  // Retired views are owned by the reclamation domain; the current ones
  // are still ours.
  for (const farray::Level& level : levels_) {
    for (std::uint32_t i = 0; i < level.count; ++i) {
      View::destroy(const_cast<View*>(
          nodes_[level.offset + i].load(std::memory_order_relaxed)));
    }
  }
}

const FArraySnapshot::View* FArraySnapshot::Node::merge(
    const View* const* children, std::uint32_t count) {
  std::size_t size = 0;
  for (std::uint32_t c = 0; c < count; ++c) size += children[c]->size;
  View* merged = View::make(size);
  Entry* out = merged->entries();
  for (std::uint32_t c = 0; c < count; ++c) {
    std::memcpy(out, children[c]->entries(),
                children[c]->size * sizeof(Entry));
    out += children[c]->size;
  }
  return merged;
}

void FArraySnapshot::update(ProcId proc, Value v) {
  assert(proc < n_);
  if (v < 0) throw std::out_of_range{"FArraySnapshot: negative value"};
  const reclaim::Guard pin;
  const std::uint64_t s =
      seq_[proc].value.load(std::memory_order_relaxed) + 1;
  seq_[proc].value.store(s, std::memory_order_relaxed);
  View* leaf_view = View::make(1);
  leaf_view->entries()[0] = Entry{v, s};
  // Only the owner writes its leaf, so this is local knowledge, not a step.
  const View* old_leaf = nodes_[proc].load(std::memory_order_relaxed);
  runtime::step_tick();
  // seq_cst (farray/wide_propagate.h); as a release it also publishes the
  // new View to every refresher's child load and to scan when N = 1.
  nodes_[proc].store(leaf_view, std::memory_order_seq_cst);
  reclaim::retire(const_cast<View*>(old_leaf), &View::destroy);
  farray::propagate_wide(farray::WideWalk{levels_, proc}, nodes_, Node{});
}

void FArraySnapshot::Node::installed(const View* replaced) noexcept {
  // Unlinked from its node for good: exactly one CAS removes it.
  reclaim::retire(const_cast<View*>(replaced), &View::destroy);
}

void FArraySnapshot::Node::discarded(const View* merged) noexcept {
  View::destroy(const_cast<View*>(merged));  // never published
}

std::vector<Value> FArraySnapshot::scan(ProcId /*proc*/) const {
  std::vector<Value> values;
  values.reserve(n_);  // allocate before pinning
  const reclaim::Guard pin;
  runtime::step_tick();
  const View* root =
      nodes_[levels_.back().offset].load(runtime::mo_acquire);
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
  const View* root =
      nodes_[levels_.back().offset].load(runtime::mo_acquire);
  for (std::size_t i = 0; i < root->size; ++i) {
    out.emplace_back(root->entries()[i].value, root->entries()[i].seq);
  }
  return out;
}

}  // namespace ruco::snapshot
