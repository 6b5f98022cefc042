#include "ruco/snapshot/farray_snapshot.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

#include "ruco/reclaim/ebr.h"
#include "ruco/runtime/memorder.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/telemetry/metrics.h"

namespace ruco::snapshot {

// Memory orders of update().  A refresh of node X that loses its CAS twice
// relies on the winner of the second round having read the children after
// our leaf store.  Once three or more leaf owners share X, acquire/release
// does not give that: owner A's release leaf store can still sit in A's
// store buffer while A loads X, reads its children, and loses its CAS to a
// refresher B; a third refresher C can then load X after B's install (so
// after A's first-round load) and still read A's leaf before the store,
// and C's install beats A's second round.  X ends without A's update,
// although A returned.  Making the leaf store, the node load, the child
// loads and the success CAS seq_cst puts all four in one total order, in
// which C's child loads follow A's store.  Under RC11 (src/wmm's
// propagate-wide kernel) weakening any one of the four alone loses an
// update; so does, in a one-off variant of that kernel, a seq_cst fence
// after a release leaf store with the other sites acquire/release.  On x86
// only the leaf store changes instruction (to xchg); AArch64's LDAR/STLR
// are already sequentially consistent.  A failed CAS's reload is never
// used, so it stays relaxed.
namespace {
constexpr std::memory_order kSc = std::memory_order_seq_cst;
}  // namespace

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
      levels_{[num_processes] {
        if (num_processes == 0) {
          throw std::invalid_argument{"FArraySnapshot: 0 processes"};
        }
        // Each level starts on a line; every line of a level gets one
        // parent.
        std::vector<Level> levels;
        std::uint32_t offset = 0;
        for (std::uint32_t count = num_processes;;) {
          levels.push_back(Level{offset, count});
          if (count == 1) return levels;
          const std::uint32_t lines = (count + kFanOut - 1) / kFanOut;
          offset += lines * kFanOut;
          count = lines;
        }
      }()},
      nodes_{levels_.back().offset + kFanOut, nullptr},
      seq_(num_processes, runtime::PaddedAtomic<std::uint64_t>{0}) {
  // Build the initial views bottom-up (single-threaded setup).
  for (std::uint32_t i = 0; i < n_; ++i) {
    View* leaf = View::make(1);
    leaf->entries()[0] = Entry{0, 0};
    nodes_[i].store(leaf, std::memory_order_relaxed);
  }
  std::array<const View*, kFanOut> children{};
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    const Level& below = levels_[l - 1];
    for (std::uint32_t j = 0; j < levels_[l].count; ++j) {
      const std::uint32_t first = j * kFanOut;
      const std::uint32_t count = std::min(kFanOut, below.count - first);
      for (std::uint32_t c = 0; c < count; ++c) {
        children[c] =
            nodes_[below.offset + first + c].load(std::memory_order_relaxed);
      }
      nodes_[levels_[l].offset + j].store(merge(children.data(), count),
                                          std::memory_order_relaxed);
    }
  }
}

FArraySnapshot::~FArraySnapshot() {
  // Retired views are owned by the reclamation domain; the current ones
  // are still ours.
  for (const Level& level : levels_) {
    for (std::uint32_t i = 0; i < level.count; ++i) {
      View::destroy(const_cast<View*>(
          nodes_[level.offset + i].load(std::memory_order_relaxed)));
    }
  }
}

const FArraySnapshot::View* FArraySnapshot::merge(const View* const* children,
                                                  std::uint32_t count) {
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
  // seq_cst (file comment); as a release it also publishes the new View to
  // every refresher's child load and to scan when N = 1.
  nodes_[proc].store(leaf_view, kSc);
  reclaim::retire(const_cast<View*>(old_leaf), &View::destroy);
  propagate(proc);
}

// Algorithm A's conditional double refresh (maxreg/propagate.h), one level
// per kFanOut-ary node.  A won CAS installed a merge of child loads made
// after our leaf store, so it covers us; a lost first round gets one more.
// There is no no-change skip: every merge is a fresh allocation, so it
// never equals the node's pointer.
void FArraySnapshot::propagate(std::uint32_t proc) {
  std::array<const View*, kFanOut> children{};
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  std::uint64_t second_rounds = 0;
  std::uint32_t index = proc;
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    const Level& below = levels_[l - 1];
    index /= kFanOut;
    const std::uint32_t first = index * kFanOut;
    const std::uint32_t count = std::min(kFanOut, below.count - first);
    std::atomic<const View*>& node = nodes_[levels_[l].offset + index];
    for (int round = 0; round < 2; ++round) {
      runtime::step_tick();
      const View* old_view = node.load(kSc);
      for (std::uint32_t c = 0; c < count; ++c) {
        runtime::step_tick();
        children[c] = nodes_[below.offset + first + c].load(kSc);
      }
      const View* merged = merge(children.data(), count);
      runtime::step_tick();
      ++attempts;
      if (node.compare_exchange_strong(old_view, merged, kSc,
                                       std::memory_order_relaxed)) {
        // Unlinked from this node for good: exactly one CAS removes it.
        reclaim::retire(const_cast<View*>(old_view), &View::destroy);
        break;
      }
      View::destroy(const_cast<View*>(merged));  // never published
      ++failures;
      if (round == 0) ++second_rounds;
    }
  }
  if (levels_.size() > 1) {
    const telemetry::ProdMetrics& tm = telemetry::prod();
    tm.propagate_levels.add(levels_.size() - 1);
    tm.propagate_cas_attempts.add(attempts);
    if (failures != 0) tm.propagate_cas_failures.add(failures);
    if (second_rounds != 0) tm.propagate_second_rounds.add(second_rounds);
  }
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
