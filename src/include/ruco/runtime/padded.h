// Cell layouts for shared atomics.
//
// Two layouts, each with one job:
//   * PaddedAtomic<T>: one std::atomic<T> alone on its 64-B line.  For cells
//     that stand alone or belong to one process each -- a CAS word, a
//     per-process sequence number, an MCAS cell -- where sharing a line
//     would only add false sharing.
//   * DenseAtomicArray<T>: std::atomic<T> cells packed back to back in one
//     allocation that starts on a line boundary, eight 8-byte cells per
//     line.  For the trees: the 8-ary f-arrays (farray::FArray, the
//     f-array counter, and the view pointers of the f-array snapshot),
//     whose eight siblings fill one line, and Algorithm A's binary tree
//     (maxreg::TreeMaxRegister); one loop refreshes them all
//     (ruco/farray/wide_propagate.h).
//
// Trees are not padded, because a propagation level reads a node and its
// children together.  Padded, a binary level is three lines, and a
// depth-d propagation touches 2d+1 distinct lines.  In the 8-ary f-array
// every level starts on a line, so a level reads its children's line and
// the node's: at N = 64 an increment touches 3 lines (the leaf line, the
// line of the 8 level-1 nodes, the root's own line) and makes 2 CASes; at
// N = 4 the root sits beside the 4 leaves and an increment touches 1
// line.  The counter at N = 64 takes 10 lines (80 cells, 640 B) instead
// of 127 padded ones.  Algorithm A keeps the binary tree, indexed by
// TreeShape's post-order NodeId so that two sibling leaves sit next to
// their parent: its process leaves' propagation at N = 64 touches 6 lines
// instead of 15, and the tree takes 32 lines instead of 255.  The writers
// that share a line were CASing the same ancestors anyway.  DESIGN.md
// "Cell layout" and "Wide f-array" have the latency measurements and the
// variants that were measured and rejected.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

namespace ruco::runtime {

// Fixed at 64 (the value on every mainstream x86-64 / AArch64 part) rather
// than std::hardware_destructive_interference_size, whose value is not ABI
// stable across compiler flags (GCC warns on any ODR-relevant use).
inline constexpr std::size_t kCacheLine = 64;

/// A std::atomic<T> alone on its cache line.
template <typename T>
struct alignas(kCacheLine) PaddedAtomic {
  std::atomic<T> value;

  PaddedAtomic() noexcept : value{} {}
  explicit PaddedAtomic(T init) noexcept : value{init} {}

  // Vectors of nodes need copies only at construction time (single-threaded
  // setup); relaxed is fine there.
  PaddedAtomic(const PaddedAtomic& other) noexcept
      : value{other.value.load(std::memory_order_relaxed)} {}
  PaddedAtomic& operator=(const PaddedAtomic& other) noexcept {
    value.store(other.value.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }
};

/// A fixed-size array of std::atomic<T>, packed densely in one allocation
/// aligned to kCacheLine.  Movable, not copyable.
template <typename T>
class DenseAtomicArray {
  static_assert(std::is_trivially_destructible_v<std::atomic<T>>);

 public:
  DenseAtomicArray(std::size_t size, T init)
      : cells_{static_cast<std::atomic<T>*>(::operator new(
            size * sizeof(std::atomic<T>), std::align_val_t{kCacheLine}))},
        size_{size} {
    for (std::size_t i = 0; i < size; ++i) {
      ::new (static_cast<void*>(cells_.get() + i)) std::atomic<T>{init};
    }
  }

  [[nodiscard]] std::atomic<T>& operator[](std::size_t i) noexcept {
    return cells_[i];
  }
  [[nodiscard]] const std::atomic<T>& operator[](std::size_t i) const noexcept {
    return cells_[i];
  }
  [[nodiscard]] const std::atomic<T>* data() const noexcept {
    return cells_.get();
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Free {
    void operator()(std::atomic<T>* cells) const noexcept {
      ::operator delete(cells, std::align_val_t{kCacheLine});
    }
  };
  std::unique_ptr<std::atomic<T>[], Free> cells_;
  std::size_t size_;
};

}  // namespace ruco::runtime
