// Epoch-based reclamation (Fraser's EBR, in the form crossbeam-epoch made
// standard): the memory-safety layer under the objects whose immutable
// versions and helping descriptors are published through CAS -- the
// f-array snapshot's views and HFP MCAS's descriptors.
//
// One process-wide domain holds a global epoch.  A thread *pins* before it
// loads a pointer it may dereference (Guard); `retire` queues an unlinked
// object, which is freed once every thread that could still hold it has
// unpinned:
//
//   * pin:     slot := (global epoch, pinned); seq_cst fence.
//   * retire:  push onto the thread's current bag.  Every kBatch retires,
//              at the thread's next unpin, the bag is sealed -- seq_cst
//              fence, then tagged with the global epoch g read after it --
//              and the thread tries to advance the epoch.
//   * advance: seq_cst fence; if every pinned slot holds the global epoch
//              g, CAS it to g + 1.
//   * free:    a bag tagged g may be freed once the global epoch reaches
//              g + 2.  Its deleters run two per later retire call, so no
//              single operation pays for a whole bag.
//
// Why two epochs: a pin and a seal are the two sides of a store-buffering
// handshake, so their seq_cst fences are ordered.  If the reader's fence
// comes first, the unlinker's epoch read sees at least the reader's epoch
// e, and the epoch cannot pass e + 1 until the reader unpins; if the seal's
// fence comes first, the reader's loads see the unlink and never reach the
// object.  Either way an object tagged g is unreachable for every thread
// pinned at g + 1 or later (src/wmm's reclaim-grace-period kernel checks
// the handshake under RC11).
//
// Pins are local bookkeeping, not steps: they touch only the pinning
// thread's slot and issue a fence, never a shared-memory operation of the
// objects, so runtime::step_tick() is never called here and the paper's
// step bounds (Scan O(1), Update O(log N)) are untouched.
//
// Threads are keyed by their OS thread, not by ProcId: a slot is claimed
// on first use and released at thread exit, when the thread's pending
// bags go to an orphan list that later collections free.  Slots are
// reused, so a program that starts new threads every round keeps a
// registry as long as its peak thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "ruco/runtime/padded.h"

namespace ruco::reclaim {

using Deleter = void (*)(void*);

namespace detail {

// One per live thread; never freed (the registry is append-only).
struct alignas(runtime::kCacheLine) Slot {
  // (epoch << 1) | pinned.  Written only by the owning thread.
  std::atomic<std::uint64_t> state{0};
  std::atomic<bool> in_use{false};
  Slot* next = nullptr;
};

struct Local;  // per-thread bags and block cache (ebr.cpp)

struct alignas(runtime::kCacheLine) GlobalEpoch {
  std::atomic<std::uint64_t> value{0};
};
inline GlobalEpoch global_epoch;

#if defined(__SANITIZE_THREAD__)
#define RUCO_RECLAIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RUCO_RECLAIM_TSAN 1
#endif
#endif

#ifdef RUCO_RECLAIM_TSAN
inline std::atomic<std::uint64_t> tsan_fence_word{0};
#endif

// The seq_cst fence of the pin/seal/advance handshake.  ThreadSanitizer
// does not model fences (GCC rejects them under -fsanitize=thread), so a
// TSan build issues a seq_cst RMW on one shared word instead: all such
// RMWs are totally ordered and each synchronizes with the one before it,
// which orders the handshake at least as strongly as the fence and is
// happens-before that TSan can see.
inline void handshake_fence() noexcept {
#ifdef RUCO_RECLAIM_TSAN
  tsan_fence_word.fetch_add(0, std::memory_order_seq_cst);
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

// The fast-path view of the calling thread's state, filled on first use.
struct ThreadView {
  Slot* slot = nullptr;
  std::uint32_t depth = 0;  // Guard nesting
  bool collect_due = false;  // a full bag waits for the outermost unpin
  Local* local = nullptr;
};
inline thread_local ThreadView tls_view;

void register_thread();
void collect();

}  // namespace detail

/// Pins the calling thread for its lifetime: every object retired after
/// the pin stays allocated until the guard is gone.  Guards nest; only the
/// outermost pins and unpins.
class Guard {
 public:
  Guard() noexcept {
    detail::ThreadView& t = detail::tls_view;
    if (t.slot == nullptr) [[unlikely]] detail::register_thread();
    if (t.depth++ == 0) {
      const std::uint64_t e =
          detail::global_epoch.value.load(std::memory_order_relaxed);
      // Release makes this thread's reads before an earlier unpin visible
      // to an advancer that acquires this newer slot value.
      t.slot->state.store((e << 1) | 1, std::memory_order_release);
      detail::handshake_fence();
    }
  }
  ~Guard() {
    detail::ThreadView& t = detail::tls_view;
    if (--t.depth == 0) {
      t.slot->state.store(0, std::memory_order_release);
      // Collect unpinned, so that this thread's own stale pin cannot hold
      // the epoch back.
      if (t.collect_due) [[unlikely]] detail::collect();
    }
  }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;
};

/// Queues `p` (already unreachable from shared memory for threads that pin
/// from now on) to be freed with `deleter` after `grace_periods` grace
/// periods.  One is enough for an object no thread can re-publish; an
/// object that concurrent helpers may still write back after its retire
/// needs two (see McasArray).
void retire(void* p, Deleter deleter, std::uint32_t grace_periods = 1);

/// Memory for objects that are handed to retire().  Reclamation moves
/// frees across threads -- a view allocated by one updater is retired and
/// freed by whichever updater replaces it -- and glibc serves such frees
/// beyond its small per-thread cache under an arena lock, which showed as
/// tail latency under contention.  These recycle freed blocks by exact
/// size instead, through per-thread magazines and a process-wide depot
/// that outlives the threads (ebr.cpp), so that neither a stalled epoch
/// nor a new fleet of threads sends the operations to the heap.
/// `deallocate` must be given the size `allocate` was asked for.
[[nodiscard]] void* allocate(std::size_t bytes);
void deallocate(void* p, std::size_t bytes) noexcept;

/// Frees what this thread and exited threads have retired, advancing the
/// epoch as far as pinned threads allow; returns whether none of it is
/// left pending.  Objects pending in other live threads are left to them.
/// For tests and shutdown; the serving path never needs it.
bool drain();

/// Objects retired by the calling thread and not yet freed.
[[nodiscard]] std::uint64_t pending();

/// Retires per sealed bag.
inline constexpr std::uint32_t kBatch = 64;

}  // namespace ruco::reclaim
