#include "ruco/reclaim/ebr.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "ruco/telemetry/metrics.h"

namespace ruco::reclaim {

namespace detail {

namespace {

struct Retired {
  void* p = nullptr;
  Deleter deleter = nullptr;
  std::uint32_t grace_periods = 1;
};

struct Bag {
  std::uint64_t epoch = 0;  // global epoch read after the sealing fence
  std::vector<Retired> items;
};

// Freed blocks are recycled in magazines (Bonwick and Adams, "Magazines
// and Vmem", USENIX ATC 2001).  Per block size a thread keeps a loaded and
// a previous magazine of up to kMagazine blocks and trades whole
// magazines with a process-wide depot when both are empty or both full.
// The depot outlives threads: the blocks a finished fleet of threads freed
// serve the next fleet, and the backlog that piles up while a descheduled
// pinned thread holds the epoch back is served from blocks freed after the
// last such stall instead of from fresh heap.  Sizes are exact, up to
// kCacheBins of them (the objects in use have a handful: one per f-array
// level, one per descriptor type); other sizes go straight to the heap.
// ASan builds cache nothing, so that a premature free still shows as a
// use-after-free.
constexpr std::size_t kCacheBins = 16;
constexpr std::uint32_t kMagazine = 64;      // blocks per magazine
constexpr std::size_t kDepotMagazines = 64;  // per size
#if defined(__SANITIZE_ADDRESS__)
#define RUCO_RECLAIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RUCO_RECLAIM_ASAN 1
#endif
#endif
#ifdef RUCO_RECLAIM_ASAN
constexpr bool kCacheBlocks = false;
#else
constexpr bool kCacheBlocks = true;
#endif

struct Magazine {
  void* head = nullptr;  // intrusive list through each block's first word
  std::uint32_t count = 0;

  void push(void* p) noexcept {
    std::memcpy(p, &head, sizeof(void*));
    head = p;
    ++count;
  }
  void* pop() noexcept {
    void* p = head;
    std::memcpy(&head, p, sizeof(void*));
    --count;
    return p;
  }
  void release() noexcept {
    while (count != 0) ::operator delete(pop());
  }
};

// The bin of `bytes`, claiming an unused one; nullptr if every bin holds
// another size or the block cannot hold the list link.
template <typename Bin>
Bin* find_bin(std::array<Bin, kCacheBins>& bins, std::size_t bytes) noexcept {
  if (bytes < sizeof(void*)) return nullptr;
  for (Bin& b : bins) {
    if (b.bytes == bytes) return &b;
    if (b.bytes == 0) {
      b.bytes = bytes;
      return &b;
    }
  }
  return nullptr;
}

struct DepotBin {
  std::size_t bytes = 0;  // 0: unused; bins are claimed front to back
  std::vector<Magazine> magazines;  // capacity kDepotMagazines, never grown
};

struct Domain {
  Domain() {
    for (DepotBin& b : depot) b.magazines.reserve(kDepotMagazines);
  }

  std::atomic<Slot*> slots{nullptr};  // append-only registry

  std::mutex orphans_mu;
  std::deque<Bag> orphans;  // sealed bags of exited threads
  std::atomic<bool> has_orphans{false};

  std::mutex depot_mu;
  std::array<DepotBin, kCacheBins> depot;
};

// Never destroyed, so that a thread exiting while the process shuts down
// still finds it intact.
Domain& domain() {
  static Domain* const d = new Domain;
  return *d;
}

// Deleters run per retire call, not per collection, so that freeing a
// whole bag never lands on one operation's latency: each retire frees up
// to this many objects whose grace period is over, which outpaces the one
// it queues.
constexpr std::size_t kFreesPerRetire = 2;

// The operation paths never wait for the depot: if another thread holds
// it, they use the heap instead.
bool depot_take(std::size_t bytes, Magazine& m) noexcept {
  Domain& d = domain();
  const std::unique_lock lock{d.depot_mu, std::try_to_lock};
  if (!lock.owns_lock()) return false;
  DepotBin* b = find_bin(d.depot, bytes);
  if (b == nullptr || b->magazines.empty()) return false;
  m = b->magazines.back();
  b->magazines.pop_back();
  return true;
}

// Moves `m` into the depot; false, leaving `m` as it was, if the depot is
// full for this size or (unless `wait`) busy.
bool depot_put(std::size_t bytes, Magazine& m, bool wait) noexcept {
  Domain& d = domain();
  std::unique_lock lock{d.depot_mu, std::defer_lock};
  if (wait) {
    lock.lock();
  } else if (!lock.try_lock()) {
    return false;
  }
  DepotBin* b = find_bin(d.depot, bytes);
  if (b == nullptr || b->magazines.size() == kDepotMagazines) return false;
  b->magazines.push_back(m);
  m = Magazine{};
  return true;
}

struct BlockCache {
  struct Bin {
    std::size_t bytes = 0;  // 0: unused; bins are claimed front to back
    Magazine loaded;
    Magazine previous;  // empty or full
  };
  std::array<Bin, kCacheBins> bins{};

  // An exiting thread leaves its blocks to the next threads.
  ~BlockCache() {
    for (Bin& b : bins) {
      for (Magazine* m : {&b.loaded, &b.previous}) {
        if (m->count != 0 && !depot_put(b.bytes, *m, /*wait=*/true)) {
          m->release();
        }
      }
    }
  }
};

}  // namespace

// Every path here is O(1) per object or per bag: sealing swaps vectors,
// harvesting moves whole bags, and freeing pops one item at a time.
struct Local {
  std::vector<Retired> current;           // not sealed yet
  std::deque<Bag> sealed;                 // tags nondecreasing
  std::deque<Bag> ready;                  // grace period over
  std::vector<std::vector<Retired>> spare;  // emptied item buffers
  std::uint64_t pending = 0;              // current + sealed + ready
  BlockCache cache;  // destroyed last: the deleters above fill it
};

namespace {

void seal(Local& l) {
  if (l.current.empty()) return;
  // Orders every unlink before the bag's epoch read against every pin's
  // fence: the store-buffering handshake of the file comment in ebr.h.
  handshake_fence();
  Bag bag;
  bag.epoch = global_epoch.value.load(std::memory_order_relaxed);
  bag.items.swap(l.current);
  l.sealed.push_back(std::move(bag));
  if (!l.spare.empty()) {
    l.current.swap(l.spare.back());
    l.spare.pop_back();
  } else {
    l.current.reserve(kBatch);
  }
}

// Advances the global epoch by one if every pinned thread has seen it.
void try_advance() {
  handshake_fence();
  std::uint64_t g = global_epoch.value.load(std::memory_order_relaxed);
  for (Slot* s = domain().slots.load(std::memory_order_acquire); s != nullptr;
       s = s->next) {
    // Acquire: an unpinned (or re-pinned) value synchronizes with the
    // release store that ended the thread's previous pin, so its reads
    // happen before anything this advance lets be freed.
    const std::uint64_t st = s->state.load(std::memory_order_acquire);
    if ((st & 1) != 0 && (st >> 1) != g) return;
  }
  global_epoch.value.compare_exchange_strong(
      g, g + 1, std::memory_order_acq_rel, std::memory_order_relaxed);
}

// Moves the bags two epochs old from l.sealed to l.ready.
void harvest(Local& l) {
  const std::uint64_t g = global_epoch.value.load(std::memory_order_acquire);
  while (!l.sealed.empty() && l.sealed.front().epoch + 2 <= g) {
    l.ready.push_back(std::move(l.sealed.front()));
    l.sealed.pop_front();
  }
}

// Takes over the orphaned bags, unless another thread holds them.
void adopt_orphans(Local& l, bool wait_for_lock) {
  Domain& d = domain();
  if (!d.has_orphans.load(std::memory_order_relaxed)) return;
  std::unique_lock lock{d.orphans_mu, std::defer_lock};
  if (wait_for_lock) {
    lock.lock();
  } else if (!lock.try_lock()) {
    return;
  }
  for (Bag& bag : d.orphans) {
    l.pending += bag.items.size();
    const auto at = std::upper_bound(
        l.sealed.begin(), l.sealed.end(), bag.epoch,
        [](std::uint64_t e, const Bag& b) { return e < b.epoch; });
    l.sealed.insert(at, std::move(bag));
  }
  d.orphans.clear();
  d.has_orphans.store(false, std::memory_order_relaxed);
}

// Runs up to `max` deleters of objects past their grace period; an object
// that needs another grace period is retired again instead.
void free_some(Local& l, std::size_t max) {
  std::size_t freed = 0;
  for (std::size_t i = 0; i < max && !l.ready.empty(); ++i) {
    std::vector<Retired>& items = l.ready.front().items;
    const Retired r = items.back();
    items.pop_back();
    if (items.empty()) {
      l.spare.push_back(std::move(items));
      l.ready.pop_front();
    }
    if (r.grace_periods > 1) {
      l.current.push_back(Retired{r.p, r.deleter, r.grace_periods - 1});
      continue;
    }
    r.deleter(r.p);
    ++freed;
  }
  if (freed == 0) return;
  l.pending -= freed;
  telemetry::prod().reclaim_freed.add(freed);
}

void collect_local(Local& l, bool wait_for_orphans) {
  tls_view.collect_due = false;
  seal(l);
  try_advance();
  adopt_orphans(l, wait_for_orphans);
  harvest(l);
}

// Releases the thread's slot at thread exit.
struct ExitHook {
  ~ExitHook() {
    ThreadView& t = tls_view;
    if (t.slot == nullptr) return;
    Local& l = *t.local;
    // Free what the other threads let us free now, orphans included (so
    // the last thread of a group to exit frees the group's leftovers),
    // and hand off the rest.
    for (int round = 0; round < 4; ++round) {
      collect_local(l, /*wait_for_orphans=*/true);
      free_some(l, l.pending);
      if (l.pending == 0) break;
    }
    seal(l);
    if (l.pending != 0) {
      Domain& d = domain();
      const std::lock_guard lock{d.orphans_mu};
      for (Bag& bag : l.ready) d.orphans.push_back(std::move(bag));
      for (Bag& bag : l.sealed) d.orphans.push_back(std::move(bag));
      d.has_orphans.store(true, std::memory_order_relaxed);
    }
    t.slot->state.store(0, std::memory_order_release);
    t.slot->in_use.store(false, std::memory_order_release);
    Local* const local = t.local;
    t = ThreadView{};
    delete local;
  }
};

}  // namespace

void register_thread() {
  thread_local ExitHook hook;
  (void)hook;
  Domain& d = domain();
  Slot* slot = nullptr;
  for (Slot* s = d.slots.load(std::memory_order_acquire); s != nullptr;
       s = s->next) {
    bool expected = false;
    if (!s->in_use.load(std::memory_order_relaxed) &&
        s->in_use.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
      slot = s;
      break;
    }
  }
  if (slot == nullptr) {
    slot = new Slot;
    slot->in_use.store(true, std::memory_order_relaxed);
    Slot* head = d.slots.load(std::memory_order_relaxed);
    do {
      slot->next = head;
    } while (!d.slots.compare_exchange_weak(head, slot,
                                            std::memory_order_release,
                                            std::memory_order_relaxed));
  }
  ThreadView& t = tls_view;
  t.slot = slot;
  t.local = new Local;
  t.local->current.reserve(kBatch);
}

void collect() {
  collect_local(*tls_view.local, /*wait_for_orphans=*/false);
}

}  // namespace detail

void* allocate(std::size_t bytes) {
  if (detail::Local* l = detail::tls_view.local;
      detail::kCacheBlocks && l != nullptr) {
    if (auto* b = detail::find_bin(l->cache.bins, bytes); b != nullptr) {
      if (b->loaded.count == 0) {
        if (b->previous.count != 0) {
          std::swap(b->loaded, b->previous);
        } else {
          detail::depot_take(bytes, b->loaded);
        }
      }
      if (b->loaded.count != 0) return b->loaded.pop();
    }
  }
  return ::operator new(bytes);
}

void deallocate(void* p, std::size_t bytes) noexcept {
  if (detail::Local* l = detail::tls_view.local;
      detail::kCacheBlocks && l != nullptr) {
    if (auto* b = detail::find_bin(l->cache.bins, bytes); b != nullptr) {
      if (b->loaded.count == detail::kMagazine) {
        if (b->previous.count != 0 &&
            !detail::depot_put(bytes, b->previous, /*wait=*/false)) {
          ::operator delete(p);
          return;
        }
        std::swap(b->loaded, b->previous);
      }
      b->loaded.push(p);
      return;
    }
  }
  ::operator delete(p);
}

void retire(void* p, Deleter deleter, std::uint32_t grace_periods) {
  detail::ThreadView& t = detail::tls_view;
  if (t.slot == nullptr) [[unlikely]] detail::register_thread();
  detail::Local& l = *t.local;
  l.current.push_back(detail::Retired{p, deleter, grace_periods});
  ++l.pending;
  telemetry::prod().reclaim_retired.inc();
  detail::free_some(l, detail::kFreesPerRetire);
  if (l.current.size() >= kBatch) {
    if (t.depth == 0) {
      detail::collect();
    } else {
      t.collect_due = true;
    }
  }
}

bool drain() {
  detail::ThreadView& t = detail::tls_view;
  if (t.slot == nullptr) detail::register_thread();
  detail::Local& l = *t.local;
  // Each round advances the epoch at most once; an item needs two
  // advances per grace period, and at most two grace periods.
  for (int round = 0; round < 8; ++round) {
    detail::collect_local(l, /*wait_for_orphans=*/true);
    detail::free_some(l, l.pending);
    if (l.pending == 0) return true;
  }
  return false;
}

std::uint64_t pending() {
  const detail::ThreadView& t = detail::tls_view;
  return t.local == nullptr ? 0 : t.local->pending;
}

}  // namespace ruco::reclaim
