// Epoch-based reclamation (ruco/reclaim/ebr.h) and the two objects built
// on it: a pinned reader holds back frees, unpinning releases them,
// exiting threads leave nothing behind, the f-array snapshot and MCAS stay
// bounded in live memory however many operations run, and both stay
// linearizable while their versions are being freed under them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "ruco/kcas/mcas.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/reclaim/ebr.h"
#include "ruco/runtime/thread_harness.h"
#include "ruco/snapshot/farray_snapshot.h"
#include "ruco/telemetry/metrics.h"
#include "ruco/util/rng.h"

namespace ruco::reclaim {
namespace {

// A retirable object that counts its deleter runs.
struct Tracked {
  std::atomic<int>* freed;
};

void free_tracked(void* p) {
  auto* t = static_cast<Tracked*>(p);
  t->freed->fetch_add(1, std::memory_order_relaxed);
  delete t;
}

void retire_tracked(std::atomic<int>& freed, std::uint32_t grace_periods = 1) {
  retire(new Tracked{&freed}, &free_tracked, grace_periods);
}

// Pins on request from another thread, so tests can hold a grace period
// open at a chosen moment.
class PinnedThread {
 public:
  PinnedThread()
      : thread_{[this] {
          for (;;) {
            const int cmd = wait_for_command();
            if (cmd == kExit) return;
            if (cmd == kPin) guard_.emplace();
            if (cmd == kUnpin) guard_.reset();
            done_.fetch_add(1, std::memory_order_release);
          }
        }} {}
  ~PinnedThread() {
    send(kExit);
    thread_.join();
  }
  PinnedThread(const PinnedThread&) = delete;
  PinnedThread& operator=(const PinnedThread&) = delete;

  void pin() { run(kPin); }
  void unpin() { run(kUnpin); }

 private:
  static constexpr int kNone = 0;
  static constexpr int kPin = 1;
  static constexpr int kUnpin = 2;
  static constexpr int kExit = 3;

  void send(int cmd) { command_.store(cmd, std::memory_order_release); }
  void run(int cmd) {
    const int before = done_.load(std::memory_order_acquire);
    send(cmd);
    while (done_.load(std::memory_order_acquire) == before) {
      std::this_thread::yield();
    }
  }
  int wait_for_command() {
    for (;;) {
      const int cmd = command_.exchange(kNone, std::memory_order_acq_rel);
      if (cmd != kNone) return cmd;
      std::this_thread::yield();
    }
  }

  std::atomic<int> command_{kNone};
  std::atomic<int> done_{0};
  std::optional<Guard> guard_;  // touched only by thread_
  std::thread thread_;
};

TEST(Reclaim, UnpinnedRetireIsFreedByDrain) {
  std::atomic<int> freed{0};
  for (int i = 0; i < 10; ++i) retire_tracked(freed);
  EXPECT_TRUE(drain());
  EXPECT_EQ(freed.load(), 10);
  EXPECT_EQ(pending(), 0u);
}

TEST(Reclaim, PinnedReaderBlocksFreeUntilItUnpins) {
  std::atomic<int> freed{0};
  PinnedThread reader;
  reader.pin();
  // More than a bag's worth, so retire itself seals and collects too.
  for (std::uint32_t i = 0; i < 3 * kBatch; ++i) retire_tracked(freed);
  EXPECT_FALSE(drain()) << "a reader pinned before the retire holds it";
  EXPECT_EQ(freed.load(), 0);
  reader.unpin();
  EXPECT_TRUE(drain());
  EXPECT_EQ(freed.load(), static_cast<int>(3 * kBatch));
}

TEST(Reclaim, OwnPinBlocksFreeAndNestedGuardsPinOnce) {
  std::atomic<int> freed{0};
  {
    const Guard outer;
    {
      const Guard inner;
      retire_tracked(freed);
    }
    // The inner guard's exit must not have unpinned the thread.
    EXPECT_FALSE(drain());
    EXPECT_EQ(freed.load(), 0);
  }
  EXPECT_TRUE(drain());
  EXPECT_EQ(freed.load(), 1);
}

TEST(Reclaim, SecondGracePeriodWaitsForReadersPinnedAfterTheRetire) {
  std::atomic<int> one{0};
  std::atomic<int> two{0};
  PinnedThread reader;
  reader.pin();
  retire_tracked(one, 1);
  retire_tracked(two, 2);
  EXPECT_FALSE(drain());
  EXPECT_EQ(one.load() + two.load(), 0);
  // A new pin, taken after both retires: it cannot hold a one-grace-period
  // object, but it may hold one that helpers could re-publish.
  reader.unpin();
  reader.pin();
  EXPECT_FALSE(drain());
  EXPECT_EQ(one.load(), 1);
  EXPECT_EQ(two.load(), 0);
  reader.unpin();
  EXPECT_TRUE(drain());
  EXPECT_EQ(two.load(), 1);
}

TEST(Reclaim, ExitingThreadsLeaveNothingBehind) {
  // The main thread's pin keeps every worker's retires pending while the
  // workers exit, so each hands a non-empty pending list to the orphans.
  std::atomic<int> freed{0};
  constexpr int kThreads = 6;
  constexpr int kPerThread = 100;  // not a multiple of kBatch
  {
    const Guard pin;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&freed] {
        for (int i = 0; i < kPerThread; ++i) retire_tracked(freed);
        // Its own retires, plus any orphans of earlier workers it adopted.
        EXPECT_GE(pending(), static_cast<std::uint64_t>(kPerThread));
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(freed.load(), 0);
  }
  EXPECT_TRUE(drain());
  EXPECT_EQ(freed.load(), kThreads * kPerThread);
}

TEST(Reclaim, RoundsOfFreshThreadsFreeEverything) {
  // A server that starts new threads every round: slots are recycled and
  // every round's garbage is freed, pinned retires included.
  std::atomic<int> freed{0};
  for (int round = 0; round < 20; ++round) {
    runtime::run_threads(4, [&freed](std::size_t) {
      const Guard pin;
      for (int i = 0; i < 70; ++i) retire_tracked(freed);
    });
  }
  EXPECT_TRUE(drain());
  EXPECT_EQ(freed.load(), 20 * 4 * 70);
}

TEST(Reclaim, BlockCacheRoundTripsEverySize) {
  // More distinct sizes than the cache has bins and more blocks per size
  // than a thread keeps: the overflow must go to the depot or back to the
  // allocator (the ASan job checks nothing leaks or overlaps).
  const Guard pin;  // registers the thread, so its cache is in use
  std::vector<std::pair<void*, std::size_t>> blocks;
  for (std::size_t size = 8; size < 8 + 24 * 40; size += 40) {
    for (int i = 0; i < 200; ++i) {
      auto* p = static_cast<unsigned char*>(allocate(size));
      std::fill(p, p + size, static_cast<unsigned char>(i));
      blocks.emplace_back(p, size);
    }
  }
  for (const auto& [p, size] : blocks) deallocate(p, size);
#if !defined(__SANITIZE_ADDRESS__)  // ASan builds cache nothing
  // A cached block comes back to the next request of its size.
  void* a = allocate(48);
  deallocate(a, 48);
  EXPECT_EQ(allocate(48), a);
  deallocate(a, 48);
#endif
}

TEST(Reclaim, DepotHandsAnExitedThreadsBlocksToTheNextThread) {
  // Two magazines' worth: the first thread ends with both of its
  // magazines full and leaves them in the depot at exit; the second, its
  // own magazines empty, draws exactly those blocks back.
  constexpr std::size_t kSize = 48;
  constexpr int kBlocks = 128;
  std::vector<void*> freed;
  std::thread{[&freed] {
    const Guard pin;
    for (int i = 0; i < kBlocks; ++i) freed.push_back(allocate(kSize));
    for (void* p : freed) deallocate(p, kSize);
  }}.join();
  std::vector<void*> reused;
  std::thread{[&reused] {
    const Guard pin;
    for (int i = 0; i < kBlocks; ++i) reused.push_back(allocate(kSize));
    for (void* p : reused) deallocate(p, kSize);
  }}.join();
#if !defined(__SANITIZE_ADDRESS__)  // ASan builds cache nothing
  std::sort(freed.begin(), freed.end());
  std::sort(reused.begin(), reused.end());
  EXPECT_EQ(reused, freed);
#endif
}

#ifndef RUCO_NO_TELEMETRY

std::int64_t live_objects() {
  (void)telemetry::prod();  // registers the reclaim counters
  const telemetry::Snapshot snap = telemetry::Registry::global().snapshot();
  return static_cast<std::int64_t>(snap.find("reclaim", "retired")->value) -
         static_cast<std::int64_t>(snap.find("reclaim", "freed")->value);
}

// Runs `op(i)` for i < ops on the calling thread and returns the largest
// number of retired-but-unfreed objects seen in the first and in the
// second half of the run.
template <typename Op>
std::pair<std::int64_t, std::int64_t> peak_live(int ops, Op op) {
  EXPECT_TRUE(drain());
  const std::int64_t base = live_objects();
  std::int64_t first = 0;
  std::int64_t second = 0;
  for (int i = 0; i < ops; ++i) {
    op(i);
    if (i % 1000 == 999) {
      std::int64_t& peak = i < ops / 2 ? first : second;
      peak = std::max(peak, live_objects() - base);
    }
  }
  EXPECT_TRUE(drain());
  EXPECT_EQ(live_objects(), base) << "every retired object was freed";
  return {first, second};
}

// Runs `op(t, i)` for i < ops_per_round on `threads` fresh threads per
// round and returns the largest number of retired-but-unfreed objects
// left once a round's threads have exited.  Measured at the joins, so a
// thread the scheduler preempts while pinned -- which stalls the epoch,
// and with it every other thread's frees, for a time slice -- cannot
// make the number depend on the machine's load.
template <typename Op>
std::int64_t peak_live_after_rounds(std::size_t threads, int rounds,
                                    int ops_per_round, Op op) {
  EXPECT_TRUE(drain());
  const std::int64_t base = live_objects();
  std::int64_t peak = 0;
  for (int r = 0; r < rounds; ++r) {
    runtime::run_threads(threads, [&](std::size_t t) {
      for (int i = 0; i < ops_per_round; ++i) op(t, i);
    });
    peak = std::max(peak, live_objects() - base);
  }
  EXPECT_TRUE(drain());
  EXPECT_EQ(live_objects(), base) << "every retired object was freed";
  return peak;
}

// A bound independent of the op count: a few bags per thread.
constexpr std::int64_t kLiveBound = 8 * kBatch;

TEST(ReclaimBound, FArraySnapshotStaysBoundedOver200kUpdates) {
  snapshot::FArraySnapshot snap{64};
  const auto [first, second] = peak_live(200'000, [&](int i) {
    snap.update(static_cast<ProcId>(i % 64), i);
  });
  EXPECT_GT(first, 0) << "updates retire views";
  EXPECT_LE(first, kLiveBound);
  EXPECT_LE(second, kLiveBound);
}

TEST(ReclaimBound, McasArrayStaysBoundedOver200kDcas) {
  kcas::McasArray cells{8, 1'000'000, 1};
  const auto [first, second] = peak_live(200'000, [&](int i) {
    const auto a = static_cast<std::uint32_t>(i % 8);
    const auto b = static_cast<std::uint32_t>((i + 3) % 8);
    const Value va = cells.read(0, a);
    const Value vb = cells.read(0, b);
    EXPECT_TRUE(cells.dcas(0, {a, va, va - 1}, {b, vb, vb + 1}));
  });
  EXPECT_GT(first, 0) << "dcas retires descriptors";
  EXPECT_LE(first, kLiveBound);
  EXPECT_LE(second, kLiveBound);
}

TEST(ReclaimBound, FArraySnapshotRoundsLeaveNothingToGrow) {
  // 10 rounds x 4 threads x 5000 ops: 150k updates.
  snapshot::FArraySnapshot snap{64};
  const std::int64_t peak =
      peak_live_after_rounds(4, 10, 5000, [&](std::size_t t, int i) {
        if (i % 4 == 0) {
          (void)snap.scan(0);
        } else {
          snap.update(static_cast<ProcId>(t * 16 + i % 16), i);
        }
      });
  EXPECT_LE(peak, 4 * kLiveBound);
}

TEST(ReclaimBound, McasArrayRoundsLeaveNothingToGrow) {
  // 10 rounds x 4 threads x 5000 dcas.
  kcas::McasArray cells{8, 1'000'000, 4};
  const std::int64_t peak =
      peak_live_after_rounds(4, 10, 5000, [&](std::size_t t, int i) {
        const auto p = static_cast<ProcId>(t);
        const auto a = static_cast<std::uint32_t>((i + t) % 8);
        const auto b = static_cast<std::uint32_t>((i + t + 1 + i % 3) % 8);
        const Value va = cells.read(p, a);
        const Value vb = cells.read(p, b);
        (void)cells.dcas(p, {a, va, va - 1}, {b, vb, vb + 1});
      });
  EXPECT_LE(peak, 4 * kLiveBound);
  Value sum = 0;
  for (std::uint32_t c = 0; c < 8; ++c) sum += cells.read(0, c);
  EXPECT_EQ(sum, 8 * 1'000'000) << "transfers conserve the total";
}

#endif  // RUCO_NO_TELEMETRY

TEST(ReclaimStress, McasLinearizableWhileDescriptorsAreFreed) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kCells = 3;
  // Fresh threads every round: exits hand pending descriptors over while
  // the next round's operations run.
  for (int round = 0; round < 30; ++round) {
    kcas::McasArray cells{kCells, 10, kThreads};
    lincheck::Recorder recorder{kThreads};
    runtime::run_threads(kThreads, [&](std::size_t t) {
      util::SplitMix64 rng{1000u * static_cast<unsigned>(round) + t};
      const auto p = static_cast<ProcId>(t);
      for (int i = 0; i < 12; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.below(kCells));
        if (rng.chance(1, 2)) {
          const auto slot = recorder.begin(p, "Read", a);
          recorder.end(p, slot, cells.read(p, a));
          continue;
        }
        const auto b = (a + 1 + static_cast<std::uint32_t>(rng.below(2))) %
                       kCells;
        const Value ea = cells.read(p, a);
        const Value eb = cells.read(p, b);
        const auto slot = recorder.begin(p, "Dcas", 0);
        const bool ok = cells.dcas(p, {a, ea, ea - 1}, {b, eb, eb + 1});
        recorder.end(p, slot, std::vector<Value>{a, b, ea, eb, ok ? 1 : 0});
      }
    });
    const auto res = lincheck::check_linearizable(
        recorder.harvest(), lincheck::CellsSpec{kCells, 10});
    ASSERT_TRUE(res.decided) << "round " << round;
    ASSERT_TRUE(res.linearizable) << "round " << round << ": " << res.message;
  }
}

TEST(ReclaimStress, SnapshotLinearizableWhileViewsAreFreed) {
  constexpr std::uint32_t kThreads = 4;
  for (int round = 0; round < 30; ++round) {
    snapshot::FArraySnapshot snap{kThreads};
    lincheck::Recorder recorder{kThreads};
    runtime::run_threads(kThreads, [&](std::size_t t) {
      util::SplitMix64 rng{7000u * static_cast<unsigned>(round) + t};
      const auto p = static_cast<ProcId>(t);
      for (int i = 0; i < 12; ++i) {
        if (rng.chance(1, 2)) {
          const auto slot = recorder.begin(p, "Scan", 0);
          recorder.end(p, slot, snap.scan(p));
        } else {
          const Value v = static_cast<Value>(rng.below(5));
          const auto slot = recorder.begin(p, "Update", v);
          snap.update(p, v);
          recorder.end(p, slot, 0);
        }
      }
    });
    const auto res = lincheck::check_linearizable(
        recorder.harvest(), lincheck::SnapshotSpec{kThreads});
    ASSERT_TRUE(res.decided) << "round " << round;
    ASSERT_TRUE(res.linearizable) << "round " << round << ": " << res.message;
  }
}

TEST(ReclaimStress, ChurnKeepsInvariantsWhileMemoryIsReused) {
  // High volume, for the sanitizers: scanners check their views are
  // seq-monotone, readers check the MCAS total is conserved by
  // transfers, while every operation's garbage is being freed.
  constexpr std::uint32_t kThreads = 4;
  snapshot::FArraySnapshot snap{kThreads};
  kcas::McasArray cells{4, 100, kThreads};
  std::atomic<bool> broken{false};
  runtime::run_threads(kThreads, [&](std::size_t t) {
    const auto p = static_cast<ProcId>(t);
    util::SplitMix64 rng{t + 1};
    std::vector<std::uint64_t> last(kThreads, 0);
    for (int i = 0; i < 20'000; ++i) {
      switch (rng.below(4)) {
        case 0:
          snap.update(p, i);
          break;
        case 1: {
          const auto view = snap.scan_versions(p);
          for (std::uint32_t s = 0; s < kThreads; ++s) {
            if (view[s].second < last[s]) broken.store(true);
            last[s] = view[s].second;
          }
          break;
        }
        case 2: {
          const auto a = static_cast<std::uint32_t>(rng.below(4));
          const auto b = (a + 1) % 4;
          const Value va = cells.read(p, a);
          const Value vb = cells.read(p, b);
          (void)cells.dcas(p, {a, va, va - 1}, {b, vb, vb + 1});
          break;
        }
        default: {
          const Value v = cells.read(p, static_cast<std::uint32_t>(i % 4));
          if (v < 100 - 80'000 || v > 100 + 80'000) broken.store(true);
        }
      }
    }
  });
  EXPECT_FALSE(broken.load());
  Value sum = 0;
  for (std::uint32_t c = 0; c < 4; ++c) sum += cells.read(0, c);
  EXPECT_EQ(sum, 400);
  EXPECT_TRUE(drain());
}

}  // namespace
}  // namespace ruco::reclaim
