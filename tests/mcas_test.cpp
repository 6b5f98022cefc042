// Software multi-word CAS (Harris-Fraser-Pratt) and the 2-CAS counter
// built on it: sequential semantics, atomicity (no partial installs ever
// observable), input validation, reads that resolve descriptors without
// helping, threaded stress with helping, and linearizability of the array
// and of the derived counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iostream>
#include <vector>

#include "ruco/counter/kcas_counter.h"
#include "ruco/kcas/mcas.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/runtime/thread_harness.h"
#include "ruco/util/rng.h"

namespace ruco::kcas {

// White-box access to McasArray's descriptors: leaves a descriptor in a
// cell, in any state, without running its operation.
struct McasArrayTestPeer {
  using Descriptor = McasArray::McasDescriptor;
  using Status = McasArray::Status;
  using Word = McasArray::Word;

  static Descriptor* make(McasArray& a, const std::vector<McasWord>& sorted) {
    return a.make_descriptor(sorted);
  }
  static void destroy(Descriptor* d) { Descriptor::destroy(d); }
  static void decide(Descriptor* d, Status s) {
    d->status.store(static_cast<std::uintptr_t>(s));
  }
  static Word cell(const McasArray& a, std::uint32_t i) {
    return a.cells_[i].value.load();
  }
  static void set_cell(McasArray& a, std::uint32_t i, Word w) {
    a.cells_[i].value.store(w);
  }
  static std::uint32_t index(Descriptor* d, std::size_t w) {
    return d->words()[w].index;
  }
  // What the park CAS of the owner's RDCSS descriptor for word w leaves.
  static Word parked_rdcss(Descriptor* d, std::size_t w) {
    return McasArray::tag_rdcss(d->owner_rdcss() + w);
  }
  // What an acquisition of any word for d leaves.
  static Word acquired(Descriptor* d) { return McasArray::tag_mcas(d); }
};

namespace {

using Peer = McasArrayTestPeer;

TEST(Mcas, InitializesAllCells) {
  McasArray arr{4, 7, 2};
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(arr.read(0, i), 7);
}

TEST(Mcas, SucceedsWhenAllMatch) {
  McasArray arr{3, 0, 2};
  EXPECT_TRUE(arr.mcas(0, {McasWord{0, 0, 10}, McasWord{2, 0, 30}}));
  EXPECT_EQ(arr.read(0, 0), 10);
  EXPECT_EQ(arr.read(0, 1), 0) << "untouched cell unchanged";
  EXPECT_EQ(arr.read(0, 2), 30);
}

TEST(Mcas, FailsAtomicallyOnAnyMismatch) {
  McasArray arr{3, 0, 2};
  EXPECT_FALSE(arr.mcas(0, {McasWord{0, 0, 10}, McasWord{2, 99, 30}}));
  EXPECT_EQ(arr.read(0, 0), 0) << "no partial install";
  EXPECT_EQ(arr.read(0, 2), 0);
}

TEST(Mcas, SingleWordDegeneratesToCas) {
  McasArray arr{1, 5, 1};
  EXPECT_TRUE(arr.mcas(0, {McasWord{0, 5, 6}}));
  EXPECT_FALSE(arr.mcas(0, {McasWord{0, 5, 7}}));
  EXPECT_EQ(arr.read(0, 0), 6);
}

TEST(Mcas, EmptyIsVacuouslyTrue) {
  McasArray arr{1, 0, 1};
  EXPECT_TRUE(arr.mcas(0, {}));
}

TEST(Mcas, UnsortedInputIsSortedInternally) {
  McasArray arr{4, 1, 1};
  EXPECT_TRUE(arr.mcas(0, {McasWord{3, 1, 4}, McasWord{0, 1, 2}}));
  EXPECT_EQ(arr.read(0, 0), 2);
  EXPECT_EQ(arr.read(0, 3), 4);
}

TEST(Mcas, RejectsBadInput) {
  McasArray arr{2, 0, 1};
  EXPECT_THROW(arr.mcas(0, {McasWord{5, 0, 1}}), std::out_of_range);
  EXPECT_THROW(arr.mcas(0, {McasWord{0, 0, 1}, McasWord{0, 0, 2}}),
               std::invalid_argument);
  EXPECT_THROW(arr.mcas(0, {McasWord{0, 0, McasArray::kMaxValue + 1}}),
               std::out_of_range);
  EXPECT_THROW((McasArray{0, 0, 1}), std::invalid_argument);
}

TEST(Mcas, NegativeValuesRoundTrip) {
  McasArray arr{1, -5, 1};
  EXPECT_EQ(arr.read(0, 0), -5);
  EXPECT_TRUE(arr.mcas(0, {McasWord{0, -5, McasArray::kMinValue}}));
  EXPECT_EQ(arr.read(0, 0), McasArray::kMinValue);
}

TEST(Mcas, SequentialRandomAgainstOracle) {
  constexpr std::uint32_t kCells = 6;
  McasArray arr{kCells, 0, 1};
  std::vector<Value> oracle(kCells, 0);
  util::SplitMix64 rng{71};
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.below(kCells));
    auto b = static_cast<std::uint32_t>(rng.below(kCells));
    if (b == a) b = (b + 1) % kCells;
    // Half the time feed a stale expected value: must fail cleanly.
    const bool stale = rng.chance(1, 2);
    const Value ea = stale ? oracle[a] + 1000 : oracle[a];
    const bool ok = arr.mcas(0, {McasWord{a, ea, oracle[a] + 1},
                                 McasWord{b, oracle[b], oracle[b] + 1}});
    EXPECT_EQ(ok, !stale) << "op " << i;
    if (ok) {
      ++oracle[a];
      ++oracle[b];
    }
    for (std::uint32_t c = 0; c < kCells; ++c) {
      ASSERT_EQ(arr.read(0, c), oracle[c]) << "op " << i << " cell " << c;
    }
  }
}

TEST(Mcas, UncontendedStepCost) {
  // ~3k+1 CAS-object steps for a k-word MCAS: the software price of the
  // stronger primitive.
  McasArray arr{4, 0, 1};
  runtime::StepScope scope;
  (void)arr.mcas(0, {McasWord{0, 0, 1}, McasWord{1, 0, 1}});
  EXPECT_LE(scope.taken(), 16u);
  EXPECT_GE(scope.taken(), 7u);
}

// One read of cell i with a descriptor left in it: the value read, whether
// the cell's word is unchanged afterwards, and the steps the read took.
struct ResolvedRead {
  Value value;
  bool cell_unchanged;
  std::uint64_t steps;
};

ResolvedRead read_with(McasArray& arr, std::uint32_t i, Peer::Word word) {
  const Peer::Word before = Peer::cell(arr, i);
  Peer::set_cell(arr, i, word);
  runtime::StepScope scope;
  const Value v = arr.read(0, i);
  const std::uint64_t steps = scope.taken();
  const bool unchanged = Peer::cell(arr, i) == word;
  Peer::set_cell(arr, i, before);
  return {v, unchanged, steps};
}

TEST(McasResolvingRead, ParkedRdcssReadsItsExpectedValue) {
  McasArray arr{4, 0, 2};
  ASSERT_TRUE(arr.mcas(0, {McasWord{1, 0, 5}, McasWord{3, 0, 7}}));
  auto* d = Peer::make(arr, {McasWord{1, 5, 50}, McasWord{3, 7, 70}});
  for (std::size_t w = 0; w < 2; ++w) {
    SCOPED_TRACE(w);
    const std::uint32_t i = Peer::index(d, w);
    const ResolvedRead r = read_with(arr, i, Peer::parked_rdcss(d, w));
    EXPECT_EQ(r.value, i == 1 ? 5 : 7) << "the value the park replaced";
    EXPECT_TRUE(r.cell_unchanged) << "a read completes no RDCSS";
    EXPECT_EQ(r.steps, 2u) << "unpinned load + pinned reload";
  }
  Peer::destroy(d);
  EXPECT_EQ(arr.read(0, 1), 5);
  EXPECT_EQ(arr.read(0, 3), 7);
}

TEST(McasResolvingRead, McasDescriptorReadsItsLogicalValueInEveryState) {
  McasArray arr{4, 0, 2};
  ASSERT_TRUE(arr.mcas(0, {McasWord{1, 0, 5}, McasWord{3, 0, 7}}));
  auto* d = Peer::make(arr, {McasWord{1, 5, 50}, McasWord{3, 7, 70}});
  struct Case {
    Peer::Status status;
    Value cell1;
    Value cell3;
  };
  const Case cases[] = {{Peer::Status::kUndecided, 5, 7},
                        {Peer::Status::kSucceeded, 50, 70},
                        {Peer::Status::kFailed, 5, 7}};
  for (const Case& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.status));
    Peer::decide(d, c.status);
    for (const std::uint32_t i : {1u, 3u}) {
      const ResolvedRead r = read_with(arr, i, Peer::acquired(d));
      EXPECT_EQ(r.value, i == 1 ? c.cell1 : c.cell3);
      EXPECT_TRUE(r.cell_unchanged) << "a read releases no word";
      EXPECT_EQ(r.steps, 3u) << "unpinned load + pinned reload + status";
    }
  }
  Peer::destroy(d);
  EXPECT_EQ(arr.read(0, 1), 5);
  EXPECT_EQ(arr.read(0, 3), 7);
}

TEST(McasStress, DisjointPairsNeverInterfere) {
  // Threads 0/1 hammer cells {0,1}, threads 2/3 hammer {2,3}: totals per
  // pair must be exact (atomicity within a pair, isolation across pairs).
  constexpr int kPerThread = 4000;
  McasArray arr{4, 0, 4};
  runtime::run_threads(4, [&arr](std::size_t t) {
    const auto proc = static_cast<ProcId>(t);
    const std::uint32_t base = t < 2 ? 0 : 2;
    for (int i = 0; i < kPerThread; ++i) {
      for (;;) {
        const Value a = arr.read(proc, base);
        const Value b = arr.read(proc, base + 1);
        if (arr.mcas(proc, {McasWord{base, a, a + 1},
                            McasWord{base + 1, b, b + 1}})) {
          break;
        }
      }
    }
  });
  EXPECT_EQ(arr.read(0, 0), 2 * kPerThread);
  EXPECT_EQ(arr.read(0, 1), 2 * kPerThread);
  EXPECT_EQ(arr.read(0, 2), 2 * kPerThread);
  EXPECT_EQ(arr.read(0, 3), 2 * kPerThread);
}

TEST(McasStress, OverlappingWordsStayCoupled) {
  // Every thread 2-CASes (own cell, shared cell) keeping the invariant
  // shared == sum(own cells); readers must never observe it broken.
  constexpr std::uint32_t kThreads = 4;
  constexpr int kPerThread = 2500;
  McasArray arr{kThreads + 1, 0, kThreads + 1};
  std::atomic<bool> broken{false};
  runtime::run_threads(kThreads + 1, [&](std::size_t t) {
    const auto proc = static_cast<ProcId>(t);
    if (t == kThreads) {
      // Auditor: snapshot-free spot checks -- the shared total must always
      // be >= each own cell's value and <= kThreads * kPerThread.
      for (int i = 0; i < 20'000; ++i) {
        const Value total = arr.read(proc, kThreads);
        if (total < 0 || total > kThreads * kPerThread) broken.store(true);
      }
      return;
    }
    for (int i = 0; i < kPerThread; ++i) {
      for (;;) {
        const Value own = arr.read(proc, static_cast<std::uint32_t>(t));
        const Value total = arr.read(proc, kThreads);
        if (arr.mcas(proc,
                     {McasWord{static_cast<std::uint32_t>(t), own, own + 1},
                      McasWord{kThreads, total, total + 1}})) {
          break;
        }
      }
    }
  });
  EXPECT_FALSE(broken.load());
  Value sum = 0;
  for (std::uint32_t c = 0; c < kThreads; ++c) sum += arr.read(0, c);
  EXPECT_EQ(sum, kThreads * kPerThread);
  EXPECT_EQ(arr.read(0, kThreads), kThreads * kPerThread)
      << "the coupled total never drifts from the sum";
}

TEST(McasStress, ReadersNeverHelpAndStayLinearizable) {
  // Two transfer threads and two reader-only threads on 4 cells.  The
  // recorded histories must be linearizable, and no read may cost more
  // than the three steps of resolving an MCAS descriptor: helping even a
  // parked RDCSS would take five.
  constexpr std::uint32_t kCells = 4;
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kMaxReadSteps = 3;
  std::atomic<std::uint64_t> max_read_steps{0};
  std::atomic<std::uint64_t> resolved_reads{0};
  for (int round = 0; round < 24; ++round) {
    McasArray cells{kCells, 10, kThreads};
    lincheck::Recorder recorder{kThreads};
    std::atomic<int> transferring{2};
    runtime::run_threads(kThreads, [&](std::size_t t) {
      util::SplitMix64 rng{500u * static_cast<unsigned>(round) + t};
      const auto p = static_cast<ProcId>(t);
      if (t >= 2) {
        // Read for as long as the transfers run.  Every 16th read is
        // recorded (at most 16 of them); the others only add chances to
        // meet a descriptor, at no cost to the checker.
        std::uint64_t worst = 0;
        std::uint64_t resolved = 0;
        int recorded = 0;
        for (std::uint64_t n = 0; transferring.load() > 0; ++n) {
          const auto a = static_cast<std::uint32_t>(rng.below(kCells));
          const bool record = n % 16 == 0 && recorded < 16;
          const auto slot = record ? recorder.begin(p, "Read", a) : 0;
          const std::uint64_t before = runtime::thread_steps();
          const Value v = cells.read(p, a);
          const std::uint64_t steps = runtime::thread_steps() - before;
          if (record) {
            recorder.end(p, slot, v);
            ++recorded;
          }
          worst = std::max(worst, steps);
          if (steps > 1) ++resolved;
        }
        std::uint64_t seen = max_read_steps.load();
        while (seen < worst &&
               !max_read_steps.compare_exchange_weak(seen, worst)) {
        }
        resolved_reads.fetch_add(resolved);
        return;
      }
      for (int i = 0; i < 16; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.below(kCells));
        const auto b =
            (a + 1 + static_cast<std::uint32_t>(rng.below(kCells - 1))) %
            kCells;
        const Value ea = cells.read(p, a);
        const Value eb = cells.read(p, b);
        const auto slot = recorder.begin(p, "Dcas", 0);
        const bool ok = cells.dcas(p, {a, ea, ea - 1}, {b, eb, eb + 1});
        recorder.end(p, slot, std::vector<Value>{a, b, ea, eb, ok ? 1 : 0});
      }
      transferring.fetch_sub(1);
    });
    const auto res = lincheck::check_linearizable(
        recorder.harvest(), lincheck::CellsSpec{kCells, 10});
    ASSERT_TRUE(res.decided) << "round " << round;
    ASSERT_TRUE(res.linearizable) << "round " << round << ": " << res.message;
  }
  EXPECT_LE(max_read_steps.load(), kMaxReadSteps);
  // How often the readers met a descriptor depends on the schedule (on one
  // core, perhaps never); printed so a run shows what was exercised.
  std::cout << "reads that resolved a descriptor: " << resolved_reads.load()
            << "\n";
}

}  // namespace
}  // namespace ruco::kcas

namespace ruco::counter {
namespace {

TEST(KcasCounter, CountsSequentially) {
  KcasCounter c{4};
  EXPECT_EQ(c.read(0), 0);
  for (int i = 1; i <= 20; ++i) {
    c.increment(static_cast<ProcId>(i % 4));
    EXPECT_EQ(c.read(0), i);
  }
  EXPECT_EQ(c.mine(0), 5);
}

TEST(KcasCounter, ExactUnderThreads) {
  constexpr std::uint32_t kThreads = 6;
  constexpr int kPerThread = 3000;
  KcasCounter c{kThreads};
  runtime::run_threads(kThreads, [&c](std::size_t t) {
    for (int i = 0; i < kPerThread; ++i) {
      c.increment(static_cast<ProcId>(t));
    }
  });
  EXPECT_EQ(c.read(0), kThreads * kPerThread);
  for (ProcId p = 0; p < kThreads; ++p) EXPECT_EQ(c.mine(p), kPerThread);
}

TEST(KcasCounter, LinearizableUnderThreads) {
  constexpr std::uint32_t kThreads = 4;
  KcasCounter c{kThreads};
  lincheck::Recorder recorder{kThreads};
  runtime::run_threads(kThreads, [&](std::size_t t) {
    util::SplitMix64 rng{70 + t};
    const auto proc = static_cast<ProcId>(t);
    for (int i = 0; i < 50; ++i) {
      if (rng.chance(1, 2)) {
        const auto slot = recorder.begin(proc, "CounterIncrement", 0);
        c.increment(proc);
        recorder.end(proc, slot, 0);
      } else {
        const auto slot = recorder.begin(proc, "CounterRead", 0);
        recorder.end(proc, slot, c.read(proc));
      }
    }
  });
  const auto res = lincheck::check_linearizable(recorder.harvest(),
                                                lincheck::CounterSpec{});
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.linearizable) << res.message;
}

TEST(KcasCounter, ReadsNeverDecrease) {
  KcasCounter c{3};
  std::vector<Value> observed;
  runtime::run_threads(3, [&](std::size_t t) {
    if (t == 0) {
      observed.reserve(5000);
      for (int i = 0; i < 5000; ++i) observed.push_back(c.read(0));
    } else {
      for (int i = 0; i < 2000; ++i) c.increment(static_cast<ProcId>(t));
    }
  });
  EXPECT_TRUE(std::is_sorted(observed.begin(), observed.end()));
  EXPECT_EQ(c.read(0), 4000);
}

}  // namespace
}  // namespace ruco::counter
