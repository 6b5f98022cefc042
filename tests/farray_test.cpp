// Generic f-array: aggregate semantics across combine functions, step
// bounds, threaded stress, and the documented monotonicity requirement
// (including a demonstration of what breaks without it).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ruco/farray/farray.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/maxreg/tree_max_register.h"
#include "ruco/runtime/padded.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/runtime/thread_harness.h"
#include "ruco/util/bits.h"
#include "ruco/util/rng.h"
#include "ruco/util/tree_shape.h"

namespace ruco::farray {
namespace {

TEST(FArray, MaxAggregate) {
  MaxFArray fa{8, kNoValue};
  EXPECT_EQ(fa.read_aggregate(0), kNoValue);
  fa.update(3, 17);
  fa.update(5, 9);
  EXPECT_EQ(fa.read_aggregate(0), 17);
  EXPECT_EQ(fa.read_slot(0, 3), 17);
  EXPECT_EQ(fa.read_slot(0, 5), 9);
}

TEST(FArray, SumAggregate) {
  SumFArray fa{5, 0};
  for (ProcId s = 0; s < 5; ++s) fa.update(s, static_cast<Value>(s) + 1);
  EXPECT_EQ(fa.read_aggregate(0), 15);
}

TEST(FArray, MinAggregateWithInfinityIdentity) {
  constexpr Value kInf = std::numeric_limits<Value>::max();
  MinFArray fa{4, kInf};
  EXPECT_EQ(fa.read_aggregate(0), kInf);
  fa.update(2, 100);
  fa.update(1, 42);
  EXPECT_EQ(fa.read_aggregate(0), 42);
}

TEST(FArray, OrAggregateUnionsBits) {
  OrFArray fa{4, 0};
  fa.update(0, 0b0001);
  fa.update(1, 0b0100);
  fa.update(3, 0b1000);
  EXPECT_EQ(fa.read_aggregate(0), 0b1101);
}

TEST(FArray, SingleSlotIsItsOwnRoot) {
  SumFArray fa{1, 0};
  fa.update(0, 7);
  EXPECT_EQ(fa.read_aggregate(0), 7);
}

TEST(FArray, RejectsZeroSlots) {
  EXPECT_THROW((SumFArray{0, 0}), std::invalid_argument);
}

class FArrayStepsTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FArrayStepsTest, UpdateLogNReadOne) {
  const std::uint32_t n = GetParam();
  MaxFArray fa{n, kNoValue};
  const std::uint64_t levels = util::ceil_log2(n);
  runtime::StepScope u;
  fa.update(0, 5);
  EXPECT_LE(u.taken(), 8 * levels + 1);
  runtime::StepScope r;
  (void)fa.read_aggregate(0);
  EXPECT_EQ(r.taken(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FArrayStepsTest,
                         ::testing::Values(1, 2, 3, 8, 100, 1024));

TEST(FArray, ThreadedMonotoneMaxConverges) {
  constexpr std::uint32_t kThreads = 8;
  MaxFArray fa{kThreads, kNoValue};
  runtime::run_threads(kThreads, [&fa](std::size_t t) {
    // Monotone per-slot updates, as the contract requires.
    for (Value v = 0; v <= 2000; ++v) {
      fa.update(static_cast<ProcId>(t), v * static_cast<Value>(t + 1));
    }
  });
  EXPECT_EQ(fa.read_aggregate(0), 2000 * 8);
}

TEST(FArray, ThreadedMonotoneSumIsExact) {
  constexpr std::uint32_t kThreads = 8;
  SumFArray fa{kThreads, 0};
  runtime::run_threads(kThreads, [&fa](std::size_t t) {
    for (Value v = 1; v <= 3000; ++v) fa.update(static_cast<ProcId>(t), v);
  });
  EXPECT_EQ(fa.read_aggregate(0), 3000 * 8);
}

TEST(FArray, ThreadedAggregateNeverRegresses) {
  // Under monotone updates the root is monotone too -- the observable form
  // of the ABA-freedom argument.
  MaxFArray fa{4, kNoValue};
  std::vector<Value> observed;
  runtime::run_threads(4, [&](std::size_t t) {
    if (t == 0) {
      observed.reserve(5000);
      for (int i = 0; i < 5000; ++i) {
        observed.push_back(fa.read_aggregate(0));
      }
    } else {
      for (Value v = 0; v < 2000; ++v) {
        fa.update(static_cast<ProcId>(t), v);
      }
    }
  });
  EXPECT_TRUE(std::is_sorted(observed.begin(), observed.end()));
}

TEST(FArray, NonMonotoneUpdatesCanRegressTheAggregate) {
  // Contract demonstration: writing a *smaller* value into a Max f-array
  // (non-monotone use) legitimately lowers slots, and the aggregate is not
  // a linearizable "max of current slots" under concurrency -- sequentially
  // it still converges, which is all we promise here.
  MaxFArray fa{2, kNoValue};
  fa.update(0, 100);
  EXPECT_EQ(fa.read_aggregate(0), 100);
  fa.update(0, 5);  // non-monotone slot write
  // Sequentially the refresh recomputes from the slots: aggregate drops.
  EXPECT_EQ(fa.read_aggregate(0), 5)
      << "sequential refresh tracks slots exactly";
}

TEST(FArray, RandomizedAgainstOracle) {
  util::SplitMix64 rng{404};
  constexpr std::uint32_t n = 6;
  SumFArray fa{n, 0};
  std::vector<Value> slots(n, 0);
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<ProcId>(rng.below(n));
    slots[s] += static_cast<Value>(rng.below(50));  // monotone growth
    fa.update(s, slots[s]);
    Value sum = 0;
    for (const Value v : slots) sum += v;
    ASSERT_EQ(fa.read_aggregate(0), sum) << "op " << i;
  }
}


// ------------------------------------------------ dense cell layout

// Cache lines spanned by the node cells (the allocation starts on a line).
std::size_t cell_lines(const runtime::DenseAtomicArray<Value>& cells) {
  const std::size_t bytes = cells.size() * sizeof(cells[0]);
  return (bytes + runtime::kCacheLine - 1) / runtime::kCacheLine;
}

TEST(FArrayDense, CellsAreOneLineAlignedAllocation) {
  // The trees of FArrayCounter{64} and TreeMaxRegister{64}.
  const SumFArray counter{64, 0};
  const maxreg::TreeMaxRegister alg_a{64};
  for (const auto* cells : {&counter.cells(), &alg_a.cells()}) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(cells->data()) %
                  runtime::kCacheLine,
              0u);
    EXPECT_EQ(sizeof((*cells)[0]), sizeof(Value));
  }
  // 64 leaves on 8 lines, their 8 parents on one, the root on its own.
  EXPECT_EQ(counter.cells().size(), 80u);
  EXPECT_EQ(cell_lines(counter.cells()), 10u);
  EXPECT_EQ(alg_a.cells().size(), alg_a.shape().node_count());
  EXPECT_LE(cell_lines(alg_a.cells()), 32u);
}

TEST(FArrayWide, LevelsStartOnLinesAndTheRootSharesWhenItFits) {
  struct Case {
    std::uint32_t n;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> levels;  // offset, count
    std::size_t cells;
  };
  const std::vector<Case> cases = {
      {1, {{0, 1}}, 8},                             // the leaf is the root
      {4, {{0, 4}, {4, 1}}, 8},                     // root in the leaf line
      {8, {{0, 8}, {8, 1}}, 16},                    // full line: own line
      {32, {{0, 32}, {32, 4}, {36, 1}}, 40},        // 4 parents leave room
      {64, {{0, 64}, {64, 8}, {72, 1}}, 80},        // 8 parents: own line
      {100, {{0, 100}, {104, 13}, {120, 2}, {122, 1}}, 128},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("N = " + std::to_string(c.n));
    const SumFArray fa{c.n, 0};
    ASSERT_EQ(fa.levels().size(), c.levels.size());
    for (std::size_t l = 0; l < c.levels.size(); ++l) {
      EXPECT_EQ(fa.levels()[l].offset, c.levels[l].first) << "level " << l;
      EXPECT_EQ(fa.levels()[l].count, c.levels[l].second) << "level " << l;
    }
    EXPECT_EQ(fa.cells().size(), c.cells);
    EXPECT_EQ(fa.num_slots(), c.n);
  }
}

TEST(FArrayWide, EveryLevelSizeSumsExactly) {
  // Level sizes around the fan-out: a partial last child group, a full
  // one, and one child more than a line.
  for (const std::uint32_t n : {7u, 8u, 9u, 63u, 64u, 65u, 513u}) {
    SCOPED_TRACE("N = " + std::to_string(n));
    SumFArray fa{n, 0};
    Value expected = 0;
    for (ProcId s = 0; s < n; ++s) {
      fa.update(s, static_cast<Value>(s) + 1);
      expected += static_cast<Value>(s) + 1;
      ASSERT_EQ(fa.read_aggregate(0), expected) << "after slot " << s;
    }
  }
}

// Four threads over N = 64 slots, thread t owning the slots = t mod 4: the
// eight leaves of every line have four different writers, the dense
// layout's false-sharing worst case.
constexpr std::uint32_t kStripedThreads = 4;
constexpr std::uint32_t kStripedSlots = 64;

TEST(FArrayDense, StripedWritersSumIsExactAndNeverRegresses) {
  constexpr Value kRounds = 300;
  SumFArray fa{kStripedSlots, 0};
  std::array<bool, kStripedThreads> monotone{true, true, true, true};
  runtime::run_threads(kStripedThreads, [&](std::size_t t) {
    Value last = 0;
    for (Value round = 1; round <= kRounds; ++round) {
      for (auto s = static_cast<ProcId>(t); s < kStripedSlots;
           s += kStripedThreads) {
        fa.update(s, round);
        const Value seen = fa.read_aggregate(static_cast<ProcId>(t));
        if (seen < last) monotone[t] = false;
        last = seen;
      }
    }
  });
  EXPECT_EQ(fa.read_aggregate(0), kRounds * kStripedSlots);
  for (std::uint32_t t = 0; t < kStripedThreads; ++t) {
    EXPECT_TRUE(monotone[t]) << "thread " << t << " saw the sum regress";
  }
}

TEST(FArrayDense, StripedWritersMaxIsLinearizable) {
  // Thread t writes t, t+4, t+8, ... round-robin over its slots, so every
  // slot's values rise, and reads the aggregate in between.
  MaxFArray fa{kStripedSlots, kNoValue};
  lincheck::Recorder recorder{kStripedThreads};
  runtime::run_threads(kStripedThreads, [&](std::size_t t) {
    const auto thread = static_cast<ProcId>(t);
    util::SplitMix64 rng{77 + t};
    auto slot = thread;
    Value v = static_cast<Value>(t);
    for (int i = 0; i < 40; ++i) {
      if (rng.chance(1, 2)) {
        const auto op = recorder.begin(thread, "WriteMax", v);
        fa.update(slot, v);
        recorder.end(thread, op, 0);
        v += kStripedThreads;
        slot = (slot + kStripedThreads) % kStripedSlots;
      } else {
        const auto op = recorder.begin(thread, "ReadMax", 0);
        recorder.end(thread, op, fa.read_aggregate(thread));
      }
    }
  });
  const auto res = lincheck::check_linearizable(recorder.harvest(),
                                                lincheck::MaxRegisterSpec{});
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.linearizable) << res.message;
}

}  // namespace
}  // namespace ruco::farray
