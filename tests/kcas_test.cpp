// The k-CAS extension (Attiya & Hendler, reference [6]): primitive
// semantics in the simulator, awareness/familiarity flow through multi-word
// events, the generalized Lemma 1 growth bound, and the 2-CAS counter --
// which beats Theorem 1's frontier solo (legal: stronger primitive) and is
// starved to Theta(N) rounds by the adversary (it is lock-free, not
// wait-free).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <type_traits>

#include "ruco/adversary/counter_adversary.h"
#include "ruco/adversary/lemma_one.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/sim/awareness.h"
#include "ruco/sim/schedulers.h"
#include "ruco/sim/system.h"
#include "ruco/simalgos/programs.h"
#include "ruco/simalgos/sim_counters.h"

namespace ruco::sim {
namespace {

Op kcas_two(Ctx& ctx, ObjectId a, ObjectId b, Value ea, Value eb, Value da,
            Value db) {
  // No initializer_list inside coroutines (GCC 12 limitation).
  std::vector<KcasEntry> words(2);
  words[0] = KcasEntry{a, ea, da};
  words[1] = KcasEntry{b, eb, db};
  co_return co_await ctx.kcas(std::move(words));
}

TEST(Kcas, SucceedsWhenAllMatch) {
  Program prog;
  const ObjectId a = prog.add_object(1);
  const ObjectId b = prog.add_object(2);
  prog.add_process([=](Ctx& ctx) { return kcas_two(ctx, a, b, 1, 2, 10, 20); });
  System sys{prog};
  run_solo(sys, 0, 10);
  EXPECT_EQ(sys.result(0), 1);
  EXPECT_EQ(sys.value(a), 10);
  EXPECT_EQ(sys.value(b), 20);
  EXPECT_EQ(sys.steps_taken(0), 1u) << "a k-CAS is one step";
}

TEST(Kcas, FailsAtomicallyOnAnyMismatch) {
  Program prog;
  const ObjectId a = prog.add_object(1);
  const ObjectId b = prog.add_object(99);  // mismatch
  prog.add_process([=](Ctx& ctx) { return kcas_two(ctx, a, b, 1, 2, 10, 20); });
  System sys{prog};
  run_solo(sys, 0, 10);
  EXPECT_EQ(sys.result(0), 0);
  EXPECT_EQ(sys.value(a), 1) << "no partial installation";
  EXPECT_EQ(sys.value(b), 99);
}

TEST(Kcas, TrivialWhenDesiredEqualsCurrent) {
  Program prog;
  const ObjectId a = prog.add_object(1);
  const ObjectId b = prog.add_object(2);
  prog.add_process([=](Ctx& ctx) { return kcas_two(ctx, a, b, 1, 2, 1, 2); });
  System sys{prog};
  run_solo(sys, 0, 10);
  EXPECT_EQ(sys.result(0), 1) << "reports success";
  EXPECT_FALSE(sys.trace().back().changed) << "but changes nothing";
}

TEST(Kcas, PendingInspectionSeesAllWords) {
  Program prog;
  const ObjectId a = prog.add_object(1);
  const ObjectId b = prog.add_object(2);
  prog.add_process([=](Ctx& ctx) { return kcas_two(ctx, a, b, 1, 2, 10, 20); });
  System sys{prog};
  const Pending* pending = sys.enabled(0);
  ASSERT_NE(pending, nullptr);
  EXPECT_EQ(pending->prim, Prim::kKcas);
  ASSERT_EQ(pending->kcas.size(), 2u);
  EXPECT_TRUE(sys.pending_would_change(0));
}

TEST(Kcas, WouldChangeTracksStaleness) {
  Program prog;
  const ObjectId a = prog.add_object(1);
  const ObjectId b = prog.add_object(2);
  prog.add_process([=](Ctx& ctx) { return kcas_two(ctx, a, b, 1, 2, 10, 20); });
  prog.add_process([=](Ctx& ctx) -> Op {
    co_await ctx.write(b, 7);
    co_return 0;
  });
  System sys{prog};
  EXPECT_TRUE(sys.pending_would_change(0));
  sys.step(1);  // b := 7, staling the k-CAS
  EXPECT_FALSE(sys.pending_would_change(0));
}

TEST(Kcas, AwarenessFlowsThroughEveryWord) {
  // p0 writes a; p1 writes b; p2's (even failing) k-CAS over {a, b} learns
  // of both writers.
  Program prog;
  const ObjectId a = prog.add_object(0);
  const ObjectId b = prog.add_object(0);
  prog.add_process([=](Ctx& ctx) -> Op {
    co_await ctx.write(a, 1);
    co_return 0;
  });
  prog.add_process([=](Ctx& ctx) -> Op {
    co_await ctx.write(b, 2);
    co_return 0;
  });
  prog.add_process(
      [=](Ctx& ctx) { return kcas_two(ctx, a, b, 5, 5, 6, 6); });
  System sys{prog};
  sys.step(0);
  sys.step(1);
  sys.step(2);  // fails (expected 5s) but observes both objects
  EXPECT_EQ(sys.result(2), 0);
  EXPECT_TRUE(sys.awareness(2).contains(0));
  EXPECT_TRUE(sys.awareness(2).contains(1));
}

TEST(Kcas, SuccessfulKcasVisibleOnChangedWordsOnly) {
  Program prog;
  const ObjectId a = prog.add_object(1);
  const ObjectId b = prog.add_object(2);
  // Changes a, leaves b at its current value (desired == expected).
  prog.add_process([=](Ctx& ctx) { return kcas_two(ctx, a, b, 1, 2, 9, 2); });
  System sys{prog};
  sys.step(0);
  EXPECT_TRUE(sys.familiarity(a).contains(0));
  EXPECT_FALSE(sys.familiarity(b).contains(0))
      << "no value change on b, nothing visible there";
}

TEST(Kcas, OfflineRecomputationAgreesOnKcasFlows) {
  Program prog;
  const ObjectId a = prog.add_object(0);
  const ObjectId b = prog.add_object(0);
  prog.add_process([=](Ctx& ctx) -> Op {
    co_await ctx.write(a, 3);
    co_return 0;
  });
  prog.add_process([=](Ctx& ctx) { return kcas_two(ctx, a, b, 3, 0, 4, 1); });
  prog.add_process([=](Ctx& ctx) -> Op {
    co_return co_await ctx.read(b);
  });
  System sys{prog};
  run_round_robin(sys, 100);
  const auto offline =
      recompute_knowledge(sys.trace(), sys.num_processes(), sys.num_objects());
  for (ProcId p = 0; p < sys.num_processes(); ++p) {
    EXPECT_EQ(offline.awareness[p], sys.awareness(p)) << "p" << p;
  }
  // p2 read b, which p1's successful k-CAS changed after observing p0's
  // write to a: transitive flow p0 -> p1 -> p2.
  EXPECT_TRUE(sys.awareness(2).contains(0));
  EXPECT_TRUE(sys.awareness(2).contains(1));
}

TEST(Kcas, ReplayReproducesKcasResponses) {
  Program prog;
  const ObjectId a = prog.add_object(0);
  const ObjectId b = prog.add_object(0);
  for (int i = 0; i < 3; ++i) {
    prog.add_process(
        [=](Ctx& ctx) { return kcas_two(ctx, a, b, 0, 0, 1, 1); });
  }
  System sys{prog};
  sys.step(0);  // wins
  sys.step(1);  // fails
  sys.step(2);  // fails
  System fresh{prog};
  const auto replay = replay_trace(fresh, sys.trace(), true);
  EXPECT_TRUE(replay.ok) << replay.message;
}

// ------------------------------------------------------- flat step records

TEST(FlatRecords, EventAndPendingAreTriviallyCopyable) {
  // Every step copies a Pending and appends an Event: neither may own heap
  // memory, and the Event stays within 40 bytes.
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(sizeof(Event) <= 40);
  static_assert(std::is_trivially_copyable_v<Pending>);
  static_assert(sizeof(Pending) <= 40);
}

/// p0 and p1 each read a, then 2-CAS (a, b) from the value seen; p2 writes
/// an object nobody else touches.
Program make_two_cas_program() {
  Program prog;
  const ObjectId a = prog.add_object(0);
  const ObjectId b = prog.add_object(0);
  const ObjectId c = prog.add_object(0);
  for (int i = 0; i < 2; ++i) {
    prog.add_process([=](Ctx& ctx) -> Op {
      const Value seen = co_await ctx.read(a);
      co_return co_await kcas_two(ctx, a, b, seen, seen, seen + 1, seen + 1);
    });
  }
  prog.add_process([=](Ctx& ctx) -> Op {
    co_await ctx.write(c, 7);
    co_return 0;
  });
  return prog;
}

TEST(FlatRecords, SuspendedKcasListsItsWords) {
  const Program prog = make_two_cas_program();
  System sys{prog};
  sys.step(0);  // reads a == 0; suspends on its 2-CAS
  sys.step(1);  // likewise
  sys.step(2);
  const std::vector<KcasEntry> want{KcasEntry{0, 0, 1}, KcasEntry{1, 0, 1}};
  for (const ProcId p : {0u, 1u}) {
    const Pending* pending = sys.enabled(p);
    ASSERT_NE(pending, nullptr);
    EXPECT_EQ(pending->prim, Prim::kKcas);
    EXPECT_EQ(pending->obj, 0u);
    EXPECT_TRUE(std::ranges::equal(pending->kcas, want)) << "p" << p;
  }
}

TEST(FlatRecords, ErasedKcasTraceReplaysOnAFreshSystem) {
  const Program prog = make_two_cas_program();
  Trace kept;
  {
    auto sys = std::make_unique<System>(prog);
    sys->step(2);
    sys->step(0);
    sys->step(0);  // wins: a = b = 1
    sys->step(1);  // reads a == 1
    sys->step(1);  // wins: a = b = 2
    ASSERT_TRUE(all_done(*sys));
    std::vector<bool> erase(3, false);
    erase[2] = true;  // nobody observed p2
    kept = erase_processes(sys->trace(), erase);
  }  // the copy outlives the System whose steps it records
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_TRUE(std::ranges::equal(
      kept.words(kept[1]),
      std::vector<KcasEntry>{KcasEntry{0, 0, 1}, KcasEntry{1, 0, 1}}));
  EXPECT_TRUE(std::ranges::equal(
      kept.words(kept[3]),
      std::vector<KcasEntry>{KcasEntry{0, 1, 2}, KcasEntry{1, 1, 2}}));
  System fresh{prog};
  const auto replay = replay_trace(fresh, kept, /*check_responses=*/true);
  EXPECT_TRUE(replay.ok) << replay.message;
  EXPECT_EQ(fresh.value(0), 2);
  EXPECT_EQ(fresh.value(1), 2);
}

TEST(FlatRecords, ReplayComparesKcasWords) {
  // Same process, object and primitive, different words: an action
  // mismatch, reported with both events' words.
  const Program prog = make_two_cas_program();
  System sys{prog};
  sys.step(0);
  sys.step(0);
  Trace forged;
  forged.push_back(sys.trace()[0]);
  forged.push_back(sys.trace()[1],
                   std::vector<KcasEntry>{KcasEntry{0, 0, 9},
                                          KcasEntry{1, 0, 1}});
  System fresh{prog};
  const auto replay = replay_trace(fresh, forged, false);
  EXPECT_FALSE(replay.ok);
  EXPECT_EQ(replay.mismatch_index, 1u);
  EXPECT_NE(replay.message.find("o0(0->9)"), std::string::npos)
      << replay.message;
}

TEST(FlatRecords, OverlongKcasIsRejected) {
  Program prog;
  (void)prog.add_object(0);
  prog.add_process([](Ctx& ctx) -> Op {
    std::vector<KcasEntry> words(std::size_t{UINT16_MAX} + 1);
    co_await ctx.kcas(std::move(words));
    co_return 0;
  });
  EXPECT_THROW({ System sys{prog}; }, std::invalid_argument);
}

TEST(KcasLemmaOne, GeneralizedGrowthBound) {
  // With k-word CAS a round can multiply knowledge by more than 3, but at
  // most (2k+1) (cf. Attiya-Hendler): each k-CAS absorbs <= k familiarity
  // sets and a winner re-publishes them.  Check the k=2 bound (<= 5x) over
  // the 2-CAS counter workload.
  auto bundle = simalgos::make_kcas_counter_program(64);
  sim::System sys{bundle.program};
  std::vector<ProcId> procs;
  for (ProcId p = 0; p < bundle.num_incrementers; ++p) procs.push_back(p);
  for (int round = 0; round < 400; ++round) {
    std::vector<ProcId> active;
    for (const ProcId p : procs) {
      if (sys.active(p)) active.push_back(p);
    }
    if (active.empty()) break;
    const auto r = adversary::lemma_one_round(sys, active);
    EXPECT_LE(r.knowledge_after,
              5 * std::max<std::size_t>(r.knowledge_before, 1))
        << "round " << round;
  }
}

}  // namespace
}  // namespace ruco::sim

namespace ruco::simalgos {
namespace {

TEST(KcasCounter, CountsSequentially) {
  sim::Program prog;
  SimKcasCounter counter{prog, 4};
  prog.add_process([&counter](sim::Ctx& ctx) -> sim::Op {
    for (int i = 0; i < 5; ++i) co_await counter.increment(ctx);
    co_return co_await counter.read(ctx);
  });
  sim::System sys{prog};
  sim::run_solo(sys, 0, 1000);
  EXPECT_EQ(sys.result(0), 5);
}

TEST(KcasCounter, SoloIncrementIsThreeSteps) {
  // Below Theorem 1's frontier -- which is fine, 2-CAS is outside the
  // model (the same caveat as fetch_add in the production layer).
  sim::Program prog;
  SimKcasCounter counter{prog, 4};
  prog.add_process(
      [&counter](sim::Ctx& ctx) { return counter.increment(ctx); });
  sim::System sys{prog};
  sim::run_solo(sys, 0, 100);
  EXPECT_EQ(sys.steps_taken(0), 3u);
}

TEST(KcasCounter, LinearizableUnderRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto bundle = make_kcas_counter_program(8);
    sim::System sys{bundle.program};
    sim::run_random(sys, seed, 1u << 22);
    ASSERT_TRUE(sim::all_done(sys)) << "seed " << seed;
    const auto res = lincheck::check_linearizable(
        lincheck::from_sim_history(sys.history()), lincheck::CounterSpec{});
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "seed " << seed << ": " << res.message;
  }
}

TEST(KcasCounter, AdversaryStarvesToLinearRounds) {
  // The punchline: the wait-free f-array finishes in Theta(log N) rounds;
  // the lock-free 2-CAS counter needs Theta(N) rounds because the
  // adversary lets exactly one k-CAS win per attempt wave.
  const auto kcas = adversary::run_counter_adversary(
      make_kcas_counter_program(64));
  const auto farray = adversary::run_counter_adversary(
      make_farray_counter_program(64));
  EXPECT_TRUE(kcas.reader_correct);
  EXPECT_GE(kcas.rounds, 63u) << "at least one wave per incrementer";
  EXPECT_GT(kcas.rounds, 2 * farray.rounds)
      << "starvable despite the stronger primitive";
  EXPECT_GE(kcas.max_increment_steps, 3u * 60u)
      << "some process retried nearly every wave";
}

}  // namespace
}  // namespace ruco::simalgos
