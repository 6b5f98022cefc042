// The simulated shared-memory system: primitive semantics, enabled-event
// inspection, trace recording, the on-demand awareness/familiarity cache
// (Definitions 1-4), erasure + replay (Lemma 2 / Claim 1), offline
// recomputation, schedulers, and the model checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ruco/sim/awareness.h"
#include "ruco/sim/event.h"
#include "ruco/sim/fault.h"
#include "ruco/sim/model_checker.h"
#include "ruco/sim/op.h"
#include "ruco/sim/proc_set.h"
#include "ruco/sim/schedulers.h"
#include "ruco/sim/system.h"
#include "ruco/simalgos/programs.h"

namespace ruco::sim {
namespace {

// ------------------------------------------------------------- ProcSet

TEST(ProcSet, AddRemoveContains) {
  ProcSet s{130};
  EXPECT_TRUE(s.empty());
  s.add(0);
  s.add(64);
  s.add(129);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(129));
  EXPECT_FALSE(s.contains(1));
  EXPECT_EQ(s.count(), 3u);
  s.remove(64);
  EXPECT_FALSE(s.contains(64));
  EXPECT_EQ(s.count(), 2u);
}

TEST(ProcSet, UniteAndIntersect) {
  ProcSet a{100};
  ProcSet b{100};
  a.add(1);
  a.add(50);
  b.add(50);
  b.add(99);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_EQ(a.intersection(b), std::vector<ProcId>{50});
  a.unite(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.members(), (std::vector<ProcId>{1, 50, 99}));
}

TEST(ProcSet, DisjointDoNotIntersect) {
  ProcSet a{10};
  ProcSet b{10};
  a.add(1);
  b.add(2);
  EXPECT_FALSE(a.intersects(b));
  EXPECT_TRUE(a.intersection(b).empty());
}

// --------------------------------------------------------- primitives

Op write_then_read(Ctx& ctx, ObjectId o, Value v, Value* out) {
  co_await ctx.write(o, v);
  *out = co_await ctx.read(o);
  co_return *out;
}

TEST(System, WriteThenReadRoundTrip) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  Value seen = -1;
  prog.add_process(
      [o, &seen](Ctx& ctx) { return write_then_read(ctx, o, 42, &seen); });
  System sys{prog};
  EXPECT_TRUE(sys.active(0));
  run_solo(sys, 0, 100);
  EXPECT_TRUE(sys.done(0));
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(sys.result(0), 42);
  EXPECT_EQ(sys.value(o), 42);
  EXPECT_EQ(sys.steps_taken(0), 2u);
}

Op single_cas(Ctx& ctx, ObjectId o, Value expected, Value desired) {
  co_return co_await ctx.cas(o, expected, desired);
}

TEST(System, CasSucceedsOnMatch) {
  Program prog;
  const ObjectId o = prog.add_object(5);
  prog.add_process([o](Ctx& ctx) { return single_cas(ctx, o, 5, 9); });
  System sys{prog};
  run_solo(sys, 0, 10);
  EXPECT_EQ(sys.result(0), 1);
  EXPECT_EQ(sys.value(o), 9);
  EXPECT_TRUE(sys.trace().back().changed);
}

TEST(System, CasFailsOnMismatch) {
  Program prog;
  const ObjectId o = prog.add_object(5);
  prog.add_process([o](Ctx& ctx) { return single_cas(ctx, o, 4, 9); });
  System sys{prog};
  run_solo(sys, 0, 10);
  EXPECT_EQ(sys.result(0), 0);
  EXPECT_EQ(sys.value(o), 5);
  EXPECT_FALSE(sys.trace().back().changed);
}

TEST(System, CasToSameValueIsTrivial) {
  Program prog;
  const ObjectId o = prog.add_object(5);
  prog.add_process([o](Ctx& ctx) { return single_cas(ctx, o, 5, 5); });
  System sys{prog};
  run_solo(sys, 0, 10);
  EXPECT_EQ(sys.result(0), 1) << "CAS reports success";
  EXPECT_FALSE(sys.trace().back().changed) << "but the event is trivial";
}

TEST(System, EnabledEventIsInspectableBeforeStepping) {
  Program prog;
  const ObjectId o = prog.add_object(7);
  prog.add_process([o](Ctx& ctx) { return single_cas(ctx, o, 7, 8); });
  System sys{prog};
  const Pending* pending = sys.enabled(0);
  ASSERT_NE(pending, nullptr);
  EXPECT_EQ(pending->obj, o);
  EXPECT_EQ(pending->prim, Prim::kCas);
  EXPECT_EQ(pending->expected, 7);
  EXPECT_EQ(pending->arg, 8);
  EXPECT_TRUE(sys.pending_would_change(0));
  sys.step(0);
  EXPECT_EQ(sys.enabled(0), nullptr);
  EXPECT_FALSE(sys.step(0)) << "completed processes are not steppable";
}

TEST(System, PendingWouldChangeTracksCurrentValue) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return single_cas(ctx, o, 0, 1); });
  prog.add_process(
      [o](Ctx& ctx) -> Op { co_await ctx.write(o, 1); co_return 0; });
  System sys{prog};
  EXPECT_TRUE(sys.pending_would_change(0));
  EXPECT_TRUE(sys.pending_would_change(1));
  sys.step(1);  // o becomes 1
  EXPECT_FALSE(sys.pending_would_change(0)) << "CAS expected 0, now stale";
}

TEST(System, TraceRecordsEverything) {
  Program prog;
  const ObjectId a = prog.add_object(0);
  const ObjectId b = prog.add_object(0);
  prog.add_process([a, b](Ctx& ctx) -> Op {
    co_await ctx.write(a, 1);
    (void)co_await ctx.read(b);
    (void)co_await ctx.cas(b, 0, 2);
    co_return 0;
  });
  System sys{prog};
  run_solo(sys, 0, 10);
  ASSERT_EQ(sys.trace().size(), 3u);
  EXPECT_EQ(sys.trace()[0].prim, Prim::kWrite);
  EXPECT_EQ(sys.trace()[1].prim, Prim::kRead);
  EXPECT_EQ(sys.trace()[2].prim, Prim::kCas);
  EXPECT_EQ(sys.trace()[0].obj, a);
  EXPECT_EQ(sys.trace()[1].obj, b);
  EXPECT_TRUE(sys.trace()[2].changed);
}

TEST(System, NestedOpsPropagateSuspension) {
  // An op awaiting a sub-op must surface the sub-op's primitives one at a
  // time, exactly like inline code.
  Program prog;
  const ObjectId o = prog.add_object(3);
  prog.add_process([o](Ctx& ctx) -> Op {
    Value twice = 0;
    {
      Value once = co_await [](Ctx& c, ObjectId obj) -> Op {
        co_return co_await c.read(obj);
      }(ctx, o);
      twice = once * 2;
    }
    co_await ctx.write(o, twice);
    co_return twice;
  });
  System sys{prog};
  EXPECT_EQ(sys.enabled(0)->prim, Prim::kRead);
  sys.step(0);
  EXPECT_EQ(sys.enabled(0)->prim, Prim::kWrite);
  EXPECT_EQ(sys.enabled(0)->arg, 6);
  sys.step(0);
  EXPECT_TRUE(sys.done(0));
  EXPECT_EQ(sys.result(0), 6);
}

TEST(System, HistoryMarksCarryTimestamps) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) -> Op {
    ctx.mark_invoke("Write", 5);
    co_await ctx.write(o, 5);
    ctx.mark_return(0);
    co_return 0;
  });
  System sys{prog};
  run_solo(sys, 0, 10);
  ASSERT_EQ(sys.history().size(), 2u);
  EXPECT_EQ(sys.history()[0].kind, HistoryEvent::Kind::kInvoke);
  EXPECT_EQ(sys.history()[1].kind, HistoryEvent::Kind::kReturn);
  EXPECT_LT(sys.history()[0].time, sys.history()[1].time);
}

// ----------------------------------------- awareness and familiarity

Op write_one(Ctx& ctx, ObjectId o, Value v) {
  co_await ctx.write(o, v);
  co_return 0;
}
Op read_one(Ctx& ctx, ObjectId o) { co_return co_await ctx.read(o); }

TEST(Awareness, ReaderLearnsOfWriter) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 1); });
  prog.add_process([o](Ctx& ctx) { return read_one(ctx, o); });
  System sys{prog};
  EXPECT_EQ(sys.awareness(1).count(), 1u) << "initially self-aware only";
  sys.step(0);  // p0 writes -> o familiar with p0
  EXPECT_TRUE(sys.familiarity(o).contains(0));
  sys.step(1);  // p1 reads -> p1 aware of p0
  EXPECT_TRUE(sys.awareness(1).contains(0));
  EXPECT_FALSE(sys.awareness(0).contains(1)) << "writes learn nothing";
}

TEST(Awareness, ReadBeforeWriteLearnsNothing) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 1); });
  prog.add_process([o](Ctx& ctx) { return read_one(ctx, o); });
  System sys{prog};
  sys.step(1);  // read first
  sys.step(0);  // write after
  EXPECT_FALSE(sys.awareness(1).contains(0));
}

TEST(Awareness, TransitiveThroughIntermediary) {
  // p0 writes a; p1 reads a (learns p0) then writes b; p2 reads b and must
  // transitively learn of p0 (Definition 2 case 2).
  Program prog;
  const ObjectId a = prog.add_object(0);
  const ObjectId b = prog.add_object(0);
  prog.add_process([a](Ctx& ctx) { return write_one(ctx, a, 1); });
  prog.add_process([a, b](Ctx& ctx) -> Op {
    (void)co_await ctx.read(a);
    co_await ctx.write(b, 2);
    co_return 0;
  });
  prog.add_process([b](Ctx& ctx) { return read_one(ctx, b); });
  System sys{prog};
  sys.step(0);
  sys.step(1);
  sys.step(1);
  sys.step(2);
  EXPECT_TRUE(sys.awareness(2).contains(0)) << "transitive flow p0->p1->p2";
  EXPECT_TRUE(sys.awareness(2).contains(1));
}

TEST(Awareness, TrivialWriteIsInvisible) {
  Program prog;
  const ObjectId o = prog.add_object(7);
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 7); });  // same
  prog.add_process([o](Ctx& ctx) { return read_one(ctx, o); });
  System sys{prog};
  sys.step(0);
  EXPECT_FALSE(sys.familiarity(o).contains(0)) << "no change, no trace";
  sys.step(1);
  EXPECT_FALSE(sys.awareness(1).contains(0));
}

TEST(Awareness, FailedCasStillObserves) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 3); });
  prog.add_process([o](Ctx& ctx) { return single_cas(ctx, o, 0, 9); });
  System sys{prog};
  sys.step(0);
  sys.step(1);  // CAS fails (expected 0, found 3) but reads the object
  EXPECT_EQ(sys.result(1), 0);
  EXPECT_TRUE(sys.awareness(1).contains(0));
  EXPECT_FALSE(sys.familiarity(o).contains(1)) << "failed CAS is invisible";
}

TEST(Awareness, SuccessfulCasIsVisibleAndObserves) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return single_cas(ctx, o, 0, 9); });
  prog.add_process([o](Ctx& ctx) { return read_one(ctx, o); });
  System sys{prog};
  sys.step(0);
  EXPECT_TRUE(sys.familiarity(o).contains(0));
  sys.step(1);
  EXPECT_TRUE(sys.awareness(1).contains(0));
}

TEST(Awareness, OverwrittenWriteIsRetracted) {
  // Definition 1's second clause: p0's write is immediately overwritten by
  // p1 before anyone (including p0) observes it -> invisible, and o ends up
  // familiar only with p1.
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 1); });
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 2); });
  System sys{prog};
  sys.step(0);
  EXPECT_TRUE(sys.familiarity(o).contains(0));
  sys.step(1);
  EXPECT_FALSE(sys.familiarity(o).contains(0)) << "hidden by overwrite";
  EXPECT_TRUE(sys.familiarity(o).contains(1));
}

TEST(Awareness, InterveningReadBlocksRetraction) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 1); });
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 2); });
  prog.add_process([o](Ctx& ctx) { return read_one(ctx, o); });
  System sys{prog};
  sys.step(0);
  sys.step(2);  // someone observed p0's write
  sys.step(1);
  EXPECT_TRUE(sys.familiarity(o).contains(0)) << "observed writes stay";
  EXPECT_TRUE(sys.familiarity(o).contains(1));
}

TEST(Awareness, IssuerStepBlocksRetraction) {
  // p0 writes o then steps elsewhere; a later overwrite of o no longer
  // hides p0's write (Definition 1 requires the issuer to take no steps).
  Program prog;
  const ObjectId o = prog.add_object(0);
  const ObjectId other = prog.add_object(0);
  prog.add_process([o, other](Ctx& ctx) -> Op {
    co_await ctx.write(o, 1);
    (void)co_await ctx.read(other);
    co_return 0;
  });
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 2); });
  System sys{prog};
  sys.step(0);  // write o
  sys.step(0);  // read other (issuer stepped)
  sys.step(1);  // overwrite o
  EXPECT_TRUE(sys.familiarity(o).contains(0));
}

TEST(Awareness, WriteChainKeepsOnlyLastVisible) {
  // Lemma 1's sigma_2 argument: consecutive unobserved writes leave only
  // the final writer in the familiarity set.
  Program prog;
  const ObjectId o = prog.add_object(0);
  for (Value v = 1; v <= 4; ++v) {
    prog.add_process([o, v](Ctx& ctx) { return write_one(ctx, o, v); });
  }
  System sys{prog};
  for (ProcId p = 0; p < 4; ++p) sys.step(p);
  EXPECT_EQ(sys.familiarity(o).count(), 1u);
  EXPECT_TRUE(sys.familiarity(o).contains(3));
}

TEST(Awareness, MaxKnowledgeTracksLargestSet) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 1); });
  prog.add_process([o](Ctx& ctx) -> Op {
    (void)co_await ctx.read(o);
    co_await ctx.write(o, 2);
    co_return 0;
  });
  prog.add_process([o](Ctx& ctx) { return read_one(ctx, o); });
  System sys{prog};
  EXPECT_EQ(sys.max_knowledge(), 1u);
  sys.step(0);           // F(o) = {0}
  sys.step(1);           // AW(1) = {0,1}
  sys.step(1);           // F(o) = {0,1} (overwrite retracts, then adds AW(1))
  sys.step(2);           // AW(2) = {0,1,2}
  EXPECT_EQ(sys.max_knowledge(), 3u);
}

// ------------------------------------- offline recomputation (Defs 1-4)

TEST(OfflineKnowledge, MatchesOnlineOnSimpleFlows) {
  Program prog;
  const ObjectId a = prog.add_object(0);
  const ObjectId b = prog.add_object(0);
  prog.add_process([a](Ctx& ctx) { return write_one(ctx, a, 1); });
  prog.add_process([a, b](Ctx& ctx) -> Op {
    (void)co_await ctx.read(a);
    co_await ctx.write(b, 2);
    co_return 0;
  });
  prog.add_process([b](Ctx& ctx) { return read_one(ctx, b); });
  System sys{prog};
  run_round_robin(sys, 100);
  const auto offline =
      recompute_knowledge(sys.trace(), sys.num_processes(), sys.num_objects());
  for (ProcId p = 0; p < sys.num_processes(); ++p) {
    EXPECT_EQ(offline.awareness[p], sys.awareness(p)) << "p" << p;
  }
  for (ObjectId o = 0; o < sys.num_objects(); ++o) {
    EXPECT_EQ(offline.familiarity[o], sys.familiarity(o)) << "o" << o;
  }
}

TEST(OfflineKnowledge, LiteralTrivialWriteHiding) {
  // Online keeps the first writer's contribution when a *trivial* write
  // lands on top (conservative); the literal Definition 1 hides it.  The
  // offline pass implements the literal rule: offline subset-of online.
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 5); });
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 5); });  // same v
  System sys{prog};
  sys.step(0);
  sys.step(1);
  EXPECT_TRUE(sys.familiarity(o).contains(0)) << "online: conservative";
  const auto offline =
      recompute_knowledge(sys.trace(), sys.num_processes(), sys.num_objects());
  EXPECT_FALSE(offline.familiarity[o].contains(0)) << "literal Def. 1";
}

TEST(OfflineKnowledge, FirstAwareIndex) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 1); });
  prog.add_process([o](Ctx& ctx) -> Op {
    (void)co_await ctx.read(o);  // event 1: becomes aware of p0
    (void)co_await ctx.read(o);  // event 2
    co_return 0;
  });
  System sys{prog};
  sys.step(0);
  sys.step(1);
  sys.step(1);
  const auto first =
      first_aware_index(sys.trace(), sys.num_processes(), sys.num_objects(), 0);
  EXPECT_EQ(first[0], 0u) << "a process is aware of itself at its 1st event";
  EXPECT_EQ(first[1], 1u);
}

// ------------------------------------------- deferred knowledge cache

// Every knowledge query of a System, in one comparable value.
struct KnowledgeView {
  std::vector<ProcSet> awareness;
  std::vector<ProcSet> familiarity;
  std::size_t max_now = 0;
  std::size_t max_seen = 0;

  friend bool operator==(const KnowledgeView&,
                         const KnowledgeView&) = default;
};

KnowledgeView query_all(const System& sys) {
  KnowledgeView view;
  for (ProcId p = 0; p < sys.num_processes(); ++p) {
    view.awareness.push_back(sys.awareness(p));
  }
  for (ObjectId o = 0; o < sys.num_objects(); ++o) {
    view.familiarity.push_back(sys.familiarity(o));
  }
  view.max_now = sys.max_knowledge();
  view.max_seen = sys.max_knowledge_seen();
  return view;
}

void apply_decision(System& sys, const SchedDecision& d) {
  switch (d.kind) {
    case SchedDecision::Kind::kStep:
      ASSERT_TRUE(sys.step(d.proc));
      break;
    case SchedDecision::Kind::kCrash:
      ASSERT_TRUE(sys.crash(d.proc));
      break;
    case SchedDecision::Kind::kSpurious:
      ASSERT_TRUE(sys.step_spurious(d.proc));
      break;
  }
}

TEST(SimKnowledge, DeferredEqualsEagerQueries) {
  // Systems of one Program follow one faulty schedule.  The eager one is
  // queried after every decision, so its cache absorbs one event at a
  // time; the deferred one is queried only at the end; the rerun one is
  // queried at the end of the schedule it replays after a mid-run reset(),
  // over a stale, already allocated cache.
  auto tree = simalgos::make_tree_maxreg_program(5);
  auto farray = simalgos::make_farray_counter_program(5);
  auto kcas = simalgos::make_kcas_counter_program(4);
  const std::vector<std::pair<const char*, const Program*>> programs{
      {"tree maxreg", &tree.program},
      {"f-array counter", &farray.program},
      {"k-CAS counter", &kcas.program}};
  std::size_t crashes = 0;
  std::size_t spurious = 0;
  for (const auto& [name, prog] : programs) {
    for (const bool pct : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(std::string{name} + (pct ? " pct" : " random") +
                     " seed " + std::to_string(seed));
        System recorder{*prog};
        recorder.enable_decision_log(true);
        FaultPlan plan;
        plan.seed = seed;
        plan.max_random_crashes = 2;
        plan.crash_per_mille = 30;
        plan.spurious_cas_per_mille = 150;
        FaultInjector injector{recorder, plan};
        if (pct) {
          PctOptions options;
          options.seed = seed;
          options.max_steps = 1u << 16;
          run_pct(recorder, options, injector);
        } else {
          run_random(recorder, seed, 1u << 16, injector);
        }
        ASSERT_TRUE(all_done(recorder));
        const std::vector<SchedDecision> schedule = recorder.decision_log();
        crashes += injector.crash_count();
        spurious += injector.spurious_count();

        System eager{*prog};
        std::size_t prefix_max = eager.max_knowledge();
        for (const SchedDecision& d : schedule) {
          apply_decision(eager, d);
          const KnowledgeView view = query_all(eager);
          // The high-water mark is M maximised over every prefix.
          prefix_max = std::max(prefix_max, view.max_now);
          ASSERT_EQ(view.max_seen, prefix_max);
        }
        const KnowledgeView expected = query_all(eager);
        ASSERT_EQ(eager.trace().size(), recorder.trace().size());

        System deferred{*prog};
        for (const SchedDecision& d : schedule) apply_decision(deferred, d);
        EXPECT_TRUE(query_all(deferred) == expected) << "queried at the end";

        // A different, shorter execution, queried half-way, leaves its sets
        // in the cache; the reset() in the middle of it must discard them.
        System rerun{*prog};
        run_round_robin(rerun, schedule.size() / 2);
        (void)query_all(rerun);
        rerun.reset();
        for (const SchedDecision& d : schedule) apply_decision(rerun, d);
        EXPECT_TRUE(query_all(rerun) == expected) << "after reset";
      }
    }
  }
  EXPECT_GT(crashes, 0u) << "the plans must crash someone";
  EXPECT_GT(spurious, 0u) << "the plans must fail some CAS spuriously";
}

TEST(SimKnowledge, ReturnedSetIsASnapshotAsOfTheCall) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 1); });
  prog.add_process([o](Ctx& ctx) { return read_one(ctx, o); });
  System sys{prog};
  sys.step(0);
  const ProcSet& aw = sys.awareness(1);
  EXPECT_FALSE(aw.contains(0));
  sys.step(1);
  EXPECT_FALSE(aw.contains(0)) << "a step alone does not refresh the cache";
  (void)sys.max_knowledge_seen();
  EXPECT_TRUE(aw.contains(0)) << "any knowledge query does";
  sys.reset();
  EXPECT_EQ(sys.awareness(1).count(), 1u) << "reset: back to {self}";
}

// ------------------------------------------- erasure + replay (Lemma 2)

TEST(Erasure, RemovingUnobservedProcessReplays) {
  Program prog;
  const ObjectId a = prog.add_object(0);
  const ObjectId b = prog.add_object(0);
  prog.add_process([a](Ctx& ctx) { return write_one(ctx, a, 1); });
  prog.add_process([b](Ctx& ctx) -> Op {  // touches only b: hidden from p0
    co_await ctx.write(b, 2);
    co_return co_await ctx.read(b);
  });
  System sys{prog};
  run_round_robin(sys, 100);
  std::vector<bool> erase(2, false);
  erase[1] = true;
  const Trace kept = erase_processes(sys.trace(), erase);
  EXPECT_EQ(kept.size(), 1u);
  System fresh{prog};
  const auto replay = replay_trace(fresh, kept, /*check_responses=*/true);
  EXPECT_TRUE(replay.ok) << replay.message;
}

TEST(Erasure, RemovingObservedProcessBreaksReplay) {
  // p1 read p0's write; erasing p0 alone changes p1's response -> the
  // filtered trace is NOT an execution, and replay detects it.
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 42); });
  prog.add_process([o](Ctx& ctx) { return read_one(ctx, o); });
  System sys{prog};
  sys.step(0);
  sys.step(1);
  ASSERT_EQ(sys.result(1), 42);
  std::vector<bool> erase(2, false);
  erase[0] = true;
  const Trace kept = erase_processes(sys.trace(), erase);
  System fresh{prog};
  const auto replay = replay_trace(fresh, kept, /*check_responses=*/true);
  EXPECT_FALSE(replay.ok) << "p1 must observe a different value";
}

TEST(Erasure, EraseAwareOfImplementsTheorem1Cut) {
  // Theorem 1 / Lemma 3's construction: erase pi plus every suffix of
  // events aware of pi; what remains replays cleanly.
  Program prog;
  const ObjectId o = prog.add_object(0);
  const ObjectId side = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 42); });
  prog.add_process([o, side](Ctx& ctx) -> Op {
    co_await ctx.write(side, 1);   // before learning of p0: kept
    (void)co_await ctx.read(o);    // learns of p0: cut from here
    co_await ctx.write(side, 2);   // dropped
    co_return 0;
  });
  System sys{prog};
  sys.step(1);
  sys.step(0);
  sys.step(1);
  sys.step(1);
  const Trace cut =
      erase_aware_of(sys.trace(), sys.num_processes(), sys.num_objects(), 0);
  ASSERT_EQ(cut.size(), 1u) << "only p1's first write survives";
  EXPECT_EQ(cut[0].obj, side);
  System fresh{prog};
  EXPECT_TRUE(replay_trace(fresh, cut, true).ok);
}

// ----------------------------------------------------------- schedulers

TEST(Schedulers, SoloRunsToCompletion) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) -> Op {
    for (int i = 0; i < 5; ++i) co_await ctx.write(o, i);
    co_return 0;
  });
  System sys{prog};
  EXPECT_EQ(run_solo(sys, 0, 100), 5u);
  EXPECT_TRUE(all_done(sys));
}

TEST(Schedulers, RandomIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    Program prog;
    const ObjectId o = prog.add_object(0);
    for (int p = 0; p < 3; ++p) {
      prog.add_process([o, p](Ctx& ctx) -> Op {
        for (int i = 0; i < 4; ++i) co_await ctx.write(o, p * 10 + i);
        co_return 0;
      });
    }
    System sys{prog};
    run_random(sys, seed, 1000);
    std::vector<ProcId> order;
    for (const auto& e : sys.trace()) order.push_back(e.proc);
    return order;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Schedulers, ScriptFollowsExactly) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  for (int p = 0; p < 2; ++p) {
    prog.add_process([o](Ctx& ctx) -> Op {
      co_await ctx.write(o, 1);
      co_await ctx.write(o, 2);
      co_return 0;
    });
  }
  System sys{prog};
  const std::vector<ProcId> script{1, 0, 0, 1};
  EXPECT_EQ(run_script(sys, script), 4u);
  for (std::size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(sys.trace()[i].proc, script[i]);
  }
}

TEST(Schedulers, RoundRobinRespectsBudget) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  for (int p = 0; p < 2; ++p) {
    prog.add_process([o](Ctx& ctx) -> Op {
      for (int i = 0; i < 100; ++i) co_await ctx.write(o, i);
      co_return 0;
    });
  }
  System sys{prog};
  EXPECT_EQ(run_round_robin(sys, 17), 17u);
  EXPECT_FALSE(all_done(sys));
}

// -------------------------------------------------------- model checker

TEST(ModelChecker, CountsInterleavings) {
  // Two processes, two steps each: C(4,2) = 6 schedules.
  Program prog;
  const ObjectId o = prog.add_object(0);
  for (int p = 0; p < 2; ++p) {
    prog.add_process([o](Ctx& ctx) -> Op {
      co_await ctx.write(o, 1);
      co_await ctx.write(o, 2);
      co_return 0;
    });
  }
  const auto result = model_check(prog, [](const System&) { return ""; });
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.exhaustive);
  EXPECT_EQ(result.executions, 6u);
}

TEST(ModelChecker, FindsCounterexample) {
  // Verdict rejects executions where p1's read missed p0's write; some
  // interleavings do that, and the checker must surface one.
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) { return write_one(ctx, o, 1); });
  prog.add_process([o](Ctx& ctx) { return read_one(ctx, o); });
  const auto result = model_check(prog, [](const System& sys) {
    return sys.result(1) == 1 ? "" : "read missed the write";
  });
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.message, "read missed the write");
  ASSERT_FALSE(result.counterexample.empty());
  EXPECT_EQ(result.counterexample[0], 1u) << "reader scheduled first";
  EXPECT_FALSE(render_schedule(prog, result.counterexample).empty());
}

TEST(ModelChecker, BudgetCutsExploration) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  for (int p = 0; p < 3; ++p) {
    prog.add_process([o](Ctx& ctx) -> Op {
      for (int i = 0; i < 3; ++i) co_await ctx.write(o, i);
      co_return 0;
    });
  }
  ModelCheckOptions options;
  options.max_executions = 10;
  const auto result =
      model_check(prog, [](const System&) { return ""; }, options);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.exhaustive);
  EXPECT_EQ(result.executions, 10u);
}

}  // namespace
}  // namespace ruco::sim
