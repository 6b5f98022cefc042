// Equivalence and soundness tests for the exploration engine's three new
// mechanisms: sleep-set POR (+ persistent-set filter over declared
// footprints), parallel frontier-split exploration, and the replay-light
// iterative DFS vs the legacy recursion.  The contract under test:
//
//   * verdicts are identical across {legacy, iterative} x {por on/off} x
//     jobs in {1, 2, 8};
//   * counterexample traces are identical (POR keeps the DFS-first
//     representative of every equivalence class);
//   * for complete runs, execution counts are identical except that POR
//     may (only) shrink them, and POR node counts never exceed the
//     unreduced count;
//   * budget exhaustion and genuine failure are distinguishable
//     (StopReason), never conflated.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/sim/certify.h"
#include "ruco/sim/model_checker.h"
#include "ruco/sim/system.h"
#include "ruco/simalgos/programs.h"
#include "ruco/simalgos/sim_snapshots.h"

namespace ruco::sim {
namespace {

using Engine = ModelCheckOptions::Engine;

std::string maxreg_verdict(const System& sys) {
  const auto res = lincheck::check_linearizable(
      lincheck::from_sim_history(sys.history()),
      lincheck::MaxRegisterSpec{});
  if (!res.decided) return "undecided";
  return res.linearizable ? "" : "non-linearizable execution";
}

std::string counter_verdict(const System& sys) {
  const auto res = lincheck::check_linearizable(
      lincheck::from_sim_history(sys.history()), lincheck::CounterSpec{});
  if (!res.decided) return "undecided";
  return res.linearizable ? "" : "non-linearizable execution";
}

/// Runs the full engine matrix on one program and checks the equivalence
/// contract against the POR-off jobs=1 iterative baseline.
void expect_matrix_equivalent(const Program& program, const Verdict& verdict,
                              std::uint32_t max_crashes = 0) {
  ModelCheckOptions base;
  base.max_crashes = max_crashes;
  const auto reference = model_check(program, verdict, base);

  // Legacy differential oracle.
  {
    ModelCheckOptions o = base;
    o.engine = Engine::kLegacyRecursive;
    const auto legacy = model_check(program, verdict, o);
    EXPECT_EQ(legacy.ok, reference.ok);
    EXPECT_EQ(legacy.stop, reference.stop);
    EXPECT_EQ(legacy.executions, reference.executions);
    EXPECT_EQ(legacy.counterexample, reference.counterexample);
    EXPECT_EQ(legacy.message, reference.message);
  }

  for (const bool por : {false, true}) {
    for (const std::uint32_t jobs : {1u, 2u, 8u}) {
      ModelCheckOptions o = base;
      o.por = por;
      o.jobs = jobs;
      const auto got = model_check(program, verdict, o);
      SCOPED_TRACE("por=" + std::to_string(por) +
                   " jobs=" + std::to_string(jobs));
      EXPECT_EQ(got.ok, reference.ok);
      EXPECT_EQ(got.stop, reference.stop);
      EXPECT_EQ(got.counterexample, reference.counterexample);
      EXPECT_EQ(got.message, reference.message);
      if (por) {
        EXPECT_LE(got.executions, reference.executions);
        // Node counts are only comparable sequentially: with jobs > 1 a
        // failing run may touch extra nodes in subtrees past the failure
        // root before the stop propagates (verdict stays deterministic).
        if (jobs == 1) {
          EXPECT_LE(got.stats.nodes, reference.stats.nodes);
        }
      } else {
        EXPECT_EQ(got.executions, reference.executions);
      }
      if (reference.stop == StopReason::kComplete) {
        EXPECT_TRUE(got.exhaustive);
      }
    }
  }
}

// ------------------------------------------------------- seed programs pass

TEST(PorEquivalence, AlgorithmATree) {
  auto bundle = simalgos::make_tree_maxreg_program(2);  // 1 writer + reader
  expect_matrix_equivalent(bundle.program, maxreg_verdict);
}

TEST(PorEquivalence, CasMaxReg) {
  auto bundle = simalgos::make_cas_maxreg_program(3);  // 2 writers + reader
  expect_matrix_equivalent(bundle.program, maxreg_verdict);
}

TEST(PorEquivalence, AacMaxReg) {
  auto bundle = simalgos::make_aac_maxreg_program(3, 4);
  expect_matrix_equivalent(bundle.program, maxreg_verdict);
}

TEST(PorEquivalence, DoubleCollectSnapshotCounter) {
  auto bundle = simalgos::make_dc_snapshot_counter_program(2);
  expect_matrix_equivalent(bundle.program, counter_verdict);
}

TEST(PorEquivalence, Lemma1FArrayCounter) {
  // The Lemma 1 construction's target: the f-array counter the Theorem 1
  // adversary starves.
  auto bundle = simalgos::make_farray_counter_program(2);
  expect_matrix_equivalent(bundle.program, counter_verdict);
}

TEST(PorEquivalence, CrashyTreeMaxReg) {
  auto bundle = simalgos::make_tree_maxreg_program(2);
  expect_matrix_equivalent(bundle.program, maxreg_verdict,
                           /*max_crashes=*/1);
}

TEST(PorEquivalence, CrashyCasMaxReg) {
  auto bundle = simalgos::make_cas_maxreg_program(3);
  expect_matrix_equivalent(bundle.program, maxreg_verdict,
                           /*max_crashes=*/2);
}

// ------------------------------------------------ pinned exploration counts

/// The sleep-set engine's exact counts on the two max registers the
/// benchmark's model-check jobs explore.  Any change to the engine's
/// bookkeeping (record layout, frame reuse) must leave every count equal.
struct PinnedCounts {
  std::uint64_t executions, nodes, replays, replayed_steps, sleep_pruned;
};

void expect_pinned_counts(const Program& program, const PinnedCounts& want) {
  ModelCheckOptions o;
  o.por = true;
  const auto got = model_check(program, maxreg_verdict, o);
  EXPECT_TRUE(got.ok) << got.message;
  EXPECT_TRUE(got.exhaustive);
  EXPECT_EQ(got.executions, want.executions);
  EXPECT_EQ(got.stats.nodes, want.nodes);
  EXPECT_EQ(got.stats.replays, want.replays);
  EXPECT_EQ(got.stats.replayed_steps, want.replayed_steps);
  EXPECT_EQ(got.stats.sleep_pruned, want.sleep_pruned);
}

TEST(PorPinnedCounts, AlgorithmATreeK3) {
  auto bundle = simalgos::make_tree_maxreg_program(3);
  expect_pinned_counts(bundle.program,
                       {135631, 1898241, 255033, 6416220, 903435});
}

TEST(PorPinnedCounts, CasMaxRegK3) {
  auto bundle = simalgos::make_cas_maxreg_program(3);
  expect_pinned_counts(bundle.program, {35, 128, 35, 84, 0});
}

// ------------------------------------------------ seeded-bug programs fail

/// Two lost-update incrementers: read o, write o+1 without atomicity; the
/// final value must be 2 on sequential schedules but 1 when interleaved.
/// The verdict rejects the lost update, so exploration must find it --
/// with and without POR, at any job count, with the identical DFS-first
/// counterexample.
Program make_lost_update_program() {
  Program prog;
  const ObjectId o = prog.add_object(0);
  for (int i = 0; i < 2; ++i) {
    prog.add_process([o](Ctx& ctx) -> Op {
      const Value seen = co_await ctx.read(o);
      co_await ctx.write(o, seen + 1);
      co_return 0;
    });
  }
  return prog;
}

std::string no_lost_update(const System& sys) {
  return sys.value(0) == 2 ? "" : "lost update";
}

TEST(PorSoundness, SeededBugFoundIdenticallyEverywhere) {
  const Program prog = make_lost_update_program();
  expect_matrix_equivalent(prog, no_lost_update);
  // And the bug really is found.
  const auto result = model_check(prog, no_lost_update, ModelCheckOptions{});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.stop, StopReason::kCounterexample);
  EXPECT_EQ(result.message, "lost update");
}

TEST(PorSoundness, CrashSeededBugFoundWithPorAndJobs) {
  // A crash of either incrementer leaves the counter below 2: every
  // engine configuration must catch it.
  const Program prog = make_lost_update_program();
  for (const bool por : {false, true}) {
    for (const std::uint32_t jobs : {1u, 2u, 8u}) {
      ModelCheckOptions o;
      o.max_crashes = 1;
      o.por = por;
      o.jobs = jobs;
      const auto result = model_check(prog, no_lost_update, o);
      EXPECT_FALSE(result.ok);
      EXPECT_EQ(result.stop, StopReason::kCounterexample);
    }
  }
}

TEST(PorSoundness, BlockingLockStillRejectedUnderCrashes) {
  // SimLockMaxRegister negative control: crash the lock holder and the
  // survivor spins forever -- surfaced as a max_depth counterexample.  POR
  // and parallelism must not hide it.
  auto bundle = simalgos::make_lock_maxreg_program(2);
  for (const bool por : {false, true}) {
    for (const std::uint32_t jobs : {1u, 2u}) {
      ModelCheckOptions o;
      o.max_crashes = 1;
      o.max_depth = 300;
      o.por = por;
      o.jobs = jobs;
      const auto result = model_check(
          bundle.program, [](const System&) { return std::string{}; }, o);
      EXPECT_FALSE(result.ok) << "por=" << por << " jobs=" << jobs;
      EXPECT_EQ(result.stop, StopReason::kCounterexample);
    }
  }
}

// ------------------------------------------------------- StopReason split

TEST(StopReason, BudgetAndFailureAreDistinguishable) {
  // The old API collapsed "budget exhausted" and "counterexample found"
  // into `ok == false || !exhaustive`; both exits now carry an explicit
  // reason.
  auto bundle = simalgos::make_cas_maxreg_program(3);

  ModelCheckOptions budgeted;
  budgeted.max_executions = 5;
  const auto cut = model_check(bundle.program, maxreg_verdict, budgeted);
  EXPECT_TRUE(cut.ok);
  EXPECT_FALSE(cut.exhaustive);
  EXPECT_EQ(cut.stop, StopReason::kBudget);
  EXPECT_EQ(cut.executions, 5u);

  const Program bug = make_lost_update_program();
  const auto failed =
      model_check(bug, no_lost_update, ModelCheckOptions{});
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.stop, StopReason::kCounterexample);

  const auto complete =
      model_check(bundle.program, maxreg_verdict, ModelCheckOptions{});
  EXPECT_TRUE(complete.ok);
  EXPECT_TRUE(complete.exhaustive);
  EXPECT_EQ(complete.stop, StopReason::kComplete);
}

TEST(StopReason, BoundedCompleteIsNotExhaustive) {
  auto bundle = simalgos::make_cas_maxreg_program(3);
  ModelCheckOptions o;
  o.preemption_bound = 1;
  const auto result = model_check(bundle.program, maxreg_verdict, o);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.stop, StopReason::kComplete);
  EXPECT_FALSE(result.exhaustive);  // covered a subset by design
}

// ------------------------------------------- persistent sets / footprints

Program make_disjoint_writers(std::uint32_t n, std::uint32_t steps) {
  Program prog;
  std::vector<ObjectId> objs;
  for (std::uint32_t p = 0; p < n; ++p) objs.push_back(prog.add_object(0));
  for (std::uint32_t p = 0; p < n; ++p) {
    const ObjectId o = objs[p];
    prog.add_process(
        [o, steps](Ctx& ctx) -> Op {
          for (std::uint32_t s = 1; s <= steps; ++s) {
            co_await ctx.write(o, static_cast<Value>(s));
          }
          co_return 0;
        },
        {o});
  }
  return prog;
}

TEST(PersistentSets, DisjointFootprintsCollapseToOneRepresentative) {
  const Program prog = make_disjoint_writers(3, 3);
  const auto full =
      model_check(prog, [](const System&) { return ""; }, ModelCheckOptions{});
  EXPECT_EQ(full.executions, 1680u);  // 9! / (3!)^3

  ModelCheckOptions por;
  por.por = true;
  const auto reduced =
      model_check(prog, [](const System&) { return ""; }, por);
  EXPECT_TRUE(reduced.ok);
  EXPECT_TRUE(reduced.exhaustive);
  EXPECT_EQ(reduced.executions, 1u);  // fully commuting: one schedule
  EXPECT_GT(reduced.stats.persistent_pruned, 0u);
  EXPECT_LT(reduced.stats.nodes, full.stats.nodes);
}

TEST(PersistentSets, FootprintViolationThrows) {
  Program prog;
  const ObjectId a = prog.add_object(0);
  const ObjectId b = prog.add_object(0);
  prog.add_process(
      [b](Ctx& ctx) -> Op {
        co_await ctx.write(b, 1);  // declared {a}, touches b
        co_return 0;
      },
      {a});
  System sys{prog};
  EXPECT_THROW(sys.step(0), std::logic_error);
}

TEST(PersistentSets, EmptyFootprintDeclarationRejected) {
  Program prog;
  EXPECT_THROW(
      prog.add_process([](Ctx&) -> Op { co_return 0; },
                       std::vector<ObjectId>{}),
      std::invalid_argument);
}

// ---------------------------------------------------- certify parallelism

TEST(CertifyJobs, ReportIdenticalAcrossJobCounts) {
  auto bundle = simalgos::make_tree_maxreg_program(4);
  WaitFreedomOptions base;
  base.storm_seeds = 4;
  const auto reference = certify_wait_freedom(bundle.program, base);
  EXPECT_TRUE(reference.certified) << reference.message;
  for (const std::uint32_t jobs : {2u, 8u}) {
    WaitFreedomOptions o = base;
    o.jobs = jobs;
    const auto got = certify_wait_freedom(bundle.program, o);
    EXPECT_EQ(got.certified, reference.certified);
    EXPECT_EQ(got.schedules, reference.schedules);
    EXPECT_EQ(got.step_bound, reference.step_bound);
    EXPECT_EQ(got.worst_survivor_steps, reference.worst_survivor_steps);
    EXPECT_EQ(got.message, reference.message);
  }
}

TEST(CertifyJobs, BlockingNegativeControlFailsIdentically) {
  auto bundle = simalgos::make_lock_maxreg_program(3);
  WaitFreedomOptions base;
  base.storm_seeds = 2;
  base.max_schedule_steps = 1u << 12;
  const auto reference = certify_wait_freedom(bundle.program, base);
  EXPECT_FALSE(reference.certified);
  for (const std::uint32_t jobs : {2u, 8u}) {
    WaitFreedomOptions o = base;
    o.jobs = jobs;
    const auto got = certify_wait_freedom(bundle.program, o);
    EXPECT_FALSE(got.certified);
    EXPECT_EQ(got.schedules, reference.schedules);
    EXPECT_EQ(got.message, reference.message);
  }
}

}  // namespace
}  // namespace ruco::sim
