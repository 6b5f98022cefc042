// Crash-fault injection across the three execution layers: System::crash /
// step_spurious semantics, Herlihy-Wing pending-operation handling of
// crashed operations, FaultPlan/FaultInjector determinism and replay,
// fault-aware schedulers, crash exploration in the model checker, and the
// wait-freedom certifier (with the blocking spinlock register as the
// negative control).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/sim/certify.h"
#include "ruco/sim/fault.h"
#include "ruco/sim/model_checker.h"
#include "ruco/sim/schedulers.h"
#include "ruco/sim/system.h"
#include "ruco/simalgos/programs.h"

namespace ruco::sim {
namespace {

// --------------------------------------------------- System::crash basics

// p0: WriteMax-shaped op with a step after the write, so a crash can land
// between the write becoming visible and the operation returning.
Program writer_then_reader(bool write_first) {
  Program prog;
  const ObjectId o = prog.add_object(kNoValue);
  prog.add_process([o, write_first](Ctx& ctx) -> Op {
    ctx.mark_invoke("WriteMax", 5);
    if (write_first) {
      co_await ctx.write(o, 5);       // effect lands at step 1
      (void)co_await ctx.read(o);     // crash window: visible but pending
    } else {
      (void)co_await ctx.read(o);     // crash window: nothing visible yet
      co_await ctx.write(o, 5);
    }
    ctx.mark_return(0);
    co_return 0;
  });
  prog.add_process([o](Ctx& ctx) -> Op {
    ctx.mark_invoke("ReadMax", 0);
    const Value v = co_await ctx.read(o);
    ctx.mark_return(v);
    co_return v;
  });
  return prog;
}

TEST(Crash, HaltsProcessPermanently) {
  const Program prog = writer_then_reader(true);
  System sys{prog};
  EXPECT_TRUE(sys.step(0));
  EXPECT_TRUE(sys.crash(0));
  EXPECT_TRUE(sys.crashed(0));
  EXPECT_TRUE(sys.done(0));
  EXPECT_FALSE(sys.active(0));
  EXPECT_EQ(sys.enabled(0), nullptr);
  EXPECT_EQ(sys.crash_count(), 1u);
  EXPECT_FALSE(sys.step(0)) << "crashed processes never step again";
  EXPECT_FALSE(sys.crash(0)) << "crash is not repeatable";
  EXPECT_EQ(sys.crash_count(), 1u);
  // The crash is not a shared-memory event.
  EXPECT_EQ(sys.trace().size(), 1u);
  EXPECT_THROW((void)sys.result(0), std::logic_error);
}

TEST(Crash, CompletedProcessIsNotCrashable) {
  const Program prog = writer_then_reader(true);
  System sys{prog};
  run_round_robin(sys, 1u << 20);
  ASSERT_TRUE(all_done(sys));
  EXPECT_FALSE(sys.crash(0));
  EXPECT_FALSE(sys.crashed(0));
  EXPECT_EQ(sys.result(1), 5);
}

TEST(Crash, BeforeFirstStepDiscardsTheBufferedInvoke) {
  const Program prog = writer_then_reader(true);
  System sys{prog};
  // p0 never stepped: its operation never started in the model, so it must
  // not appear in the history even as pending.
  EXPECT_TRUE(sys.crash(0));
  EXPECT_TRUE(sys.step(1));
  run_round_robin(sys, 16);
  ASSERT_TRUE(all_done(sys));
  const auto history = lincheck::from_sim_history(sys.history());
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history.ops[0].op, "ReadMax");
  EXPECT_EQ(history.ops[0].ret, kNoValue);
  EXPECT_EQ(history.pending_count(), 0u);
}

// ------------------------- lincheck pending-op semantics under crashes

TEST(CrashLincheck, LandedWriteOfACrashedWriterLinearizesAsCommitted) {
  const Program prog = writer_then_reader(true);
  System sys{prog};
  ASSERT_TRUE(sys.step(0));  // the write lands
  ASSERT_TRUE(sys.crash(0));
  run_round_robin(sys, 16);  // reader runs, sees 5
  ASSERT_TRUE(all_done(sys));
  EXPECT_EQ(sys.result(1), 5);
  const auto history = lincheck::from_sim_history(sys.history());
  EXPECT_EQ(history.pending_count(), 1u);
  const auto res =
      lincheck::check_linearizable(history, lincheck::MaxRegisterSpec{});
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.linearizable)
      << "the crashed WriteMax must be linearizable as committed";
  // The witness must have linearized the pending write (the read returned
  // its value).
  EXPECT_EQ(res.witness.size(), 2u);
}

TEST(CrashLincheck, InvisibleCrashedWriteIsDroppable) {
  const Program prog = writer_then_reader(false);
  System sys{prog};
  ASSERT_TRUE(sys.step(0));  // only the read: nothing visible yet
  ASSERT_TRUE(sys.crash(0));
  run_round_robin(sys, 16);
  ASSERT_TRUE(all_done(sys));
  EXPECT_EQ(sys.result(1), kNoValue) << "the write never landed";
  const auto history = lincheck::from_sim_history(sys.history());
  EXPECT_EQ(history.pending_count(), 1u);
  const auto res =
      lincheck::check_linearizable(history, lincheck::MaxRegisterSpec{});
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.linearizable)
      << "a never-visible crashed WriteMax must be droppable";
  EXPECT_EQ(res.witness.size(), 1u) << "the witness drops the pending op";
}

TEST(CrashLincheck, LandedCrashedWriteCannotBeIgnoredByTheSpec) {
  // Sanity inversion: with the write landed and read back, a checker that
  // *had* to drop pending ops would fail.  without_pending() removes the
  // crashed writer's op; the resulting history is NOT linearizable, which
  // is exactly why the checker must keep pending ops.
  const Program prog = writer_then_reader(true);
  System sys{prog};
  ASSERT_TRUE(sys.step(0));
  ASSERT_TRUE(sys.crash(0));
  run_round_robin(sys, 16);
  const auto history =
      lincheck::from_sim_history(sys.history()).without_pending();
  const auto res =
      lincheck::check_linearizable(history, lincheck::MaxRegisterSpec{});
  ASSERT_TRUE(res.decided);
  EXPECT_FALSE(res.linearizable);
}

// ------------------------------------------------------- spurious weak CAS

TEST(SpuriousCas, FailsWithoutApplyingAndIsRecorded) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) -> Op {
    const Value ok = co_await ctx.cas(o, 0, 7);
    co_return ok;
  });
  System sys{prog};
  ASSERT_TRUE(sys.step_spurious(0));
  EXPECT_EQ(sys.value(o), 0) << "a spurious failure must not apply";
  ASSERT_TRUE(sys.done(0));
  EXPECT_EQ(sys.result(0), 0) << "the CAS reports failure";
  ASSERT_EQ(sys.trace().size(), 1u);
  EXPECT_TRUE(sys.trace()[0].spurious);
  EXPECT_FALSE(sys.trace()[0].changed);
  EXPECT_EQ(sys.trace()[0].observed, 0);
}

TEST(SpuriousCas, OnlyPendingCasEventsAreEligible) {
  Program prog;
  const ObjectId o = prog.add_object(0);
  prog.add_process([o](Ctx& ctx) -> Op {
    co_await ctx.write(o, 1);
    co_return 0;
  });
  System sys{prog};
  EXPECT_FALSE(sys.step_spurious(0)) << "pending write: not spuriously failable";
  EXPECT_TRUE(sys.step(0));
  EXPECT_FALSE(sys.step_spurious(0)) << "completed: nothing pending";
}

TEST(SpuriousCas, EnforcesTheDeclaredFootprint) {
  // The persistent-set filter trusts the declaration on every step,
  // injected spurious failures included.
  Program prog;
  const ObjectId a = prog.add_object(0);
  const ObjectId b = prog.add_object(0);
  prog.add_process(
      [b](Ctx& ctx) -> Op {
        co_return co_await ctx.cas(b, 0, 1);  // declared {a}, touches b
      },
      {a});
  System sys{prog};
  EXPECT_THROW(sys.step_spurious(0), std::logic_error);
  EXPECT_TRUE(sys.trace().empty()) << "the violating CAS is not recorded";
}

TEST(SpuriousCas, FaultyTraceReplaysExactly) {
  auto bundle = simalgos::make_tree_maxreg_program(5);
  System sys{bundle.program};
  FaultPlan plan;
  plan.seed = 11;
  plan.spurious_cas_per_mille = 300;
  FaultInjector injector{sys, plan};
  run_random(sys, 3, 1u << 20, injector);
  ASSERT_TRUE(all_done(sys));
  ASSERT_GT(injector.spurious_count(), 0u) << "plan must actually fire";
  // Replay with response checking: the spurious failures are re-injected
  // from the trace, so responses (and hence the whole execution) match.
  System fresh{bundle.program};
  const auto replay = replay_trace(fresh, sys.trace(), true);
  EXPECT_TRUE(replay.ok) << replay.message;
  // The history stays linearizable: a spurious CAS failure is just a
  // failed CAS to the algorithm, and Algorithm A retries per level.
  const auto res = lincheck::check_linearizable(
      lincheck::from_sim_history(sys.history()),
      lincheck::MaxRegisterSpec{});
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.linearizable);
}

// ------------------------------------------------ FaultInjector / plans

TEST(FaultInjector, ExplicitCrashPointFiresAtOwnStepThreshold) {
  const Program prog = writer_then_reader(true);
  System sys{prog};
  FaultPlan plan;
  plan.crash_at.push_back(CrashPoint{0, 1, CrashPoint::Basis::kOwnSteps});
  FaultInjector injector{sys, plan};
  run_round_robin(sys, 1u << 10, injector);
  ASSERT_EQ(injector.crash_count(), 1u);
  EXPECT_EQ(injector.unfired_placements(), 0u);
  EXPECT_EQ(injector.crashes()[0].proc, 0u);
  EXPECT_EQ(injector.crashes()[0].own_steps, 1u);
  EXPECT_TRUE(sys.crashed(0));
  EXPECT_EQ(sys.steps_taken(0), 1u) << "crashed after exactly one own step";
  EXPECT_FALSE(sys.crashed(1));
  EXPECT_EQ(sys.result(1), 5);
}

TEST(FaultInjector, GlobalStepBasisCountsSystemSteps) {
  // Round-robin order: p0 writes (global step 1), p1 reads (2), then p0 is
  // reselected with the trace already at 2 -- the threshold fires there.
  const Program prog = writer_then_reader(true);
  System sys{prog};
  FaultPlan plan;
  plan.crash_at.push_back(
      CrashPoint{0, 2, CrashPoint::Basis::kGlobalSteps});
  FaultInjector injector{sys, plan};
  run_round_robin(sys, 1u << 10, injector);
  ASSERT_EQ(injector.crash_count(), 1u);
  EXPECT_TRUE(sys.crashed(0));
  EXPECT_EQ(injector.crashes()[0].at_trace_size, 2u);
  EXPECT_EQ(injector.crashes()[0].own_steps, 1u);
  EXPECT_FALSE(sys.crashed(1));
  EXPECT_EQ(sys.result(1), 5) << "the reader saw the landed write";
}

TEST(FaultInjector, PlacementOnACompletedProcessNeverFires) {
  // cas maxreg: writer p0 writes operand 1 and can finish in one step when
  // a larger value is already installed -- a placement at own step >= 1 on
  // a process that completed first stays unfired, and the injector says so.
  const Program prog = writer_then_reader(true);
  System sys{prog};
  FaultPlan plan;
  plan.crash_at.push_back(CrashPoint{1, 5, CrashPoint::Basis::kOwnSteps});
  FaultInjector injector{sys, plan};
  run_round_robin(sys, 1u << 10, injector);
  ASSERT_TRUE(all_done(sys));
  EXPECT_EQ(injector.crash_count(), 0u);
  EXPECT_EQ(injector.unfired_placements(), 1u);
}

TEST(FaultInjector, RandomStormRespectsQuotaAndMinSurvivors) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    auto bundle = simalgos::make_cas_maxreg_program(6);
    System sys{bundle.program};
    FaultPlan plan;
    plan.seed = seed;
    plan.max_random_crashes = 4;
    plan.crash_per_mille = 400;  // aggressive: quota must still bind
    plan.min_survivors = 2;
    FaultInjector injector{sys, plan};
    run_random(sys, seed, 1u << 20, injector);
    ASSERT_TRUE(all_done(sys));
    EXPECT_LE(injector.crash_count(), 4u);
    std::size_t survivors = 0;
    for (ProcId p = 0; p < sys.num_processes(); ++p) {
      survivors += sys.crashed(p) ? 0 : 1;
    }
    EXPECT_GE(survivors, 2u) << "min_survivors violated at seed " << seed;
  }
}

TEST(FaultInjector, FaultScheduleIsSeedDeterministicAndReplayable) {
  auto bundle = simalgos::make_tree_maxreg_program(6);
  auto run_once = [&bundle](Trace& trace, std::vector<CrashRecord>& log) {
    System sys{bundle.program};
    FaultPlan plan;
    plan.seed = 7;
    plan.max_random_crashes = 3;
    plan.crash_per_mille = 60;
    plan.spurious_cas_per_mille = 50;
    FaultInjector injector{sys, plan};
    run_random(sys, 21, 1u << 20, injector);
    ASSERT_TRUE(all_done(sys));
    trace = sys.trace();
    log = injector.crashes();
  };
  Trace t1;
  Trace t2;
  std::vector<CrashRecord> l1;
  std::vector<CrashRecord> l2;
  run_once(t1, l1);
  run_once(t2, l2);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_TRUE(t1[i].same_action(t2[i])) << "diverged at event " << i;
    EXPECT_EQ(t1[i].spurious, t2[i].spurious);
  }
  ASSERT_EQ(l1.size(), l2.size());
  for (std::size_t i = 0; i < l1.size(); ++i) {
    EXPECT_EQ(l1[i].proc, l2[i].proc);
    EXPECT_EQ(l1[i].at_trace_size, l2[i].at_trace_size);
  }
  // And the faulty execution replays exactly on a fresh system.
  System fresh{bundle.program};
  const auto replay = replay_trace(fresh, t1, true);
  EXPECT_TRUE(replay.ok) << replay.message;
}

TEST(FaultInjector, CrashedHistoryStaysLinearizable) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto bundle = simalgos::make_tree_maxreg_program(5);
    System sys{bundle.program};
    FaultPlan plan;
    plan.seed = seed;
    plan.max_random_crashes = 3;
    plan.crash_per_mille = 100;
    FaultInjector injector{sys, plan};
    run_random(sys, seed * 13, 1u << 20, injector);
    ASSERT_TRUE(all_done(sys));
    const auto res = lincheck::check_linearizable(
        lincheck::from_sim_history(sys.history()),
        lincheck::MaxRegisterSpec{});
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "seed " << seed << " with "
                                  << injector.crash_count() << " crashes";
  }
}

// ----------------------------------------------- model checker crashes

std::string maxreg_lin_verdict(const System& sys) {
  const auto res = lincheck::check_linearizable(
      lincheck::from_sim_history(sys.history()),
      lincheck::MaxRegisterSpec{});
  if (!res.decided) return "undecided";
  return res.linearizable ? "" : "non-linearizable";
}

TEST(ModelCheckCrash, CrashChoicesEnlargeTheScheduleSpace) {
  auto bundle = simalgos::make_cas_maxreg_program(3);
  ModelCheckOptions plain;
  const auto without = model_check(bundle.program, maxreg_lin_verdict, plain);
  ModelCheckOptions crashy;
  crashy.max_crashes = 1;
  const auto with = model_check(bundle.program, maxreg_lin_verdict, crashy);
  EXPECT_TRUE(without.ok);
  EXPECT_TRUE(with.ok);
  EXPECT_GT(with.executions, without.executions)
      << "every crash placement adds executions";
}

TEST(ModelCheckCrash, CounterexampleEncodesTheCrashChoice) {
  auto bundle = simalgos::make_cas_maxreg_program(3);
  ModelCheckOptions options;
  options.max_crashes = 1;
  // Reject any execution containing a crash: the first counterexample is
  // the earliest crash placement in DFS order.
  const auto result = model_check(
      bundle.program,
      [](const System& sys) {
        return sys.crash_count() != 0 ? "crash happened" : "";
      },
      options);
  ASSERT_FALSE(result.ok);
  bool found_crash_choice = false;
  for (const ProcId choice : result.counterexample) {
    found_crash_choice = found_crash_choice || is_crash_choice(choice);
  }
  EXPECT_TRUE(found_crash_choice);
  const std::string rendered =
      render_schedule(bundle.program, result.counterexample);
  EXPECT_NE(rendered.find("CRASH"), std::string::npos) << rendered;
}

TEST(ModelCheckCrash, TwoWriterCasMaxRegLinearizableUnderEveryCrashPair) {
  auto bundle = simalgos::make_cas_maxreg_program(3);
  ModelCheckOptions options;
  options.max_crashes = 2;
  const auto result =
      model_check(bundle.program, maxreg_lin_verdict, options);
  EXPECT_TRUE(result.ok) << result.message << "\n"
                         << render_schedule(bundle.program,
                                            result.counterexample);
  EXPECT_TRUE(result.exhaustive);
}

// The acceptance configuration: Algorithm A, 2 writers + 1 reader, small
// preemption bound, every <=1-crash placement.
TEST(ModelCheckCrash, AlgorithmALinearizableUnderEveryOneCrashPlacement) {
  auto bundle = simalgos::make_tree_maxreg_program(3);
  ModelCheckOptions options;
  options.preemption_bound = 1;
  options.max_crashes = 1;
  const auto result =
      model_check(bundle.program, maxreg_lin_verdict, options);
  EXPECT_TRUE(result.ok) << result.message << "\n"
                         << render_schedule(bundle.program,
                                            result.counterexample);
  EXPECT_GT(result.executions, 0u);
}

// --------------------------------------------- wait-freedom certification

TEST(Certifier, CertifiesTheWaitFreeMaxRegisters) {
  const struct {
    const char* name;
    simalgos::MaxRegProgram bundle;
  } targets[] = {
      {"tree", simalgos::make_tree_maxreg_program(5)},
      {"cas", simalgos::make_cas_maxreg_program(5)},
      {"aac", simalgos::make_aac_maxreg_program(5, 8)},
      {"uaac", simalgos::make_unbounded_aac_maxreg_program(5)},
  };
  for (const auto& target : targets) {
    const auto report = certify_wait_freedom(target.bundle.program);
    EXPECT_TRUE(report.certified)
        << target.name << ": " << report.message;
    EXPECT_GT(report.schedules, 0u);
    EXPECT_LE(report.worst_survivor_steps, report.step_bound);
  }
}

TEST(Certifier, CertifiesTheWaitFreeCounters) {
  const auto farray = simalgos::make_farray_counter_program(5);
  const auto report = certify_wait_freedom(farray.program);
  EXPECT_TRUE(report.certified) << report.message;
}

TEST(Certifier, FailsTheBlockingLockRegister) {
  const auto bundle = simalgos::make_lock_maxreg_program(4);
  const auto report = certify_wait_freedom(bundle.program);
  EXPECT_FALSE(report.certified)
      << "a spinlock register must not certify: survivors spin when the "
         "lock holder crashes";
  EXPECT_NE(report.message.find("p"), std::string::npos);
  EXPECT_FALSE(report.message.empty());
}

TEST(Certifier, ReportIsDeterministic) {
  const auto bundle = simalgos::make_tree_maxreg_program(4);
  const auto a = certify_wait_freedom(bundle.program);
  const auto b = certify_wait_freedom(bundle.program);
  EXPECT_EQ(a.certified, b.certified);
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.step_bound, b.step_bound);
  EXPECT_EQ(a.worst_survivor_steps, b.worst_survivor_steps);
}

// ------------------------------------------------------- kcas guardrail

TEST(KcasGuard, EmptyEntryListIsRejected) {
  Program prog;
  (void)prog.add_object(0);
  prog.add_process([](Ctx& ctx) -> Op {
    co_await ctx.kcas({});
    co_return 0;
  });
  // The body throws at its first resume, which happens during System
  // construction (processes run to their first suspension).
  EXPECT_THROW({ System sys{prog}; }, std::invalid_argument);
}

}  // namespace
}  // namespace ruco::sim
