// Hot-path overhaul certification: the conditional-refresh pruning and the
// production hot paths are checked three ways --
//   1. model checker: the pruned sim mirror is linearizable on every
//      reachable schedule (exhaustively at small N, preemption-bounded on
//      contended programs) and reaches exactly the same reader results as
//      the paper-literal kAlwaysTwice oracle;
//   2. lincheck stress on real hardware: the production TreeMaxRegister and
//      FArrayCounter (backoff, root fast path) produce linearizable
//      histories under std::thread interleavings;
//   3. crash storms: random schedules with FaultPlan-injected crashes and
//      spurious CAS failures stay linearizable, and the pruned protocol
//      still certifies wait-free.
// The kAsPrinted gap reproduction is re-asserted under the conditional
// policy: pruning must not mask the paper's early-return bug.
//
// What these legs do NOT cover: the hand-tuned sub-seq_cst memory orders
// on weakly-ordered hardware.  The model checker explores a sequentially
// consistent semantics, TSan only reports data races (any std::atomic
// order is race-free by construction), and CI runners are x86/TSO -- so an
// acquire/release mistake that only misbehaves on ARM/POWER is invisible
// to all three.  Those orders are argued in writing per site (DESIGN.md
// "What the certification covers"; the synchronizes-with argument for the
// pruning decisions is in farray/wide_propagate.h), and
// RUCO_SEQCST_ATOMICS=ON collapses them all to seq_cst -- CI's seqcst-fallback job compiles and
// runs this suite in that configuration so weak-memory targets always
// have a machine-validated build.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "ruco/counter/farray_counter.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/maxreg/tree_max_register.h"
#include "ruco/runtime/thread_harness.h"
#include "ruco/sim/certify.h"
#include "ruco/sim/fault.h"
#include "ruco/sim/model_checker.h"
#include "ruco/sim/schedulers.h"
#include "ruco/sim/system.h"
#include "ruco/simalgos/programs.h"
#include "ruco/simalgos/sim_counters.h"
#include "ruco/simalgos/sim_max_registers.h"
#include "ruco/util/rng.h"

namespace ruco {
namespace {

using maxreg::Faithfulness;
using maxreg::RefreshPolicy;

std::string maxreg_verdict(const sim::System& sys) {
  const auto res = lincheck::check_linearizable(
      lincheck::from_sim_history(sys.history()),
      lincheck::MaxRegisterSpec{});
  if (!res.decided) return "undecided";
  return res.linearizable ? "" : "non-linearizable execution";
}

std::string counter_verdict(const sim::System& sys) {
  const auto res = lincheck::check_linearizable(
      lincheck::from_sim_history(sys.history()), lincheck::CounterSpec{});
  if (!res.decided) return "undecided";
  return res.linearizable ? "" : "non-linearizable execution";
}

// ---------------------- model checker: conditional == classic

// Exhaustive at small N: every schedule of the k=2 tree program (1 writer +
// 1 reader) is linearizable under the pruned policy, and the set of reader
// results matches the paper-literal oracle exactly.
TEST(HotPathEquivalence, ExhaustiveTreeReaderSetsMatchClassic) {
  auto reachable = [](RefreshPolicy policy) {
    auto bundle = simalgos::make_tree_maxreg_program(
        2, Faithfulness::kHelpOnDuplicate, policy);
    std::set<Value> results;
    const auto verdict = [&](const sim::System& sys) -> std::string {
      const std::string v = maxreg_verdict(sys);
      if (v.empty()) results.insert(sys.result(1));  // proc 1 = the reader
      return v;
    };
    sim::ModelCheckOptions opts;
    opts.por = true;
    const auto res = sim::model_check(bundle.program, verdict, opts);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_TRUE(res.exhaustive);
    return results;
  };
  const auto conditional = reachable(RefreshPolicy::kConditional);
  const auto classic = reachable(RefreshPolicy::kAlwaysTwice);
  EXPECT_EQ(conditional, classic);
  // The reader can run before or after the write: both outcomes reachable.
  EXPECT_EQ(conditional, (std::set<Value>{kNoValue, 1}));
}

// Contended refresh: two incrementers racing on the shared parent of a
// 2-slot f-array (the smallest program where a CAS can lose, the second
// round fires, and the no-change skip can trigger).  Exhaustive
// exploration of the classic side is out of unit-test reach, so both
// policies are explored to preemption bound 3 -- one more than the
// refresh bug depth (tests/bounded_check_test.cpp:
// PropagateOnceNeedsTwoPreemptions) -- and must reach identical reader
// result sets, every execution linearizable.
TEST(HotPathEquivalence, BoundedContendedCounterReaderSetsMatchClassic) {
  auto reachable = [](RefreshPolicy policy) {
    sim::Program prog;
    auto counter =
        std::make_shared<simalgos::SimFArrayCounter>(prog, 2, policy);
    for (int p = 0; p < 2; ++p) {
      prog.add_process([counter](sim::Ctx& ctx) -> sim::Op {
        ctx.mark_invoke("CounterIncrement", 0);
        co_await counter->increment(ctx);
        ctx.mark_return(0);
        co_return 0;
      });
    }
    const ProcId reader = prog.add_process([counter](sim::Ctx& ctx) -> sim::Op {
      ctx.mark_invoke("CounterRead", 0);
      const Value v = co_await counter->read(ctx);
      ctx.mark_return(v);
      co_return v;
    });
    std::set<Value> results;
    const auto verdict = [&](const sim::System& sys) -> std::string {
      const std::string v = counter_verdict(sys);
      if (v.empty()) results.insert(sys.result(reader));
      return v;
    };
    sim::ModelCheckOptions opts;
    opts.preemption_bound = 3;
    const auto res = sim::model_check(prog, verdict, opts);
    EXPECT_TRUE(res.ok) << res.message;
    EXPECT_GT(res.executions, 0u);
    return results;
  };
  const auto conditional = reachable(RefreshPolicy::kConditional);
  const auto classic = reachable(RefreshPolicy::kAlwaysTwice);
  EXPECT_EQ(conditional, classic);
  EXPECT_EQ(conditional, (std::set<Value>{0, 1, 2}));
}

// The pruned side of the same contended program IS exhaustively checkable
// (conditional refresh shrinks the space): every reachable interleaving of
// the two racing increments linearizes.
TEST(HotPathEquivalence, ExhaustiveContendedConditionalIncrements) {
  sim::Program prog;
  auto counter = std::make_shared<simalgos::SimFArrayCounter>(
      prog, 2, RefreshPolicy::kConditional);
  for (int p = 0; p < 2; ++p) {
    prog.add_process([counter](sim::Ctx& ctx) -> sim::Op {
      ctx.mark_invoke("CounterIncrement", 0);
      co_await counter->increment(ctx);
      ctx.mark_return(0);
      co_return 0;
    });
  }
  sim::ModelCheckOptions opts;
  opts.por = true;
  const auto res = sim::model_check(prog, counter_verdict, opts);
  EXPECT_TRUE(res.ok) << res.message;
  EXPECT_TRUE(res.exhaustive);
  EXPECT_GT(res.executions, 1u);
}

// Pruning must not mask the paper's early-return gap: kAsPrinted plus the
// conditional policy still produces the non-linearizable execution with a
// single preemption (same construction as bounded_check_test, policy made
// explicit).
TEST(HotPathEquivalence, ConditionalStillFindsPaperGapInPrintedVariant) {
  sim::Program prog;
  auto reg = std::make_shared<simalgos::SimTreeMaxRegister>(
      prog, 4, Faithfulness::kAsPrinted, 2, RefreshPolicy::kConditional);
  for (int w = 0; w < 2; ++w) {
    prog.add_process([reg](sim::Ctx& ctx) -> sim::Op {
      ctx.mark_invoke("WriteMax", 1);
      co_await reg->write_max(ctx, 1);
      ctx.mark_return(0);
      co_return 0;
    });
  }
  prog.add_process([reg](sim::Ctx& ctx) -> sim::Op {
    ctx.mark_invoke("ReadMax", 0);
    const Value v = co_await reg->read_max(ctx);
    ctx.mark_return(v);
    co_return v;
  });
  sim::ModelCheckOptions opts;
  opts.preemption_bound = 1;
  const auto res = sim::model_check(prog, maxreg_verdict, opts);
  EXPECT_FALSE(res.ok) << "pruning must not hide the kAsPrinted gap";
  EXPECT_EQ(res.message, "non-linearizable execution");
}

// ------------------------- hardware lincheck stress (production objects)

TEST(HotPathStress, HwTreeMaxRegisterLinearizable) {
  constexpr std::uint32_t kThreads = 4;
  constexpr int kOpsPerThread = 24;
  for (std::uint64_t round = 1; round <= 3; ++round) {
    maxreg::TreeMaxRegister reg{kThreads};
    lincheck::Recorder recorder{kThreads};
    runtime::run_threads(kThreads, [&](std::size_t t) {
      util::SplitMix64 rng{round * 101 + t};
      const auto proc = static_cast<ProcId>(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.chance(1, 2)) {
          const Value v = static_cast<Value>(rng.below(12));
          const auto slot = recorder.begin(proc, "WriteMax", v);
          reg.write_max(proc, v);
          recorder.end(proc, slot, 0);
        } else {
          const auto slot = recorder.begin(proc, "ReadMax", 0);
          const Value v = reg.read_max(proc);
          recorder.end(proc, slot, v);
        }
      }
    });
    const auto res = lincheck::check_linearizable(
        recorder.harvest(), lincheck::MaxRegisterSpec{});
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "round " << round << ": " << res.message;
  }
}

TEST(HotPathStress, HwFArrayCounterLinearizable) {
  constexpr std::uint32_t kThreads = 4;
  constexpr int kOpsPerThread = 24;
  for (std::uint64_t round = 1; round <= 3; ++round) {
    counter::FArrayCounter c{kThreads};
    lincheck::Recorder recorder{kThreads};
    runtime::run_threads(kThreads, [&](std::size_t t) {
      util::SplitMix64 rng{round * 137 + t};
      const auto proc = static_cast<ProcId>(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (rng.chance(2, 3)) {
          const auto slot = recorder.begin(proc, "CounterIncrement", 0);
          c.increment(proc);
          recorder.end(proc, slot, 0);
        } else {
          const auto slot = recorder.begin(proc, "CounterRead", 0);
          const Value v = c.read(proc);
          recorder.end(proc, slot, v);
        }
      }
    });
    const auto res = lincheck::check_linearizable(recorder.harvest(),
                                                  lincheck::CounterSpec{});
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "round " << round << ": " << res.message;
  }
}

// ----------------------------- crash storms over the pruned sim mirror

TEST(HotPathStress, CrashStormsStayLinearizable) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    auto bundle = simalgos::make_tree_maxreg_program(
        5, Faithfulness::kHelpOnDuplicate, RefreshPolicy::kConditional);
    sim::System sys{bundle.program};
    sim::FaultPlan plan;
    plan.seed = seed;
    plan.crash_per_mille = 30;
    plan.max_random_crashes = 2;
    plan.spurious_cas_per_mille = 50;
    sim::FaultInjector injector{sys, plan};
    sim::run_random(sys, seed * 7 + 1, 1u << 20, injector);
    ASSERT_TRUE(sim::all_done(sys)) << "seed " << seed;
    // Crashed operations stay pending; the checker handles pending ops
    // natively (a crashed WriteMax may or may not have taken effect).
    const auto res = lincheck::check_linearizable(
        lincheck::from_sim_history(sys.history()),
        lincheck::MaxRegisterSpec{});
    ASSERT_TRUE(res.decided) << "seed " << seed;
    EXPECT_TRUE(res.linearizable) << "seed " << seed << ": " << res.message;
  }
}

TEST(HotPathStress, ConditionalMirrorsCertifyWaitFree) {
  const auto tree = simalgos::make_tree_maxreg_program(
      4, Faithfulness::kHelpOnDuplicate, RefreshPolicy::kConditional);
  const auto tree_report = sim::certify_wait_freedom(tree.program);
  EXPECT_TRUE(tree_report.certified) << tree_report.message;

  const auto farray = simalgos::make_farray_counter_program(4);
  const auto farray_report = sim::certify_wait_freedom(farray.program);
  EXPECT_TRUE(farray_report.certified) << farray_report.message;
}

}  // namespace
}  // namespace ruco
