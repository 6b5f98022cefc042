// Simulation-layer algorithms: cross-checks against the production layer
// (same semantics, same solo step counts), linearizability under random and
// exhaustive schedules, the Lemma 8 monotonicity property -- and a
// deterministic reproduction of the early-return linearizability gap in the
// paper's printed Algorithm A (see maxreg/tree_max_register.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "ruco/counter/farray_counter.h"
#include "ruco/counter/maxreg_counter.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/maxreg/aac_max_register.h"
#include "ruco/maxreg/cas_max_register.h"
#include "ruco/maxreg/tree_max_register.h"
#include "ruco/maxreg/unbounded_aac_max_register.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/sim/model_checker.h"
#include "ruco/sim/schedulers.h"
#include "ruco/simalgos/programs.h"
#include "ruco/simalgos/sim_counters.h"
#include "ruco/simalgos/sim_max_registers.h"
#include "ruco/util/rng.h"

namespace ruco::simalgos {
namespace {

using maxreg::Faithfulness;

// ------------------------------------------- sequential cross-checks

// Runs the same random WriteMax/ReadMax script through the production
// object and a sim twin (one process per proc id, advanced one operation at
// a time via history annotations); every ReadMax must agree.
template <typename SimReg>
sim::Op scripted_body(const SimReg* reg,
                      const std::vector<std::pair<bool, Value>>* slice,
                      sim::Ctx& ctx) {
  for (const auto& [is_write, v] : *slice) {
    if (is_write) {
      ctx.mark_invoke("WriteMax", v);
      co_await reg->write_max(ctx, v);
      ctx.mark_return(0);
    } else {
      ctx.mark_invoke("ReadMax", 0);
      const Value got = co_await reg->read_max(ctx);
      ctx.mark_return(got);
    }
  }
  co_return 0;
}

/// Steps process p until it completes one operation (detected via the
/// history growing by one return annotation).
void run_one_op(sim::System& sys, ProcId p) {
  std::size_t returns = 0;
  for (const auto& h : sys.history()) {
    returns += (h.kind == sim::HistoryEvent::Kind::kReturn) ? 1 : 0;
  }
  while (sys.active(p)) {
    sys.step(p);
    std::size_t now = 0;
    for (const auto& h : sys.history()) {
      now += (h.kind == sim::HistoryEvent::Kind::kReturn) ? 1 : 0;
    }
    if (now > returns) return;
  }
}

template <typename ProdReg, typename SimReg>
void cross_check_sequential(ProdReg& prod, sim::Program& prog,
                            const SimReg* reg, std::uint32_t n,
                            std::uint64_t seed, Value value_bound) {
  util::SplitMix64 rng{seed};
  struct Step {
    bool is_write;
    ProcId proc;
    Value v;
  };
  std::vector<Step> script;
  std::vector<std::vector<std::pair<bool, Value>>> slices(n);
  for (int i = 0; i < 150; ++i) {
    Step s{rng.chance(2, 3), static_cast<ProcId>(rng.below(n)),
           static_cast<Value>(
               rng.below(static_cast<std::uint64_t>(value_bound)))};
    script.push_back(s);
    slices[s.proc].emplace_back(s.is_write, s.v);
  }
  for (ProcId p = 0; p < n; ++p) {
    prog.add_process([reg, slice = &slices[p]](sim::Ctx& ctx) {
      return scripted_body(reg, slice, ctx);
    });
  }
  sim::System sys{prog};
  for (const Step& s : script) {
    Value prod_got = 0;
    if (s.is_write) {
      prod.write_max(s.proc, s.v);
    } else {
      prod_got = prod.read_max(s.proc);
    }
    run_one_op(sys, s.proc);
    const auto& last = sys.history().back();
    ASSERT_EQ(last.kind, sim::HistoryEvent::Kind::kReturn);
    if (!s.is_write) {
      ASSERT_EQ(last.value, prod_got)
          << "sim/production divergence on read by p" << s.proc;
    }
  }
}

TEST(CrossCheck, TreeMaxRegisterMatchesProduction) {
  constexpr std::uint32_t n = 8;
  maxreg::TreeMaxRegister prod{n};
  sim::Program prog;
  SimTreeMaxRegister reg{prog, n, Faithfulness::kHelpOnDuplicate};
  cross_check_sequential(prod, prog, &reg, n, 31, 64);
}

TEST(CrossCheck, CasMaxRegisterMatchesProduction) {
  constexpr std::uint32_t n = 4;
  maxreg::CasMaxRegister prod;
  sim::Program prog;
  SimCasMaxRegister reg{prog};
  cross_check_sequential(prod, prog, &reg, n, 32, 1000);
}

TEST(CrossCheck, AacMaxRegisterMatchesProduction) {
  constexpr std::uint32_t n = 4;
  constexpr Value bound = 256;
  maxreg::AacMaxRegister prod{bound};
  sim::Program prog;
  SimAacMaxRegister reg{prog, bound};
  cross_check_sequential(prod, prog, &reg, n, 33, bound);
}

TEST(CrossCheck, UnboundedAacMatchesProduction) {
  constexpr std::uint32_t n = 4;
  maxreg::UnboundedAacMaxRegister prod{12};
  sim::Program prog;
  SimUnboundedAacMaxRegister reg{prog, 12};
  cross_check_sequential(prod, prog, &reg, n, 34, (Value{1} << 12) - 1);
}

TEST(StepParity, UnboundedAacSoloStepsMatchProduction) {
  for (const Value v : {Value{0}, Value{1}, Value{100}, Value{2000}}) {
    maxreg::UnboundedAacMaxRegister prod{12};
    runtime::StepScope w;
    prod.write_max(0, v);
    const auto write_steps = w.taken();
    runtime::StepScope r;
    (void)prod.read_max(0);
    const auto read_steps = r.taken();

    sim::Program prog;
    SimUnboundedAacMaxRegister reg{prog, 12};
    prog.add_process(
        [&reg, v](sim::Ctx& ctx) { return reg.write_max(ctx, v); });
    prog.add_process([&reg](sim::Ctx& ctx) { return reg.read_max(ctx); });
    sim::System sys{prog};
    sim::run_solo(sys, 0, 1000);
    sim::run_solo(sys, 1, 1000);
    EXPECT_EQ(sys.steps_taken(0), write_steps) << "v=" << v;
    EXPECT_EQ(sys.steps_taken(1), read_steps) << "v=" << v;
  }
}

// ------------------------------------------------- solo step equality

TEST(StepParity, TreeWriteMaxSoloStepsMatchProduction) {
  // Every value leaf and every process leaf at the N of
  // TreeMaxRegisterSteps.SoloWriteCostsThreePlusFourPerLevelOnEveryLeaf.
  // Both layers walk the tree with farray::TreeWalk; on the B1 spine a
  // node's right child has a lower id than its left, so a walker that read
  // children by position would merge the wrong cells and leave a root
  // other than v.
  for (const std::uint32_t n : {1u, 2u, 3u, 16u, 100u}) {
    const auto expect_parity = [n](ProcId proc, Value v) {
      maxreg::TreeMaxRegister prod{n};
      runtime::StepScope scope;
      prod.write_max(proc, v);
      const auto prod_steps = scope.taken();

      sim::Program prog;
      SimTreeMaxRegister reg{prog, n, Faithfulness::kHelpOnDuplicate};
      for (ProcId p = 0; p <= proc; ++p) {
        prog.add_process([&reg, proc, p, v](sim::Ctx& ctx) -> sim::Op {
          if (p == proc) co_await reg.write_max(ctx, v);
          co_return 0;
        });
      }
      sim::System sys{prog};
      sim::run_solo(sys, proc, 10'000);
      EXPECT_EQ(sys.steps_taken(proc), prod_steps)
          << "N=" << n << " p=" << proc << " v=" << v;
      EXPECT_EQ(prod.read_max(proc), v);
      EXPECT_EQ(sys.value(reg.root_object()), v)
          << "N=" << n << " p=" << proc << " v=" << v;
    };
    for (Value v = 0; v < static_cast<Value>(n); ++v) {  // value leaves
      expect_parity(static_cast<ProcId>(v), v);
    }
    for (ProcId p = 0; p < n; ++p) {  // process leaves
      expect_parity(p, static_cast<Value>(n) + p);
    }
  }
}

TEST(StepParity, TreeReadMaxIsOneStepInBothLayers) {
  maxreg::TreeMaxRegister prod{8};
  runtime::StepScope scope;
  (void)prod.read_max(0);
  EXPECT_EQ(scope.taken(), 1u);

  sim::Program prog;
  SimTreeMaxRegister reg{prog, 8, Faithfulness::kHelpOnDuplicate};
  prog.add_process([&reg](sim::Ctx& ctx) { return reg.read_max(ctx); });
  sim::System sys{prog};
  sim::run_solo(sys, 0, 100);
  EXPECT_EQ(sys.steps_taken(0), 1u);
}

TEST(StepParity, AacSoloStepsMatchProduction) {
  constexpr Value bound = 128;
  for (const Value v : {Value{0}, Value{1}, Value{64}, Value{127}}) {
    maxreg::AacMaxRegister prod{bound};
    runtime::StepScope w;
    prod.write_max(0, v);
    const auto write_steps = w.taken();
    runtime::StepScope r;
    (void)prod.read_max(0);
    const auto read_steps = r.taken();

    sim::Program prog;
    SimAacMaxRegister reg{prog, bound};
    prog.add_process([&reg, v](sim::Ctx& ctx) { return reg.write_max(ctx, v); });
    prog.add_process([&reg](sim::Ctx& ctx) { return reg.read_max(ctx); });
    sim::System sys{prog};
    sim::run_solo(sys, 0, 1000);
    sim::run_solo(sys, 1, 1000);
    EXPECT_EQ(sys.steps_taken(0), write_steps) << "v=" << v;
    EXPECT_EQ(sys.steps_taken(1), read_steps) << "v=" << v;
  }
}

TEST(StepParity, FArrayCounterIncrementWithinOneOfProduction) {
  constexpr std::uint32_t n = 32;
  counter::FArrayCounter prod{n};
  runtime::StepScope scope;
  prod.increment(5);
  const auto prod_steps = scope.taken();

  sim::Program prog;
  SimFArrayCounter sim_counter{prog, n};
  prog.add_process(
      [&sim_counter](sim::Ctx& ctx) { return sim_counter.increment(ctx); });
  sim::System sys{prog};
  // Process ids map to leaves; body runs as proc 0 here, production used
  // proc 5 -- both under the first 8-child node of the 8-ary tree of 32,
  // whose root has 4 children.
  sim::run_solo(sys, 0, 10'000);
  // Documented off-by-one: the sim twin re-reads its own leaf (no
  // cross-operation local state allowed under replay).
  EXPECT_EQ(sys.steps_taken(0), prod_steps + 1);
}

// --------------------------------------------- primitive-usage checks

TEST(PrimitiveUsage, AacUsesOnlyReadsAndWrites) {
  // The AAC register is a *read/write* algorithm (that is the whole point
  // of reference [2]); its simulated trace must contain no CAS events.
  auto bundle = make_aac_maxreg_program(8, 64);
  sim::System sys{bundle.program};
  sim::run_random(sys, 7, 1u << 20);
  EXPECT_TRUE(sim::all_done(sys));
  for (const auto& e : sys.trace()) {
    EXPECT_NE(e.prim, sim::Prim::kCas) << e.to_string();
  }
}

TEST(PrimitiveUsage, TreeUsesCasOnlyOnInternalNodes) {
  auto bundle = make_tree_maxreg_program(8);
  sim::System sys{bundle.program};
  sim::run_random(sys, 9, 1u << 20);
  EXPECT_TRUE(sim::all_done(sys));
  // Leaves are written with plain writes; every CAS targets an internal
  // node object.  Leaf objects are exactly those that ever receive a
  // kWrite.
  std::map<sim::ObjectId, bool> written;
  for (const auto& e : sys.trace()) {
    if (e.prim == sim::Prim::kWrite) written[e.obj] = true;
  }
  for (const auto& e : sys.trace()) {
    if (e.prim == sim::Prim::kCas) {
      EXPECT_FALSE(written.count(e.obj)) << "CAS on a leaf: " << e.to_string();
    }
  }
}

// ------------------------------------------------- Lemma 8 (monotone)

void expect_monotone_objects(const sim::Trace& trace) {
  std::map<sim::ObjectId, Value> current;
  for (const auto& e : trace) {
    if (!e.changed) continue;
    const auto it = current.find(e.obj);
    if (it != current.end()) {
      EXPECT_LE(it->second, e.arg)
          << "node value decreased: " << e.to_string();
    }
    current[e.obj] = e.arg;
  }
}

TEST(Lemma8, TreeNodeValuesNeverDecrease) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    auto bundle = make_tree_maxreg_program(12);
    sim::System sys{bundle.program};
    sim::run_random(sys, seed, 1u << 20);
    ASSERT_TRUE(sim::all_done(sys)) << "seed " << seed;
    expect_monotone_objects(sys.trace());
  }
}

TEST(Lemma8, FArrayCounterNodesNeverDecrease) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    auto bundle = make_farray_counter_program(9);
    sim::System sys{bundle.program};
    sim::run_random(sys, seed, 1u << 20);
    ASSERT_TRUE(sim::all_done(sys)) << "seed " << seed;
    expect_monotone_objects(sys.trace());
  }
}

// ------------------------------------ linearizability (random sweeps)

template <typename MakeBundle>
void random_schedule_lincheck(MakeBundle&& make_bundle, int seeds) {
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(seeds);
       ++seed) {
    auto bundle = make_bundle();
    sim::System sys{bundle.program};
    sim::run_random(sys, seed, 1u << 22);
    ASSERT_TRUE(sim::all_done(sys)) << "seed " << seed;
    const auto history = lincheck::from_sim_history(sys.history());
    const auto res =
        lincheck::check_linearizable(history, lincheck::MaxRegisterSpec{});
    ASSERT_TRUE(res.decided) << "seed " << seed;
    EXPECT_TRUE(res.linearizable) << "seed " << seed << ": " << res.message;
  }
}

TEST(RandomLinCheck, TreeMaxRegister) {
  random_schedule_lincheck([] { return make_tree_maxreg_program(10); }, 20);
}

TEST(RandomLinCheck, CasMaxRegister) {
  random_schedule_lincheck([] { return make_cas_maxreg_program(10); }, 20);
}

TEST(RandomLinCheck, AacMaxRegister) {
  random_schedule_lincheck([] { return make_aac_maxreg_program(10, 16); },
                           20);
}

TEST(RandomLinCheck, UnboundedAacMaxRegister) {
  random_schedule_lincheck(
      [] { return make_unbounded_aac_maxreg_program(10); }, 20);
}

TEST(PrimitiveUsage, UnboundedAacUsesOnlyReadsAndWrites) {
  auto bundle = make_unbounded_aac_maxreg_program(8);
  sim::System sys{bundle.program};
  sim::run_random(sys, 13, 1u << 20);
  EXPECT_TRUE(sim::all_done(sys));
  for (const auto& e : sys.trace()) {
    EXPECT_NE(e.prim, sim::Prim::kCas) << e.to_string();
  }
}

TEST(RandomLinCheck, FArrayCounter) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto bundle = make_farray_counter_program(8);
    sim::System sys{bundle.program};
    sim::run_random(sys, seed, 1u << 22);
    ASSERT_TRUE(sim::all_done(sys));
    const auto res = lincheck::check_linearizable(
        lincheck::from_sim_history(sys.history()), lincheck::CounterSpec{});
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "seed " << seed << ": " << res.message;
  }
}

TEST(RandomLinCheck, MaxRegCounter) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto bundle = make_maxreg_counter_program(6, 64);
    sim::System sys{bundle.program};
    sim::run_random(sys, seed, 1u << 22);
    ASSERT_TRUE(sim::all_done(sys));
    const auto res = lincheck::check_linearizable(
        lincheck::from_sim_history(sys.history()), lincheck::CounterSpec{});
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "seed " << seed << ": " << res.message;
  }
}

// ----------------------------- exhaustive model checks (tiny configs)

lincheck::History history_of(const sim::System& sys) {
  return lincheck::from_sim_history(sys.history());
}

std::string maxreg_verdict(const sim::System& sys) {
  const auto res = lincheck::check_linearizable(history_of(sys),
                                                lincheck::MaxRegisterSpec{});
  if (!res.decided) return "undecided";
  return res.linearizable ? "" : "non-linearizable execution";
}

TEST(Exhaustive, CasMaxRegisterAllInterleavings) {
  auto bundle = make_cas_maxreg_program(3);  // 2 writers + reader
  const auto result = sim::model_check(bundle.program, maxreg_verdict);
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_TRUE(result.exhaustive);
  EXPECT_GT(result.executions, 10u);
}

TEST(Exhaustive, AacMaxRegisterAllInterleavings) {
  auto bundle = make_aac_maxreg_program(3, 4);
  const auto result = sim::model_check(bundle.program, maxreg_verdict);
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_TRUE(result.exhaustive);
}

TEST(Exhaustive, TreeMaxRegisterTwoProcesses) {
  auto bundle = make_tree_maxreg_program(2);  // 1 writer + reader
  const auto result = sim::model_check(bundle.program, maxreg_verdict);
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_TRUE(result.exhaustive);
}

// ----------------- the printed Algorithm A's early-return gap (paper bug)

/// Builds the racing-duplicate-writes scenario: p0 and p1 both WriteMax(1);
/// p2 reads.  Returns the recorded history after the adversarial schedule:
/// p0 writes the leaf then stalls; p1 early-returns; p2 reads the root.
lincheck::History duplicate_write_history(Faithfulness mode) {
  sim::Program prog;
  auto reg = std::make_shared<SimTreeMaxRegister>(prog, 4, mode);
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
  sim::System sys{prog};
  sys.step(0);  // p0: read leaf (sees kNoValue)
  sys.step(0);  // p0: write leaf := 1; now stalled before propagation
  sim::run_solo(sys, 1, 10'000);  // p1: completes its WriteMax(1)
  sim::run_solo(sys, 2, 10'000);  // p2: ReadMax
  return lincheck::from_sim_history(sys.history());
}

TEST(PaperGap, PrintedAlgorithmAViolatesLinearizability) {
  const auto history = duplicate_write_history(Faithfulness::kAsPrinted);
  const auto res =
      lincheck::check_linearizable(history, lincheck::MaxRegisterSpec{});
  ASSERT_TRUE(res.decided);
  EXPECT_FALSE(res.linearizable)
      << "the as-printed early return must let a completed WriteMax(1) be "
         "followed by ReadMax -> -inf";
}

TEST(PaperGap, HelpOnDuplicateRestoresLinearizability) {
  const auto history =
      duplicate_write_history(Faithfulness::kHelpOnDuplicate);
  const auto res =
      lincheck::check_linearizable(history, lincheck::MaxRegisterSpec{});
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.linearizable) << res.message;
}

TEST(PaperGap, PrintedVariantIsFineWithDistinctValues) {
  // The gap needs two writers racing on the *same* operand; with distinct
  // operands the printed code never early-returns on another process's
  // fresh leaf write.  20 random schedules stay linearizable.
  random_schedule_lincheck(
      [] {
        return make_tree_maxreg_program(10, Faithfulness::kAsPrinted);
      },
      20);
}

// -------------------- ablation: why Algorithm A CASes twice per level

/// Interleaving in which a single propagation attempt per level loses a
/// completed WriteMax: p1's CAS at the shared parent fails (p0's CAS, whose
/// children reads predate p1's leaf write, won the level) and with
/// attempts=1 nobody re-reads p1's leaf -- the paper's lines 6-9 exist
/// precisely to force the re-read.
lincheck::History propagate_attempts_history(int attempts) {
  sim::Program prog;
  // Paper-literal refresh policy: the hand-crafted schedule below indexes
  // the exact step sequence of the printed algorithm (no root fast path, no
  // conditional pruning).
  auto reg = std::make_shared<SimTreeMaxRegister>(
      prog, 4, Faithfulness::kHelpOnDuplicate, attempts,
      maxreg::RefreshPolicy::kAlwaysTwice);
  for (Value v = 1; v <= 2; ++v) {
    prog.add_process([reg, v](sim::Ctx& ctx) -> sim::Op {
      ctx.mark_invoke("WriteMax", v);
      co_await reg->write_max(ctx, v);
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
  sim::System sys{prog};
  // p0 (WriteMax(1)) and p1 (WriteMax(2)) write B1 leaves 1 and 2, which
  // share a parent.  p0 reads both children before p1's leaf write lands,
  // then wins the parent CAS; p1's CAS fails.
  for (int i = 0; i < 5; ++i) sys.step(0);  // leaf r/w + parent 3 reads
  for (int i = 0; i < 2; ++i) sys.step(1);  // p1 leaf read + write
  sys.step(1);                              // p1 reads parent (-inf)
  sys.step(0);                              // p0 CAS parent := 1 (wins)
  sys.step(1);                              // p1 reads left child
  sys.step(1);                              // p1 reads right child (2)
  sys.step(1);                              // p1 CAS parent: expected -inf, fails
  sim::run_solo(sys, 1, 10'000);            // p1 finishes its WriteMax(2)
  sim::run_solo(sys, 0, 10'000);
  sim::run_solo(sys, 2, 10'000);            // reader
  return lincheck::from_sim_history(sys.history());
}

TEST(Ablation, PropagateOnceLosesACompletedWrite) {
  const auto res = lincheck::check_linearizable(
      propagate_attempts_history(1), lincheck::MaxRegisterSpec{});
  ASSERT_TRUE(res.decided);
  EXPECT_FALSE(res.linearizable)
      << "one CAS per level must lose WriteMax(2) under this schedule";
}

TEST(Ablation, PropagateTwiceSurvivesTheSameSchedule) {
  const auto res = lincheck::check_linearizable(
      propagate_attempts_history(2), lincheck::MaxRegisterSpec{});
  ASSERT_TRUE(res.decided);
  EXPECT_TRUE(res.linearizable) << res.message;
}

TEST(Ablation, PropagateOnceFailsRandomSweepToo) {
  // The loss is not an artifact of one hand-crafted schedule: random
  // schedules find violations as well (across many seeds, at least one).
  // Two writers on sibling B1 leaves (values 1 and 2) -- with more writers
  // a third party's propagation usually rescues the lost value, which is
  // why the bug is so schedule-sensitive.
  constexpr Value kWriters = 2;
  int violations = 0;
  for (std::uint64_t seed = 1; seed <= 2000 && violations == 0; ++seed) {
    sim::Program prog;
    auto reg = std::make_shared<SimTreeMaxRegister>(
        prog, 4, Faithfulness::kHelpOnDuplicate, 1);
    for (Value v = 1; v <= kWriters; ++v) {
      prog.add_process([reg, v](sim::Ctx& ctx) -> sim::Op {
        ctx.mark_invoke("WriteMax", v);
        co_await reg->write_max(ctx, v);
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
    sim::System sys{prog};
    // Writers race under a uniformly random schedule; the reader runs
    // strictly afterwards so any lost write is an outright violation.
    util::SplitMix64 rng{seed};
    std::vector<ProcId> live{0, 1};
    while (!live.empty()) {
      const std::size_t i = static_cast<std::size_t>(rng.below(live.size()));
      sys.step(live[i]);
      if (!sys.active(live[i])) {
        live[i] = live.back();
        live.pop_back();
      }
    }
    sim::run_solo(sys, kWriters, 10'000);
    const auto res = lincheck::check_linearizable(
        lincheck::from_sim_history(sys.history()),
        lincheck::MaxRegisterSpec{});
    if (res.decided && !res.linearizable) ++violations;
  }
  EXPECT_GT(violations, 0);
}

// ------------------------------------------------------ reader values

TEST(SimPrograms, CounterReadsExactlyAfterQuiescence) {
  for (const std::uint32_t n : {2u, 3u, 8u, 33u}) {
    auto bundle = make_farray_counter_program(n);
    sim::System sys{bundle.program};
    for (ProcId p = 0; p < bundle.num_incrementers; ++p) {
      sim::run_solo(sys, p, 1u << 20);
    }
    sim::run_solo(sys, bundle.reader, 1u << 20);
    EXPECT_EQ(sys.result(bundle.reader), static_cast<Value>(n - 1));
  }
}

TEST(SimPrograms, MaxRegReaderSeesMaxAfterQuiescence) {
  for (const std::uint32_t k : {2u, 4u, 16u}) {
    auto bundle = make_tree_maxreg_program(k);
    sim::System sys{bundle.program};
    for (ProcId p = 0; p < bundle.num_writers; ++p) {
      sim::run_solo(sys, p, 1u << 20);
    }
    sim::run_solo(sys, bundle.reader, 1u << 20);
    EXPECT_EQ(sys.result(bundle.reader), static_cast<Value>(k - 1));
  }
}

}  // namespace
}  // namespace ruco::simalgos
