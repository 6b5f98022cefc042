// Randomized cross-checking harness ("fuzzing" the whole stack): generated
// multi-op workloads over every simulated object, executed under random and
// PCT schedules, validated by the Wing-Gong checker -- plus determinism and
// replay closure properties of the simulator itself.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/sim/awareness.h"
#include "ruco/sim/schedulers.h"
#include "ruco/sim/system.h"
#include "ruco/simalgos/sim_counters.h"
#include "ruco/simalgos/sim_max_registers.h"
#include "ruco/util/rng.h"

namespace ruco::simalgos {
namespace {

/// A generated workload: each process runs a random sequence of WriteMax /
/// ReadMax ops (multi-op bodies, unlike the single-op adversary programs).
struct MaxRegWorkload {
  sim::Program program;
  std::shared_ptr<SimTreeMaxRegister> reg;
};

MaxRegWorkload make_workload(std::uint64_t seed, std::uint32_t procs,
                             int ops_per_proc) {
  MaxRegWorkload w;
  w.reg = std::make_shared<SimTreeMaxRegister>(
      w.program, procs, maxreg::Faithfulness::kHelpOnDuplicate);
  util::SplitMix64 rng{seed};
  for (ProcId p = 0; p < procs; ++p) {
    auto script = std::make_shared<std::vector<std::pair<bool, Value>>>();
    for (int i = 0; i < ops_per_proc; ++i) {
      script->emplace_back(rng.chance(1, 2),
                           static_cast<Value>(rng.below(3 * procs)));
    }
    w.program.add_process(
        [reg = w.reg, script](sim::Ctx& ctx) -> sim::Op {
          for (const auto& [is_write, v] : *script) {
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
        });
  }
  return w;
}

TEST(Fuzz, MultiOpWorkloadsLinearizableUnderRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    auto w = make_workload(seed, 5, 4);
    sim::System sys{w.program};
    sim::run_random(sys, seed * 7919, 1u << 22);
    ASSERT_TRUE(sim::all_done(sys)) << "seed " << seed;
    const auto res = lincheck::check_linearizable(
        lincheck::from_sim_history(sys.history()),
        lincheck::MaxRegisterSpec{});
    ASSERT_TRUE(res.decided) << "seed " << seed;
    EXPECT_TRUE(res.linearizable) << "seed " << seed << ": " << res.message;
  }
}

TEST(Fuzz, MultiOpWorkloadsLinearizableUnderPct) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    auto w = make_workload(seed, 5, 4);
    sim::System sys{w.program};
    sim::PctOptions opts;
    opts.seed = seed;
    opts.depth = 4;
    sim::run_pct(sys, opts);
    ASSERT_TRUE(sim::all_done(sys)) << "seed " << seed;
    const auto res = lincheck::check_linearizable(
        lincheck::from_sim_history(sys.history()),
        lincheck::MaxRegisterSpec{});
    ASSERT_TRUE(res.decided);
    EXPECT_TRUE(res.linearizable) << "seed " << seed << ": " << res.message;
  }
}

TEST(Fuzz, PctFindsThePropagateOnceBugFasterThanUniform) {
  // Bug-finding power check on a known bug (the 1-attempt propagation):
  // PCT's targeted preemptions should expose it within few seeds.
  int pct_hits = 0;
  int uniform_hits = 0;
  constexpr int kSeeds = 60;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    for (const bool use_pct : {true, false}) {
      sim::Program prog;
      auto reg = std::make_shared<SimTreeMaxRegister>(
          prog, 4, maxreg::Faithfulness::kHelpOnDuplicate, 1);
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
        const Value got = co_await reg->read_max(ctx);
        ctx.mark_return(got);
        co_return got;
      });
      sim::System sys{prog};
      if (use_pct) {
        sim::PctOptions opts;
        opts.seed = seed;
        opts.depth = 3;
        opts.max_steps = 200;  // tight budget => change points in range
        opts.only = {0, 1};    // writers race; reader strictly afterwards
        sim::run_pct(sys, opts);
      } else {
        // Uniform random over the writers only (same protocol).
        util::SplitMix64 rng{seed};
        std::vector<ProcId> live{0, 1};
        while (!live.empty()) {
          const auto i = static_cast<std::size_t>(rng.below(live.size()));
          sys.step(live[i]);
          if (!sys.active(live[i])) {
            live[i] = live.back();
            live.pop_back();
          }
        }
      }
      sim::run_solo(sys, 2, 1u << 20);  // the verifying reader
      ASSERT_TRUE(sim::all_done(sys));
      const auto res = lincheck::check_linearizable(
          lincheck::from_sim_history(sys.history()),
          lincheck::MaxRegisterSpec{});
      if (res.decided && !res.linearizable) {
        (use_pct ? pct_hits : uniform_hits) += 1;
      }
    }
  }
  // Both schedulers should be able to find it across 60 seeds; record the
  // comparison (PCT is typically at least as good).
  EXPECT_GT(pct_hits + uniform_hits, 0)
      << "the known bug must be findable by schedule fuzzing";
}

TEST(Fuzz, SimulatorIsDeterministicPerSeed) {
  for (std::uint64_t seed : {1ull, 9ull, 77ull}) {
    auto w1 = make_workload(3, 4, 3);
    auto w2 = make_workload(3, 4, 3);
    sim::System a{w1.program};
    sim::System b{w2.program};
    sim::run_random(a, seed, 1u << 20);
    sim::run_random(b, seed, 1u << 20);
    ASSERT_EQ(a.trace().size(), b.trace().size());
    for (std::size_t i = 0; i < a.trace().size(); ++i) {
      ASSERT_TRUE(a.trace()[i].same_action(b.trace()[i])) << i;
      ASSERT_EQ(a.trace()[i].observed, b.trace()[i].observed) << i;
    }
  }
}

TEST(Fuzz, FullTraceAlwaysReplays) {
  // Closure property: any recorded execution replays response-exact on a
  // fresh system (no hidden nondeterminism anywhere in the stack).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto w = make_workload(seed + 100, 6, 3);
    sim::System sys{w.program};
    sim::run_random(sys, seed, 1u << 22);
    ASSERT_TRUE(sim::all_done(sys));
    sim::System fresh{w.program};
    const auto replay = sim::replay_trace(fresh, sys.trace(), true);
    EXPECT_TRUE(replay.ok) << "seed " << seed << ": " << replay.message;
  }
}

TEST(Fuzz, OnlineKnowledgeAlwaysContainsOffline) {
  // The documented containment: the System's online (conservative) rules
  // give a superset of the literal Definition 1-4 recomputation, on
  // arbitrary workloads.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto w = make_workload(seed + 500, 6, 3);
    sim::System sys{w.program};
    sim::run_random(sys, seed, 1u << 22);
    const auto offline = sim::recompute_knowledge(
        sys.trace(), sys.num_processes(), sys.num_objects());
    for (ProcId p = 0; p < sys.num_processes(); ++p) {
      for (const ProcId q : offline.awareness[p].members()) {
        EXPECT_TRUE(sys.awareness(p).contains(q))
            << "seed " << seed << " p" << p << " q" << q;
      }
    }
    for (sim::ObjectId o = 0; o < sys.num_objects(); ++o) {
      for (const ProcId q : offline.familiarity[o].members()) {
        EXPECT_TRUE(sys.familiarity(o).contains(q))
            << "seed " << seed << " o" << o << " q" << q;
      }
    }
  }
}

TEST(Fuzz, CountersEndExactUnderAnySchedule) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Program prog;
    SimFArrayCounter counter{prog, 7};
    constexpr int kOps = 5;
    for (ProcId p = 0; p < 7; ++p) {
      prog.add_process([&counter](sim::Ctx& ctx) -> sim::Op {
        for (int i = 0; i < kOps; ++i) co_await counter.increment(ctx);
        co_return 0;
      });
    }
    sim::System sys{prog};
    if (seed % 2 == 0) {
      sim::run_random(sys, seed, 1u << 22);
    } else {
      sim::PctOptions opts;
      opts.seed = seed;
      sim::run_pct(sys, opts);
    }
    ASSERT_TRUE(sim::all_done(sys));
    EXPECT_EQ(sys.value(counter.root_object()), 7 * kOps) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ruco::simalgos
