// Ablation (DESIGN.md decision 2): why Algorithm A CASes *twice* per level
// (lines 6-9).  One attempt would save half the write steps -- and loses
// linearizability.  We quantify both sides:
//   (a) the step savings a single-attempt variant would enjoy,
//   (b) the violation rate random schedules expose for attempts = 1 vs the
//       zero violations for attempts = 2.
//
//   --json <path>  instead, run the deterministic perf-smoke lanes and
//                  write them in the series schema of
//                  scripts/check_perf_smoke.py, each under the same seeded
//                  PCT schedules: 4 writers of fresh maxima on a
//                  SimTreeMaxRegister (lane "tree maxreg (Alg A)|sim-pct|4")
//                  and 4 incrementers of a SimFArrayCounter (lane
//                  "f-array counter|sim-pct|4").
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "provenance.h"
#include "ruco/core/table.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/sim/schedulers.h"
#include "ruco/sim/system.h"
#include "ruco/simalgos/sim_counters.h"
#include "ruco/simalgos/sim_max_registers.h"
#include "ruco/util/rng.h"

namespace {

using ruco::ProcId;
using ruco::Value;
using ruco::simalgos::SimFArrayCounter;
using ruco::simalgos::SimTreeMaxRegister;

struct SweepResult {
  int violations = 0;
  int runs = 0;
  double mean_write_steps = 0;
};

SweepResult sweep(int attempts, int seeds) {
  SweepResult out;
  std::uint64_t total_steps = 0;
  std::uint64_t total_writes = 0;
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(seeds);
       ++seed) {
    ruco::sim::Program prog;
    auto reg = std::make_shared<SimTreeMaxRegister>(
        prog, 4, ruco::maxreg::Faithfulness::kHelpOnDuplicate, attempts);
    constexpr Value kWriters = 2;  // sibling B1 leaves: the racy pair
    for (Value v = 1; v <= kWriters; ++v) {
      prog.add_process([reg, v](ruco::sim::Ctx& ctx) -> ruco::sim::Op {
        ctx.mark_invoke("WriteMax", v);
        co_await reg->write_max(ctx, v);
        ctx.mark_return(0);
        co_return 0;
      });
    }
    prog.add_process([reg](ruco::sim::Ctx& ctx) -> ruco::sim::Op {
      ctx.mark_invoke("ReadMax", 0);
      const Value v = co_await reg->read_max(ctx);
      ctx.mark_return(v);
      co_return v;
    });
    ruco::sim::System sys{prog};
    ruco::util::SplitMix64 rng{seed};
    std::vector<ProcId> live{0, 1};
    while (!live.empty()) {
      const std::size_t i = static_cast<std::size_t>(rng.below(live.size()));
      sys.step(live[i]);
      if (!sys.active(live[i])) {
        live[i] = live.back();
        live.pop_back();
      }
    }
    total_steps += sys.steps_taken(0) + sys.steps_taken(1);
    total_writes += 2;
    ruco::sim::run_solo(sys, kWriters, 1u << 20);  // reader strictly after
    const auto res = ruco::lincheck::check_linearizable(
        ruco::lincheck::from_sim_history(sys.history()),
        ruco::lincheck::MaxRegisterSpec{});
    ++out.runs;
    if (res.decided && !res.linearizable) ++out.violations;
  }
  out.mean_write_steps =
      static_cast<double>(total_steps) / static_cast<double>(total_writes);
  return out;
}

// Each lane runs kProcs processes of kOpsEach operations on one object.
// Writer t's k-th write is k * kProcs + t, as in bench_hw_throughput
// --contend: values interleave across writers, so a write propagates
// unless a faster writer already put a larger value at the root; every
// increment propagates.  A PCT schedule is a function of its seed, so
// steps per operation are exact and the lanes can be held to the guard's
// tight tolerance.  The budget estimate kPctSteps puts PCT's kPctDepth - 1
// priority change points in the first quarter of it, inside runs of about
// 374 (max register) and 527 (counter) steps; a run that reached the budget
// would be cut short, and the lane reports it.
struct PctLane {
  static constexpr ruco::ProcId kProcs = 4;
  static constexpr Value kOpsEach = 16;
  static constexpr std::uint64_t kSeeds = 64;
  static constexpr std::uint32_t kPctDepth = 6;
  static constexpr std::uint64_t kPctSteps = 1024;
  const char* workload;
  std::uint64_t steps = 0;
  std::uint64_t ops = 0;
  bool complete = true;
};

// `make(prog)` builds the object; `operation(object, ctx, v)` is one
// operation of it, with v the write operand described above.
template <class Make, class Operation>
PctLane pct_lane(const char* workload, Make make, Operation operation) {
  PctLane lane{workload};
  for (std::uint64_t seed = 1; seed <= PctLane::kSeeds; ++seed) {
    ruco::sim::Program prog;
    auto object = make(prog);
    for (ProcId t = 0; t < PctLane::kProcs; ++t) {
      prog.add_process(
          [&object, &operation, t](ruco::sim::Ctx& ctx) -> ruco::sim::Op {
            for (Value k = 0; k < PctLane::kOpsEach; ++k) {
              co_await operation(object, ctx, k * PctLane::kProcs + t);
            }
            co_return 0;
          });
    }
    ruco::sim::System sys{prog};
    ruco::sim::PctOptions pct;
    pct.seed = seed;
    pct.depth = PctLane::kPctDepth;
    pct.max_steps = PctLane::kPctSteps;
    lane.steps += ruco::sim::run_pct(sys, pct);
    for (ProcId t = 0; t < PctLane::kProcs; ++t) {
      if (sys.active(t)) lane.complete = false;
    }
    lane.ops += PctLane::kProcs * PctLane::kOpsEach;
  }
  return lane;
}

int write_json(const std::string& path) {
  const std::vector<PctLane> lanes{
      pct_lane(
          "tree maxreg (Alg A)",
          [](ruco::sim::Program& prog) {
            return SimTreeMaxRegister{
                prog, PctLane::kProcs,
                ruco::maxreg::Faithfulness::kHelpOnDuplicate};
          },
          [](SimTreeMaxRegister& reg, ruco::sim::Ctx& ctx, Value v) {
            return reg.write_max(ctx, v);
          }),
      pct_lane(
          "f-array counter",
          [](ruco::sim::Program& prog) {
            return SimFArrayCounter{prog, PctLane::kProcs};
          },
          [](const SimFArrayCounter& counter, ruco::sim::Ctx& ctx, Value) {
            return counter.increment(ctx);
          })};
  std::ofstream out{path};
  out << "{\n  \"bench\": \"propagate_ablation\",\n";
  ruco::bench::write_provenance(out);
  out << "  \"seeds\": " << PctLane::kSeeds << ",\n  \"series\": [\n";
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const PctLane& lane = lanes[i];
    if (!lane.complete) {
      std::cerr << lane.workload
                << "|sim-pct: a run reached the PCT step budget\n";
      return 1;
    }
    const double steps_per_op =
        static_cast<double>(lane.steps) / static_cast<double>(lane.ops);
    out << "    {\"workload\": \"" << lane.workload
        << "\", \"mode\": \"sim-pct\", \"threads\": " << PctLane::kProcs
        << ", \"ops\": " << lane.ops << ", \"steps\": " << lane.steps
        << ", \"steps_per_op\": " << steps_per_op << "}"
        << (i + 1 < lanes.size() ? ",\n" : "\n");
    std::cout << lane.workload << "|sim-pct|" << PctLane::kProcs
              << ": steps/op " << steps_per_op << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string{argv[i]} == "--json" && i + 1 < argc) {
      return write_json(argv[i + 1]);
    }
  }
  std::cout << "# Ablation: double-CAS propagation (Algorithm A lines 6-9)"
               "\n\n";
  ruco::Table t{{"propagate attempts", "mean WriteMax steps",
                 "violations / runs", "linearizable"}};
  for (const int attempts : {1, 2, 3}) {
    const auto r = sweep(attempts, 1500);
    t.add(attempts, r.mean_write_steps,
          std::to_string(r.violations) + " / " + std::to_string(r.runs),
          r.violations == 0 ? "yes" : "NO");
  }
  t.print();
  std::cout
      << "\nShape check: one attempt is ~2x cheaper and measurably wrong "
         "(random schedules already catch completed-write losses); two "
         "attempts suffice -- the paper's Lemma 9 argument -- and a third "
         "buys nothing but steps.\n";
  return 0;
}
