// Wait-freedom under crash storms: worst-case survivor step counts as the
// number of injected crashes f grows (the paper's fault model is f < N).
// The wait-free algorithms' survivors finish in a bounded -- essentially
// flat -- number of their own steps no matter how many peers crash
// mid-operation; the spinlock register is the blocking contrast: one
// crashed lock holder and the survivors spin until the schedule budget
// runs out.
//
// --json <path> dumps the table as JSON, with the host's CPU count
// (nproc), the build type and the compiler at the top; --smoke shrinks the
// seed count for fast CI runs.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "ruco/core/table.h"
#include "ruco/sim/fault.h"
#include "ruco/sim/schedulers.h"
#include "ruco/sim/system.h"
#include "ruco/simalgos/programs.h"
#include "provenance.h"

namespace {

using ruco::ProcId;

struct StormResult {
  bool all_completed = true;   // every survivor finished in every storm
  std::uint64_t worst = 0;     // max own-steps any survivor needed
  std::uint64_t crashes = 0;   // total crashes actually injected
};

StormResult run_storms(const ruco::sim::Program& program,
                       std::uint32_t max_crashes, std::uint64_t seeds,
                       std::uint64_t budget) {
  StormResult out;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    ruco::sim::System sys{program};
    ruco::sim::FaultPlan plan;
    plan.seed = seed;
    plan.max_random_crashes = max_crashes;
    plan.crash_per_mille = max_crashes == 0 ? 0 : 150;
    plan.min_survivors = 1;
    ruco::sim::FaultInjector injector{sys, plan};
    ruco::sim::run_random(sys, seed * 977, budget, injector);
    out.crashes += injector.crash_count();
    for (ProcId p = 0; p < sys.num_processes(); ++p) {
      if (sys.crashed(p)) continue;
      out.worst = std::max(out.worst, sys.steps_taken(p));
      out.all_completed = out.all_completed && sys.done(p);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }

  std::cout << "# Crash storms: worst survivor step count vs crashes "
               "injected (f < N = 8)\n\n";

  constexpr std::uint32_t kProcs = 8;
  const std::uint64_t kSeeds = smoke ? 8 : 32;
  // Small budget: wait-free survivors need only dozens of steps; a blocking
  // survivor spins to the budget, so a tight one keeps the contrast fast.
  constexpr std::uint64_t kBudget = 1u << 14;

  // Keep the whole bundles: the Program bodies reference the algorithm
  // instance each bundle owns.
  const auto tree = ruco::simalgos::make_tree_maxreg_program(kProcs);
  const auto cas = ruco::simalgos::make_cas_maxreg_program(kProcs);
  const auto aac = ruco::simalgos::make_aac_maxreg_program(kProcs, kProcs);
  const auto farray = ruco::simalgos::make_farray_counter_program(kProcs);
  const auto lock = ruco::simalgos::make_lock_maxreg_program(kProcs);
  struct Target {
    const char* name;
    const ruco::sim::Program& program;
  };
  const Target targets[] = {
      {"tree maxreg (Alg A)", tree.program},
      {"cas maxreg", cas.program},
      {"aac maxreg", aac.program},
      {"f-array counter", farray.program},
      {"LOCK maxreg (blocking)", lock.program},
  };

  struct Row {
    std::string name;
    std::uint32_t f = 0;
    StormResult r;
  };
  std::vector<Row> rows;
  ruco::Table t{{"algorithm", "max crashes", "crashes injected",
                 "worst survivor steps", "all survivors done"}};
  for (const auto& target : targets) {
    for (const std::uint32_t f : {0u, 1u, 2u, 4u, kProcs - 1}) {
      const auto r = run_storms(target.program, f, kSeeds, kBudget);
      t.add(target.name, f, r.crashes, r.worst, r.all_completed ? "yes" : "NO");
      rows.push_back({target.name, f, r});
    }
  }
  t.print();
  if (!json_path.empty()) {
    std::ofstream out{json_path};
    out << "{\n  \"bench\": \"crash_storm\",\n";
    ruco::bench::write_provenance(out);
    out << "  \"procs\": " << kProcs
        << ",\n  \"seeds\": " << kSeeds << ",\n  \"series\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << "    {\"algorithm\": \"" << rows[i].name
          << "\", \"max_crashes\": " << rows[i].f
          << ", \"crashes_injected\": " << rows[i].r.crashes
          << ", \"worst_survivor_steps\": " << rows[i].r.worst
          << ", \"all_survivors_done\": "
          << (rows[i].r.all_completed ? "true" : "false") << "}"
          << (i + 1 == rows.size() ? "" : ",") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  std::cout
      << "\nShape check: for the wait-free algorithms the worst survivor "
         "step count stays flat (within the fault-free ballpark) as f grows "
         "to N-1 and every survivor completes.  The spinlock register "
         "completes only at f = 0: once a storm crashes the lock holder, "
         "the survivors spin until the " << kBudget
      << "-step budget expires -- exactly the behavior the wait-freedom "
         "certifier rejects.\n";
  return 0;
}
