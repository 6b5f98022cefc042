// Model-checker economics, in two parts.
//
// Part 1 (unchanged): coverage vs preemption bound -- schedules explored
// under iterative context bounding, and the measured *bug depth* of the
// two Algorithm A defects this reproduction identified (the printed
// early-return gap at depth 1, the single-propagation-attempt ablation at
// depth 2).
//
// Part 2: the exploration engine itself.  The rearchitected checker keeps
// one live System per worker and replays only on backtrack (replay-light
// DFS), optionally prunes commuting interleavings (sleep-set POR plus a
// persistent-set filter over declared footprints), and splits the tree
// across worker threads.  This benchmark measures each win separately:
//
//   * headline -- the 4-process Algorithm A exhaustive check (one writer
//     on a K=8 tree, three single-step readers; every interleaving
//     linearizability-checked): legacy recursive engine vs the
//     replay-light engine with POR at jobs = 1.  Acceptance: >= 5x.
//   * bounded series -- context-bounded runs (POR gated off by design):
//     replay-light alone.
//   * disjoint-writers series -- processes with declared disjoint
//     footprints: the persistent-set filter collapses the factorial
//     schedule space to essentially one representative.
//   * jobs scaling -- a budgeted deep exploration split across
//     jobs in {1, 2, 4}; executions stay identical (deterministic budget
//     tickets), wall time should drop near-linearly.
//
// --json <path> writes the measurements (including the headline speedup)
// as JSON for CI and the checked-in BENCH_model_checker.json, with the
// host's CPU count (nproc), the build type and the compiler at the top;
// --smoke
// shrinks the workloads for fast CI runs.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ruco/core/table.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/sim/model_checker.h"
#include "ruco/simalgos/sim_max_registers.h"
#include "provenance.h"

namespace {

using ruco::Value;
using ruco::sim::ObjectId;
using ruco::maxreg::Faithfulness;

ruco::sim::Program make_program(Faithfulness mode, int attempts,
                                bool same_operand) {
  ruco::sim::Program prog;
  auto reg = std::make_shared<ruco::simalgos::SimTreeMaxRegister>(
      prog, 4, mode, attempts);
  for (int w = 0; w < 2; ++w) {
    const Value v = same_operand ? 1 : w + 1;
    prog.add_process([reg, v](ruco::sim::Ctx& ctx) -> ruco::sim::Op {
      ctx.mark_invoke("WriteMax", v);
      co_await reg->write_max(ctx, v);
      ctx.mark_return(0);
      co_return 0;
    });
  }
  prog.add_process([reg](ruco::sim::Ctx& ctx) -> ruco::sim::Op {
    ctx.mark_invoke("ReadMax", 0);
    const Value got = co_await reg->read_max(ctx);
    ctx.mark_return(got);
    co_return got;
  });
  return prog;
}

/// The headline workload: one writer propagating through a K-leaf
/// Algorithm A tree plus `readers` single-step root readers -- the largest
/// Algorithm A configuration whose *full* interleaving space the legacy
/// engine can enumerate in benchmark time.
ruco::sim::Program make_headline_program(std::uint32_t k,
                                         std::uint32_t readers) {
  ruco::sim::Program prog;
  auto reg = std::make_shared<ruco::simalgos::SimTreeMaxRegister>(
      prog, k, Faithfulness::kHelpOnDuplicate, 2);
  const Value v = static_cast<Value>(k - 1);
  prog.add_process([reg, v](ruco::sim::Ctx& ctx) -> ruco::sim::Op {
    ctx.mark_invoke("WriteMax", v);
    co_await reg->write_max(ctx, v);
    ctx.mark_return(0);
    co_return 0;
  });
  for (std::uint32_t r = 0; r < readers; ++r) {
    prog.add_process([reg](ruco::sim::Ctx& ctx) -> ruco::sim::Op {
      ctx.mark_invoke("ReadMax", 0);
      const Value got = co_await reg->read_max(ctx);
      ctx.mark_return(got);
      co_return got;
    });
  }
  return prog;
}

/// POR showcase: n processes, each writing `steps` ascending values to its
/// own object, footprints declared.  Every pair of steps from different
/// processes commutes, so the persistent-set filter reduces the
/// (n*steps)!/(steps!)^n interleavings to a single representative.
ruco::sim::Program make_disjoint_writers(std::uint32_t n,
                                         std::uint32_t steps) {
  ruco::sim::Program prog;
  std::vector<ObjectId> objs;
  for (std::uint32_t p = 0; p < n; ++p) objs.push_back(prog.add_object(0));
  for (std::uint32_t p = 0; p < n; ++p) {
    const ObjectId o = objs[p];
    prog.add_process(
        [o, steps](ruco::sim::Ctx& ctx) -> ruco::sim::Op {
          for (std::uint32_t s = 1; s <= steps; ++s) {
            co_await ctx.write(o, static_cast<Value>(s));
          }
          co_return 0;
        },
        {o});
  }
  return prog;
}

std::string lin_verdict(const ruco::sim::System& sys) {
  const auto res = ruco::lincheck::check_linearizable(
      ruco::lincheck::from_sim_history(sys.history()),
      ruco::lincheck::MaxRegisterSpec{});
  if (!res.decided) return "undecided";
  return res.linearizable ? "" : "non-linearizable";
}

std::string ok_verdict(const ruco::sim::System&) { return ""; }

struct Measurement {
  std::string series;
  std::string config;
  ruco::sim::ModelCheckResult result;
};

/// JSON-escapes nothing fancy: all our strings are plain ASCII labels.
void write_json(const std::string& path, bool smoke,
                const std::vector<Measurement>& rows, double baseline_ms,
                double optimized_ms,
                const std::vector<std::pair<std::uint32_t, double>>& scaling) {
  std::ofstream out{path};
  out << "{\n  \"bench\": \"model_checker\",\n";
  ruco::bench::write_provenance(out);
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"hardware_cores\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"headline\": {\n"
      << "    \"workload\": \"4-process Algorithm A exhaustive "
         "(1 writer + 3 readers, K=8 tree)\",\n"
      << "    \"baseline\": \"legacy recursive engine\",\n"
      << "    \"optimized\": \"replay-light + POR, jobs=1\",\n"
      << "    \"baseline_ms\": " << baseline_ms << ",\n"
      << "    \"optimized_ms\": " << optimized_ms << ",\n"
      << "    \"speedup\": "
      << (optimized_ms > 0 ? baseline_ms / optimized_ms : 0.0) << ",\n"
      << "    \"jobs_scaling\": [";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "{\"jobs\": " << scaling[i].first
        << ", \"wall_ms\": " << scaling[i].second << "}";
  }
  out << "]\n  },\n  \"series\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& m = rows[i];
    const auto& s = m.result.stats;
    out << "    {\"series\": \"" << m.series << "\", \"config\": \""
        << m.config << "\", \"ok\": " << (m.result.ok ? "true" : "false")
        << ", \"executions\": " << m.result.executions
        << ", \"nodes\": " << s.nodes
        << ", \"applied_steps\": " << s.applied_steps
        << ", \"replayed_steps\": " << s.replayed_steps
        << ", \"sleep_pruned\": " << s.sleep_pruned
        << ", \"persistent_pruned\": " << s.persistent_pruned
        << ", \"jobs\": " << s.jobs_used << ", \"wall_ms\": " << s.wall_ms
        << "}" << (i + 1 == rows.size() ? "" : ",") << "\n";
  }
  out << "  ]\n}\n";
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

  std::cout << "# Context-bounded model checking: coverage vs bound, and "
               "measured bug depths\n\n";

  ruco::Table t{{"variant", "bound", "schedules", "violation found"}};
  struct Case {
    const char* name;
    Faithfulness mode;
    int attempts;
    bool same_operand;
  };
  const Case cases[] = {
      {"as-printed (early-return gap)", Faithfulness::kAsPrinted, 2, true},
      {"propagate-once ablation", Faithfulness::kHelpOnDuplicate, 1, false},
      {"fixed Algorithm A", Faithfulness::kHelpOnDuplicate, 2, true},
  };
  for (const auto& c : cases) {
    for (const std::uint32_t bound : {0u, 1u, 2u}) {
      const auto prog = make_program(c.mode, c.attempts, c.same_operand);
      ruco::sim::ModelCheckOptions options;
      options.preemption_bound = bound;
      const auto result = ruco::sim::model_check(prog, lin_verdict, options);
      t.add(c.name, bound, result.executions, result.ok ? "no" : "YES");
      if (!result.ok) break;  // deeper bounds would re-find it
    }
  }
  t.print();

  // ------------------------------------------------------ engine benchmarks
  std::cout << "\n# Exploration engine: legacy recursion vs replay-light "
               "DFS + POR + parallel split\n\n";

  std::vector<Measurement> rows;
  ruco::Table perf{{"series", "config", "executions", "nodes",
                    "replayed steps", "sleep-pruned", "wall ms"}};
  auto record = [&](const std::string& series, const std::string& config,
                    const ruco::sim::ModelCheckResult& r) {
    perf.add(series, config, r.executions, r.stats.nodes,
             r.stats.replayed_steps, r.stats.sleep_pruned + r.stats.persistent_pruned,
             static_cast<std::uint64_t>(r.stats.wall_ms));
    rows.push_back({series, config, r});
    if (!r.ok) {
      std::cerr << "UNEXPECTED violation in " << series << "/" << config
                << ": " << r.message << "\n";
    }
  };

  using Engine = ruco::sim::ModelCheckOptions::Engine;

  // Headline: exhaustive 4-process Algorithm A (smoke: K=4 tree, 7980
  // interleavings; full: K=8 tree, 21924).
  const std::uint32_t headline_k = smoke ? 4 : 8;
  const auto headline = make_headline_program(headline_k, 3);
  double baseline_ms = 0;
  double optimized_ms = 0;
  {
    ruco::sim::ModelCheckOptions o;
    o.engine = Engine::kLegacyRecursive;
    const auto r = ruco::sim::model_check(headline, lin_verdict, o);
    record("headline algA 1w+3r K=" + std::to_string(headline_k), "legacy",
           r);
    baseline_ms = r.stats.wall_ms;
  }
  {
    ruco::sim::ModelCheckOptions o;
    const auto r = ruco::sim::model_check(headline, lin_verdict, o);
    record("headline algA 1w+3r K=" + std::to_string(headline_k),
           "replay-light", r);
  }
  {
    ruco::sim::ModelCheckOptions o;
    o.por = true;
    const auto r = ruco::sim::model_check(headline, lin_verdict, o);
    record("headline algA 1w+3r K=" + std::to_string(headline_k),
           "replay-light+POR", r);
    optimized_ms = r.stats.wall_ms;
  }

  // Context-bounded series: POR is gated off under a preemption bound, so
  // this isolates the replay-light win.
  for (const std::uint32_t bound : {1u, 2u}) {
    const auto prog = make_program(Faithfulness::kHelpOnDuplicate, 2, true);
    for (const Engine eng : {Engine::kLegacyRecursive, Engine::kIterative}) {
      ruco::sim::ModelCheckOptions o;
      o.preemption_bound = bound;
      o.engine = eng;
      const auto r = ruco::sim::model_check(prog, lin_verdict, o);
      record("bounded 2w+1r bound=" + std::to_string(bound),
             eng == Engine::kIterative ? "replay-light" : "legacy", r);
    }
  }

  // Disjoint-writers series: declared footprints let the persistent-set
  // filter collapse the factorial schedule space to one representative.
  {
    const std::uint32_t n = 3;
    const std::uint32_t steps = smoke ? 2 : 4;  // 90 / 34650 interleavings
    const auto label = "disjoint " + std::to_string(n) + "w x " +
                       std::to_string(steps) + " steps";
    const auto prog = make_disjoint_writers(n, steps);
    {
      ruco::sim::ModelCheckOptions o;
      o.engine = Engine::kLegacyRecursive;
      record(label, "legacy", ruco::sim::model_check(prog, ok_verdict, o));
    }
    {
      ruco::sim::ModelCheckOptions o;
      record(label, "replay-light",
             ruco::sim::model_check(prog, ok_verdict, o));
    }
    {
      ruco::sim::ModelCheckOptions o;
      o.por = true;
      record(label, "replay-light+POR",
             ruco::sim::model_check(prog, ok_verdict, o));
    }
  }

  // Parallel scaling: a deep budgeted exploration (2 writers + reader on
  // the K=4 tree, 38-step schedules).  The budget is reserved through a
  // shared ticket counter, so executions are identical for every jobs
  // value while wall time drops.
  std::vector<std::pair<std::uint32_t, double>> scaling;
  {
    const auto prog = make_program(Faithfulness::kHelpOnDuplicate, 2, false);
    for (const std::uint32_t jobs : {1u, 2u, 4u}) {
      ruco::sim::ModelCheckOptions o;
      o.max_executions = smoke ? 20'000 : 150'000;
      o.jobs = jobs;
      const auto r = ruco::sim::model_check(prog, lin_verdict, o);
      record("budgeted 2w+1r", "jobs=" + std::to_string(jobs), r);
      scaling.emplace_back(jobs, r.stats.wall_ms);
    }
  }

  perf.print();
  const double speedup =
      optimized_ms > 0 ? baseline_ms / optimized_ms : 0.0;
  std::cout << "\nheadline: legacy " << baseline_ms << " ms -> replay-light"
            << "+POR " << optimized_ms << " ms at jobs=1  ("
            << speedup << "x)\n";
  if (!scaling.empty() && scaling.back().second > 0) {
    std::cout << "scaling: jobs=1 " << scaling.front().second
              << " ms -> jobs=" << scaling.back().first << " "
              << scaling.back().second << " ms  ("
              << scaling.front().second / scaling.back().second << "x) on "
              << std::thread::hardware_concurrency() << " hardware core(s)";
    if (std::thread::hardware_concurrency() < scaling.back().first) {
      std::cout << " -- fewer cores than jobs; expect flat wall time here "
                   "and near-linear scaling on a multicore host";
    }
    std::cout << "\n";
  }
  std::cout
      << "\nShape check: the replay-light engine eliminates the legacy "
         "fresh-System-per-node construction and its full-prefix replay at "
         "every interior node, POR prunes commuting interleavings "
         "(factorially many for the disjoint-footprint writers), and the "
         "parallel split divides the same deterministic exploration across "
         "workers.\n";

  if (!json_path.empty()) {
    write_json(json_path, smoke, rows, baseline_ms, optimized_ms, scaling);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
