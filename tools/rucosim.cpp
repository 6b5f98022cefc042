// rucosim: command-line driver for the execution-model toolkit.
//
//   rucosim adversary --target=<cas|tree|tree-classic|aac|uaac> --k=<K>
//                     [--max-iter=N] [--min-active=M]
//       Run the Theorem 3 essential-set adversary and print the iteration
//       trace (what examples/adversary_trace does, for any target/size).
//
//   rucosim starve --counter=<farray|maxreg|kcas|dcsnap> --n=<N>
//       Run the Theorem 1 construction against a counter and report
//       rounds, knowledge growth, and the Lemma 3 reader probe.
//
//   rucosim run --target=<cas|tree|tree-classic|aac|uaac|lock> --k=<K> [--seed=S] [--pct]
//               [--show=N] [--dot]
//               [--crash-proc=P [--crash-step=K]] [--crash-rate=PERMILLE]
//               [--max-crashes=F] [--spurious=PERMILLE] [--fault-seed=S]
//       Execute the standard writers+reader program under a random (or
//       PCT) schedule, check linearizability, render the first N trace
//       events, and optionally dump the knowledge graph as DOT.  The
//       --crash*/--spurious flags inject faults: crash process P after K
//       of its own steps, crash random processes at the given per-step
//       per-mille rate (up to F crashes), or fail pending CASes
//       spuriously.  Crashed operations stay pending in the history; the
//       linearizability check must still pass, and the faulty trace is
//       re-verified via replay.
//
//   rucosim certify --target=<cas|tree|tree-classic|aac|uaac|lock> --k=<K>
//                   [--sweep=N] [--storms=N] [--bound=B] [--jobs=N]
//       Run the wait-freedom certifier (crash sweep + crash storms) and
//       report the per-process step bound.  All targets but `lock` must
//       certify; `lock` must fail (blocking negative control).  --jobs
//       parallelizes the sweep/storm schedules; the report is identical
//       for any value.
//
//   rucosim check --target=<cas|tree|tree-classic|aac|uaac|lock> --k=<K>
//                 [--bound=B] [--max-crashes=F] [--max-execs=N]
//                 [--por] [--jobs=N] [--legacy]
//       Explore interleavings of the target's writers+reader program with
//       the model checker, verifying linearizability of every complete
//       execution.  --por enables sleep-set partial-order reduction,
//       --jobs=N parallel exploration, --legacy the original recursive
//       engine (differential oracle).  Prints executions, node/replay
//       counters, pruning counters, wall time and executions/sec.
//
//   rucosim wmm [--dump-dir=DIR] [--max-violations=N]
//       Run the weak-memory leg: the classic litmus battery against its
//       exact RC11 outcome sets, the protocol kernels at the shipped
//       runtime::mo_* orders (zero violations required, search must be
//       complete), and the mutation driver (every weakened order site
//       must exhibit a concrete violating execution).  --dump-dir writes
//       rendered executions -- outcome diffs and kernel violations for
//       failures, the refuting witness for every mutation site -- as
//       text files for CI artifact upload.
//
// Exit code 0 iff every check performed passed.
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ruco/adversary/counter_adversary.h"
#include "ruco/adversary/maxreg_adversary.h"
#include "ruco/core/table.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/sim/certify.h"
#include "ruco/sim/fault.h"
#include "ruco/sim/model_checker.h"
#include "ruco/sim/schedulers.h"
#include "ruco/sim/system.h"
#include "ruco/sim/trace_render.h"
#include "ruco/simalgos/programs.h"
#include "ruco/simalgos/sim_snapshots.h"
#include "ruco/telemetry/sim_export.h"
#include "ruco/telemetry/timeline.h"
#include "ruco/wmm/kernels.h"
#include "ruco/wmm/litmus.h"

namespace {

using ruco::ProcId;
using ruco::Value;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const {
    const auto it = options.find(key);
    // A bare flag (--progress) counts as "present, default value".
    return it == options.end() || it->second.empty() ? fallback
                                                     : std::stoull(it->second);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return options.count(key) != 0;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) continue;
    token = token.substr(2);
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      args.options[token] = "";
    } else {
      args.options[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return args;
}

ruco::simalgos::MaxRegProgram make_target(const std::string& name,
                                          std::uint32_t k) {
  if (name == "tree") return ruco::simalgos::make_tree_maxreg_program(k);
  if (name == "tree-classic") {
    // Paper-literal unconditional double refresh (no pruning): the
    // reference shape for conditional-vs-classic equivalence checks.
    return ruco::simalgos::make_tree_maxreg_program(
        k, ruco::maxreg::Faithfulness::kHelpOnDuplicate,
        ruco::maxreg::RefreshPolicy::kAlwaysTwice);
  }
  if (name == "aac") {
    return ruco::simalgos::make_aac_maxreg_program(
        k, static_cast<Value>(k));
  }
  if (name == "uaac") {
    return ruco::simalgos::make_unbounded_aac_maxreg_program(k);
  }
  if (name == "lock") return ruco::simalgos::make_lock_maxreg_program(k);
  if (name != "cas") {
    std::cerr << "warning: unknown target '" << name
              << "', falling back to cas\n";
  }
  return ruco::simalgos::make_cas_maxreg_program(k);
}

/// Builds the FaultPlan described by the --crash*/--spurious flags;
/// returns whether any fault flag was given.
bool parse_fault_plan(const Args& args, std::uint64_t fallback_seed,
                      ruco::sim::FaultPlan& plan) {
  bool faulty = false;
  plan.seed = args.get_u64("fault-seed", fallback_seed);
  if (args.has("crash-proc")) {
    plan.crash_at.push_back(ruco::sim::CrashPoint{
        static_cast<ProcId>(args.get_u64("crash-proc", 0)),
        args.get_u64("crash-step", 0),
        ruco::sim::CrashPoint::Basis::kOwnSteps});
    faulty = true;
  }
  if (args.has("crash-rate")) {
    plan.crash_per_mille =
        static_cast<std::uint32_t>(args.get_u64("crash-rate", 50));
    plan.max_random_crashes =
        static_cast<std::uint32_t>(args.get_u64("max-crashes", 1));
    faulty = true;
  }
  if (args.has("spurious")) {
    plan.spurious_cas_per_mille =
        static_cast<std::uint32_t>(args.get_u64("spurious", 100));
    faulty = true;
  }
  return faulty;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot write " << path << "\n";
    return false;
  }
  out << text << "\n";
  return static_cast<bool>(out);
}

int cmd_adversary(const Args& args) {
  const std::string target = args.get("target", "cas");
  const auto k = static_cast<std::uint32_t>(args.get_u64("k", 256));
  ruco::adversary::MaxRegAdversaryOptions opts;
  opts.max_iterations = args.get_u64("max-iter", 32);
  opts.min_active = args.get_u64("min-active", 8);
  const auto report =
      ruco::adversary::run_maxreg_adversary(make_target(target, k), opts);

  std::cout << "Theorem 3 adversary vs " << target << ", K = " << k << "\n\n";
  ruco::Table t{{"iter", "case", "m", "|E_i|", "erased", "halted", "replay",
                 "invariants"}};
  for (const auto& it : report.iterations) {
    t.add(it.index, ruco::adversary::to_string(it.contention),
          it.active_before, it.essential_after, it.erased,
          it.halted ? "yes" : "-", it.replay_ok ? "ok" : "FAIL",
          it.invariants_ok ? "ok" : "FAIL");
  }
  t.print();
  std::cout << "\nstopped: " << report.stop_reason << "; i* = "
            << report.iterations_completed << ", |E_i*| = "
            << report.final_essential << "\nreader: " << report.reader_value
            << " in " << report.reader_steps
            << " steps (consistent: " << (report.reader_ok ? "yes" : "NO")
            << ")\n";
  return report.all_replays_ok && report.all_invariants_ok &&
                 report.reader_ok
             ? 0
             : 1;
}

int cmd_starve(const Args& args) {
  const std::string counter = args.get("counter", "farray");
  const auto n = static_cast<std::uint32_t>(args.get_u64("n", 81));
  ruco::simalgos::CounterProgram program =
      counter == "maxreg"
          ? ruco::simalgos::make_maxreg_counter_program(
                n, static_cast<Value>(n))
          : counter == "kcas"
                ? ruco::simalgos::make_kcas_counter_program(n)
                : counter == "dcsnap"
                      ? ruco::simalgos::make_dc_snapshot_counter_program(n)
                      : ruco::simalgos::make_farray_counter_program(n);
  const auto report = ruco::adversary::run_counter_adversary(program);
  std::cout << "Theorem 1 adversary vs " << counter << " counter, N = " << n
            << "\n";
  ruco::Table t{{"rounds", "max inc steps", "M<=3^j", "reader value",
                 "reader steps", "|AW(reader)|"}};
  t.add(report.rounds, report.max_increment_steps,
        report.knowledge_bound_held ? "yes" : "NO", report.reader_value,
        report.reader_steps, report.reader_awareness);
  t.print();
  return report.knowledge_bound_held && report.reader_correct ? 0 : 1;
}

int cmd_run(const Args& args) {
  const std::string target = args.get("target", "tree");
  const auto k = static_cast<std::uint32_t>(args.get_u64("k", 8));
  const std::uint64_t seed = args.get_u64("seed", 1);
  auto bundle = make_target(target, k);
  ruco::sim::System sys{bundle.program};
  const bool want_telemetry = args.has("telemetry");
  const bool want_perfetto = args.has("perfetto");
  if (want_telemetry) sys.enable_decision_log(true);
  ruco::sim::FaultPlan plan;
  const bool faulty = parse_fault_plan(args, seed, plan);
  ruco::sim::FaultInjector injector{sys, plan};
  if (args.has("pct")) {
    ruco::sim::PctOptions opts;
    opts.seed = seed;
    if (faulty) {
      ruco::sim::run_pct(sys, opts, injector);
    } else {
      ruco::sim::run_pct(sys, opts);
    }
  } else if (faulty) {
    ruco::sim::run_random(sys, seed, 1u << 24, injector);
  } else {
    ruco::sim::run_random(sys, seed, 1u << 24);
  }
  if (!ruco::sim::all_done(sys)) {
    std::cout << "schedule budget exhausted before completion\n";
    return 1;
  }
  bool replay_ok = true;
  if (faulty) {
    for (const auto& crash : injector.crashes()) {
      std::cout << "CRASH p" << crash.proc << " after " << crash.own_steps
                << " own steps (global step " << crash.at_trace_size
                << ")\n";
    }
    if (injector.spurious_count() != 0) {
      std::cout << injector.spurious_count()
                << " spurious weak-CAS failure(s)\n";
    }
    if (injector.unfired_placements() != 0) {
      std::cout << "note: " << injector.unfired_placements()
                << " crash placement(s) never fired (the process completed "
                   "before its step threshold)\n";
    }
    // Faulty executions must replay exactly (crashes leave the surviving
    // prefix legal; spurious failures are re-injected from the trace).
    ruco::sim::System fresh{bundle.program};
    const auto replay =
        ruco::sim::replay_trace(fresh, sys.trace(), /*check_responses=*/true);
    replay_ok = replay.ok;
    std::cout << "replay: " << (replay.ok ? "ok" : replay.message) << "\n";
  }
  const auto res = ruco::lincheck::check_linearizable(
      ruco::lincheck::from_sim_history(sys.history()),
      ruco::lincheck::MaxRegisterSpec{});
  const auto show = args.get_u64("show", 24);
  ruco::sim::TraceRenderOptions render;
  render.max_events = show;
  std::cout << ruco::sim::render_trace(sys.trace(), sys.num_processes(),
                                       render);
  std::cout << "\nsteps: " << sys.trace().size();
  if (sys.crash_count() != 0) {
    std::cout << ", crashes: " << sys.crash_count() << " (pending ops: "
              << ruco::lincheck::from_sim_history(sys.history())
                     .pending_count()
              << ")";
  }
  std::cout << ", linearizable: " << (res.linearizable ? "yes" : "NO")
            << " (" << res.states_explored << " states)\n";
  if (args.has("dot")) {
    std::cout << "\n"
              << ruco::sim::knowledge_dot(sys.trace(), sys.num_processes(),
                                          sys.num_objects());
  }
  bool export_ok = true;
  if (want_telemetry) {
    // Contention accounting + scheduler-decision summary, as one JSON file.
    const auto report = ruco::telemetry::contention_report(sys);
    std::uint64_t d_steps = 0;
    std::uint64_t d_crashes = 0;
    std::uint64_t d_spurious = 0;
    for (const auto& d : sys.decision_log()) {
      switch (d.kind) {
        case ruco::sim::SchedDecision::Kind::kStep: ++d_steps; break;
        case ruco::sim::SchedDecision::Kind::kCrash: ++d_crashes; break;
        case ruco::sim::SchedDecision::Kind::kSpurious: ++d_spurious; break;
      }
    }
    std::ostringstream json;
    json << "{\"contention\":" << report.to_json()
         << ",\"decisions\":{\"total\":" << sys.decision_log().size()
         << ",\"steps\":" << d_steps << ",\"crashes\":" << d_crashes
         << ",\"spurious\":" << d_spurious << "}}";
    const std::string path = args.get("telemetry", "telemetry.json");
    export_ok = write_text_file(path, json.str()) && export_ok;
    if (export_ok) std::cout << "wrote " << path << "\n";
  }
  if (want_perfetto) {
    ruco::telemetry::TimelineWriter tl;
    ruco::telemetry::sim_timeline(sys, tl);
    const std::string err = tl.validate();
    if (!err.empty()) {
      std::cerr << "error: perfetto export invalid: " << err << "\n";
      export_ok = false;
    } else {
      const std::string path = args.get("perfetto", "sim.trace.json");
      export_ok = tl.write_file(path) && export_ok;
      if (export_ok) {
        std::cout << "wrote " << path << " (" << tl.num_events()
                  << " events; open at ui.perfetto.dev)\n";
      }
    }
  }
  return res.decided && res.linearizable && replay_ok && export_ok ? 0 : 1;
}

int cmd_certify(const Args& args) {
  const std::string target = args.get("target", "tree");
  const auto k = static_cast<std::uint32_t>(args.get_u64("k", 8));
  auto bundle = make_target(target, k);
  ruco::sim::WaitFreedomOptions opts;
  opts.step_bound = args.get_u64("bound", 0);
  opts.sweep_steps = args.get_u64("sweep", 16);
  opts.storm_seeds = args.get_u64("storms", 8);
  opts.jobs = static_cast<std::uint32_t>(args.get_u64("jobs", 1));
  if (args.has("progress")) {
    opts.progress_interval = args.get_u64("progress", 64);
    opts.on_progress = [](const ruco::sim::CertifyProgress& p) {
      std::cerr << "certify: " << p.schedules_done << "/"
                << p.schedules_total << " schedules, "
                << static_cast<std::uint64_t>(p.schedules_per_sec)
                << "/s, " << static_cast<std::uint64_t>(p.wall_ms)
                << " ms\n";
    };
  }
  const auto report =
      ruco::sim::certify_wait_freedom(bundle.program, opts);
  std::cout << "wait-freedom certification: " << target << ", K = " << k
            << "\n";
  ruco::Table t{{"schedules", "step bound", "worst survivor", "certified"}};
  t.add(report.schedules, report.step_bound, report.worst_survivor_steps,
        report.certified ? "yes" : "NO");
  t.print();
  if (!report.message.empty()) std::cout << report.message << "\n";
  // `lock` is the blocking negative control: failing is its correct result.
  const bool expected = target == "lock" ? !report.certified
                                         : report.certified;
  return expected ? 0 : 1;
}

int cmd_check(const Args& args) {
  const std::string target = args.get("target", "cas");
  const auto k = static_cast<std::uint32_t>(args.get_u64("k", 3));
  auto bundle = make_target(target, k);
  ruco::sim::ModelCheckOptions opts;
  opts.max_executions = args.get_u64("max-execs", 0);
  if (args.has("bound")) {
    opts.preemption_bound =
        static_cast<std::uint32_t>(args.get_u64("bound", 0));
  }
  opts.max_crashes =
      static_cast<std::uint32_t>(args.get_u64("max-crashes", 0));
  opts.por = args.has("por");
  opts.jobs = static_cast<std::uint32_t>(args.get_u64("jobs", 1));
  if (args.has("legacy")) {
    opts.engine = ruco::sim::ModelCheckOptions::Engine::kLegacyRecursive;
  }
  ruco::sim::ModelCheckTelemetry heartbeat;
  if (args.has("progress")) {
    heartbeat.interval_executions = args.get_u64("progress", 10'000);
    heartbeat.on_progress = [](const ruco::sim::ModelCheckProgress& p) {
      std::cerr << "check: " << p.executions << " execs, "
                << static_cast<std::uint64_t>(p.executions_per_sec)
                << "/s, depth " << p.current_depth << ", pruned "
                << p.sleep_pruned << "+" << p.persistent_pruned
                << ", replays " << p.replays << "\n";
    };
    opts.telemetry = &heartbeat;
  }
  const auto verdict = [](const ruco::sim::System& sys) -> std::string {
    const auto res = ruco::lincheck::check_linearizable(
        ruco::lincheck::from_sim_history(sys.history()),
        ruco::lincheck::MaxRegisterSpec{});
    if (!res.decided) return "undecided";
    return res.linearizable ? "" : "non-linearizable execution";
  };
  const auto result =
      ruco::sim::model_check(bundle.program, verdict, opts);

  std::cout << "model check: " << target << ", K = " << k
            << (opts.por ? ", POR" : "") << ", jobs = " << opts.jobs
            << (args.has("legacy") ? ", legacy engine" : "") << "\n";
  ruco::Table t{{"executions", "nodes", "replayed steps", "sleep-pruned",
                 "wall ms", "exec/s"}};
  const double secs = result.stats.wall_ms / 1e3;
  t.add(result.executions, result.stats.nodes, result.stats.replayed_steps,
        result.stats.sleep_pruned,
        static_cast<std::uint64_t>(result.stats.wall_ms),
        secs > 0 ? static_cast<std::uint64_t>(
                       static_cast<double>(result.executions) / secs)
                 : 0);
  t.print();
  std::cout << "verdict: " << (result.ok ? "ok" : "FAIL")
            << (result.exhaustive ? " (exhaustive)" : " (partial)")
            << (result.stop == ruco::sim::StopReason::kBudget
                    ? " [budget reached]"
                    : "")
            << "\n";
  if (args.has("telemetry")) {
    const auto& st = result.stats;
    std::ostringstream json;
    json << "{\"executions\":" << result.executions
         << ",\"nodes\":" << st.nodes
         << ",\"applied_steps\":" << st.applied_steps
         << ",\"replays\":" << st.replays
         << ",\"replayed_steps\":" << st.replayed_steps
         << ",\"sleep_pruned\":" << st.sleep_pruned
         << ",\"persistent_pruned\":" << st.persistent_pruned
         << ",\"frontier_roots\":" << st.frontier_roots
         << ",\"jobs\":" << st.jobs_used
         << ",\"wall_ms\":" << st.wall_ms
         << ",\"executions_per_sec\":"
         << (st.wall_ms > 0
                 ? static_cast<double>(result.executions) * 1e3 / st.wall_ms
                 : 0.0)
         << ",\"depth_hist\":[";
    for (std::size_t i = 0; i < st.depth_hist.size(); ++i) {
      if (i != 0) json << ',';
      json << st.depth_hist[i];
    }
    json << "],\"worker_executions\":[";
    for (std::size_t i = 0; i < st.worker_executions.size(); ++i) {
      if (i != 0) json << ',';
      json << st.worker_executions[i];
    }
    json << "]}";
    const std::string path = args.get("telemetry", "check_telemetry.json");
    if (write_text_file(path, json.str())) {
      std::cout << "wrote " << path << "\n";
    } else {
      return 1;
    }
  }
  if (!result.ok) {
    std::cout << result.message << "\n"
              << ruco::sim::render_schedule(bundle.program,
                                            result.counterexample);
  }
  return result.ok ? 0 : 1;
}

std::string wmm_slug(const std::string& name) {
  std::string out;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(c);
    } else if (!out.empty() && out.back() != '-') {
      out.push_back('-');
    }
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out;
}

std::string wmm_joint(const std::vector<Value>& tuple) {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (i != 0) os << ',';
    os << tuple[i];
  }
  os << ')';
  return os.str();
}

int cmd_wmm(const Args& args) {
  const std::string dump_dir = args.get("dump-dir", "");
  if (!dump_dir.empty()) std::filesystem::create_directories(dump_dir);
  const std::size_t max_violations = args.get_u64("max-violations", 4);
  bool all_ok = true;
  const auto dump = [&](const std::string& slug, const std::string& text) {
    if (dump_dir.empty()) return;
    const std::string path = dump_dir + "/wmm_" + slug + ".txt";
    if (write_text_file(path, text)) std::cout << "wrote " << path << "\n";
  };

  std::cout << "== litmus batteries (exact RC11 outcome sets) ==\n";
  ruco::Table lt{{"suite", "litmus", "executions", "outcomes", "verdict"}};
  struct Suite {
    const char* tag;
    std::vector<ruco::wmm::Litmus> tests;
  };
  const Suite suites[] = {{"classic", ruco::wmm::classic_battery()},
                          {"handtuned", ruco::wmm::handtuned_battery()}};
  for (const auto& suite : suites) {
    for (const auto& lit : suite.tests) {
      const std::set<std::vector<Value>> expected(lit.allowed.begin(),
                                                  lit.allowed.end());
      const auto res = ruco::wmm::explore(lit.program);
      const bool pass = res.complete && res.ok() && res.joint == expected;
      lt.add(suite.tag, lit.name, res.executions, res.joint.size(),
             pass ? "ok" : "FAIL");
      if (pass) continue;
      all_ok = false;
      std::ostringstream txt;
      txt << lit.name << ": " << lit.description << "\n\n"
          << "expected joint outcomes:\n";
      for (const auto& t : expected) txt << "  " << wmm_joint(t) << "\n";
      txt << "\nexplored joint outcomes:\n";
      for (const auto& t : res.joint) txt << "  " << wmm_joint(t) << "\n";
      for (const auto& v : res.violations) {
        txt << "\n[" << v.kind << "] " << v.message << "\n" << v.dump;
      }
      dump("litmus-" + wmm_slug(lit.name), txt.str());
    }
  }
  lt.print();

  std::cout << "\n== protocol kernels at the shipped orders ==\n";
  ruco::Table kt{
      {"kernel", "executions", "states", "violations", "complete", "verdict"}};
  for (const auto& kernel : ruco::wmm::all_kernels()) {
    const auto res = ruco::wmm::check_kernel(kernel, max_violations);
    const bool pass = res.ok() && res.complete;
    kt.add(kernel.name, res.executions, res.states, res.violation_count,
           res.complete ? "yes" : "NO", pass ? "ok" : "FAIL");
    if (pass) continue;
    all_ok = false;
    for (std::size_t i = 0; i < res.violations.size(); ++i) {
      const auto& v = res.violations[i];
      dump("kernel-" + wmm_slug(kernel.name) + "-" + std::to_string(i),
           kernel.name + " [" + v.kind + "] " + v.message + "\n\n" + v.dump);
    }
  }
  kt.print();

  std::cout << "\n== mutation driver (each weakened site must be refuted) ==\n";
  ruco::Table mt{{"weakened site", "violations", "pinned", "verdict"}};
  const std::vector<ruco::wmm::MutationOutcome> outcomes =
      ruco::wmm::run_mutation_driver(ruco::wmm::all_mutation_sites());
  for (const auto& m : outcomes) {
    mt.add(m.id, m.violation_count, m.pr4_regression ? "PR-4" : "",
           m.found() ? "refuted (ok)" : "NOT REFUTED (FAIL)");
    if (!m.found()) {
      all_ok = false;
      continue;
    }
    dump("mutation-" + wmm_slug(m.id),
         m.id + "\n" + m.note + "\n\n[" + m.sample_kind + "] " +
             m.sample_message + "\n\n" + m.sample_dump);
  }
  mt.print();

  std::cout << "\nverdict: "
            << (all_ok ? "ok (shipped orders clean, every weakened site "
                         "exhibits a violating execution)"
                       : "FAIL")
            << "\n";
  return all_ok ? 0 : 1;
}

int usage() {
  std::cout << "usage:\n"
               "  rucosim adversary --target=<cas|tree|tree-classic|aac|uaac> --k=<K>"
               " [--max-iter=N] [--min-active=M]\n"
               "  rucosim starve    --counter=<farray|maxreg|kcas|dcsnap>"
               " --n=<N>\n"
               "  rucosim run       --target=<cas|tree|tree-classic|aac|uaac|lock> --k=<K>"
               " [--seed=S] [--pct] [--show=N] [--dot]\n"
               "                    [--crash-proc=P [--crash-step=K]]"
               " [--crash-rate=PERMILLE] [--max-crashes=F]\n"
               "                    [--spurious=PERMILLE] [--fault-seed=S]\n"
               "                    [--telemetry[=out.json]]"
               " [--perfetto[=out.trace.json]]\n"
               "  rucosim certify   --target=<cas|tree|tree-classic|aac|uaac|lock> --k=<K>"
               " [--sweep=N] [--storms=N] [--bound=B] [--jobs=N]\n"
               "                    [--progress[=N]]\n"
               "  rucosim check     --target=<cas|tree|tree-classic|aac|uaac|lock> --k=<K>"
               " [--bound=B] [--max-crashes=F]\n"
               "                    [--max-execs=N] [--por] [--jobs=N]"
               " [--legacy] [--progress[=N]]"
               " [--telemetry[=out.json]]\n"
               "  rucosim wmm       [--dump-dir=DIR] [--max-violations=N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.command == "adversary") return cmd_adversary(args);
    if (args.command == "starve") return cmd_starve(args);
    if (args.command == "run") return cmd_run(args);
    if (args.command == "certify") return cmd_certify(args);
    if (args.command == "check") return cmd_check(args);
    if (args.command == "wmm") return cmd_wmm(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
