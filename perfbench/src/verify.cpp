// verify: a fixed batch of verification jobs with known verdicts, run over
// and over until --seconds have passed.  Nothing here touches the
// production atomics: the jobs exercise sim, simalgos, the model checker,
// the certifier, lincheck, wmm and the adversary.  The verdicts are checked
// against a hand-written file, never against output of the code under test.
//
// The batch's object traffic is the sim-ops job: 4096 simulated processes,
// each running one ReadMax / WriteMax / CounterRead / CounterIncrement solo
// on the sim twins of Algorithm A and the f-array counter, in a seeded
// order.  Its calls, timed in thread CPU time like everything in verify,
// give the workload's read and update latencies, and its results are
// checked against the sequential specification.  With 4096 processes the
// few calls that grow the System's trace vector stay well inside the top
// 1% of updates, so they do not decide the p99.
//
// Each of `nproc` (at most 4) workers runs the batch over and over, its
// jobs one after another on that worker's thread (model checker and
// certifier with jobs = 1), and batch and job times are that thread's CPU
// time.  On the shared reference VM (README) the hypervisor steals a varying share of wall
// time, and one thread's CPU speed moved by up to 1.7x between batches
// (other tenants on the host core); pooling batches from all vCPUs
// averages that out.
#include <algorithm>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "memory.h"
#include "oracle.h"
#include "ruco/adversary/maxreg_adversary.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/history.h"
#include "ruco/lincheck/specs.h"
#include "ruco/sim/certify.h"
#include "ruco/sim/model_checker.h"
#include "ruco/sim/schedulers.h"
#include "ruco/sim/system.h"
#include "ruco/simalgos/programs.h"
#include "ruco/simalgos/sim_counters.h"
#include "ruco/simalgos/sim_max_registers.h"
#include "ruco/wmm/kernels.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ruco::ProcId;
namespace sim = ruco::sim;
namespace simalgos = ruco::simalgos;
using ruco::maxreg::Faithfulness;

constexpr std::uint32_t kProbeProcesses = 4096;
constexpr std::uint32_t kLincheckRuns = 48;
constexpr std::uint32_t kLincheckProcesses = 6;

enum class ProbeOp : std::uint8_t { kReadMax, kWriteMax, kCounterRead, kIncrement };

bool is_probe_read(ProbeOp op) {
  return op == ProbeOp::kReadMax || op == ProbeOp::kCounterRead;
}

// The inputs of one batch, generated from the seed before timing.
struct BatchInputs {
  std::vector<ProbeOp> probe_ops;    // per simulated process
  std::vector<Value> probe_args;     // WriteMax operands
  std::vector<ProcId> probe_order;   // solo order
  std::vector<std::uint64_t> lincheck_seeds;
};

// A quarter of the simulated processes run each operation kind; the seed
// picks which processes and the solo order.  Each WriteMax writes the next
// fresh maximum >= N, so every write walks its process leaf's full path and
// the cost of a call does not depend on the seed.
BatchInputs make_inputs(std::uint64_t seed) {
  BatchInputs in;
  Rng rng{seed * 7919 + 17};
  const auto shuffle = [&](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.below(i)]);
    }
  };
  for (std::uint32_t p = 0; p < kProbeProcesses; ++p) {
    in.probe_ops.push_back(static_cast<ProbeOp>(p % 4));
    in.probe_order.push_back(p);
  }
  shuffle(in.probe_ops);
  shuffle(in.probe_order);
  in.probe_args.assign(kProbeProcesses, 0);
  Value next_max = kProbeProcesses;
  for (const ProcId p : in.probe_order) {
    if (in.probe_ops[p] == ProbeOp::kWriteMax) in.probe_args[p] = next_max++;
  }
  for (std::uint32_t i = 0; i < kLincheckRuns; ++i) {
    in.lincheck_seeds.push_back(rng.next());
  }
  return in;
}

struct Probe {
  sim::Program program;
  std::unique_ptr<sim::System> system;
};

std::unique_ptr<Probe> make_probe(const BatchInputs& in) {
  auto probe = std::make_unique<Probe>();
  auto reg = std::make_shared<simalgos::SimTreeMaxRegister>(
      probe->program, kProbeProcesses, Faithfulness::kHelpOnDuplicate);
  auto ctr = std::make_shared<simalgos::SimFArrayCounter>(probe->program,
                                                          kProbeProcesses);
  for (std::uint32_t p = 0; p < kProbeProcesses; ++p) {
    const ProbeOp op = in.probe_ops[p];
    const Value arg = in.probe_args[p];
    probe->program.add_process(
        [reg, ctr, op, arg](sim::Ctx& ctx) -> sim::Op {
          switch (op) {
            case ProbeOp::kReadMax:
              co_return co_await reg->read_max(ctx);
            case ProbeOp::kWriteMax:
              co_await reg->write_max(ctx, arg);
              co_return 0;
            case ProbeOp::kCounterRead:
              co_return co_await ctr->read(ctx);
            case ProbeOp::kIncrement:
              co_await ctr->increment(ctx);
              co_return 0;
          }
          co_return 0;
        });
  }
  probe->system = std::make_unique<sim::System>(probe->program);
  return probe;
}

// The duplicate-write schedule on the printed Algorithm A: p0 writes the
// leaf and stalls, p1 early-returns on the same operand, p2 reads the
// root before anything propagated.
std::unique_ptr<sim::Program> make_paper_gap() {
  auto gap = std::make_unique<sim::Program>();
  auto reg = std::make_shared<simalgos::SimTreeMaxRegister>(
      *gap, 4, Faithfulness::kAsPrinted);
  for (int w = 0; w < 2; ++w) {
    gap->add_process([reg](sim::Ctx& ctx) -> sim::Op {
      ctx.mark_invoke("WriteMax", 1);
      co_await reg->write_max(ctx, 1);
      ctx.mark_return(0);
      co_return 0;
    });
  }
  gap->add_process([reg](sim::Ctx& ctx) -> sim::Op {
    ctx.mark_invoke("ReadMax", 0);
    const Value v = co_await reg->read_max(ctx);
    ctx.mark_return(v);
    co_return v;
  });
  return gap;
}

std::string maxreg_verdict(const sim::System& sys) {
  const auto res = ruco::lincheck::check_linearizable(
      ruco::lincheck::from_sim_history(sys.history()),
      ruco::lincheck::MaxRegisterSpec{});
  if (!res.decided) return "undecided";
  return res.linearizable ? "" : "non-linearizable execution";
}

// Per-batch layer counts (the verify half of the per-layer metrics).
struct LayerCounts {
  double mc_s = 0, certify_s = 0, lincheck_s = 0, wmm_s = 0, adversary_s = 0;
  std::uint64_t mc_executions = 0, mc_nodes = 0, mc_replayed = 0,
                mc_steps = 0, certify_runs = 0, histories = 0,
                wmm_executions = 0, adversary_iterations = 0;
};

struct Batch {
  bool warmup = false;
  bool traced = false;
  double setup_s = 0;
  double verdict_s = 0;
  double probe_ops_per_s = 0;
  double retained_bytes_per_update = 0;
  std::vector<std::int64_t> read_ns;
  std::vector<std::int64_t> update_ns;
  Verdicts verdicts;
  LayerCounts layers;
  std::vector<Span> spans;
};

// The programs every job runs on; building them is the batch's set-up.
struct Programs {
  simalgos::MaxRegProgram tree3 = simalgos::make_tree_maxreg_program(3);
  simalgos::MaxRegProgram cas3 = simalgos::make_cas_maxreg_program(3);
  simalgos::MaxRegProgram tree8 = simalgos::make_tree_maxreg_program(8);
  simalgos::MaxRegProgram lock4 = simalgos::make_lock_maxreg_program(4);
  simalgos::MaxRegProgram tree1024 = simalgos::make_tree_maxreg_program(1024);
  simalgos::MaxRegProgram random_target =
      simalgos::make_tree_maxreg_program(kLincheckProcesses);
  std::unique_ptr<sim::Program> paper_gap = make_paper_gap();
  std::vector<ruco::wmm::Kernel> kernels = ruco::wmm::protocol_kernels();
  std::unique_ptr<Probe> probe;
};

const std::vector<std::string> kJobNames{
    "sim_ops_probe",     "mc_tree_k3",         "mc_cas_k3",
    "paper_gap_printed", "certify_tree_k8",    "certify_lock_k4",
    "lincheck_random",   "wmm_kernels",        "wmm_mutations",
    "adversary_tree_k1024", "batch"};

Batch run_batch(const BatchInputs& in) {
  Batch b;
  const std::int64_t cpu_setup = thread_cpu_ns();
  Programs prog;
  prog.probe = make_probe(in);
  b.setup_s = static_cast<double>(thread_cpu_ns() - cpu_setup) / 1e9;

  const std::int64_t t_begin = now_ns();
  const std::int64_t cpu_begin = thread_cpu_ns();
  b.spans.push_back(Span{});  // the batch span, filled at the end
  b.spans[0].name = static_cast<std::uint32_t>(kJobNames.size() - 1);
  b.spans[0].start_ns = t_begin;
  const auto job = [&](std::uint32_t name, double* layer_s,
                       const std::function<std::string()>& body) {
    Span s;
    s.name = name;
    s.parent = 0;
    s.start_ns = now_ns();
    const std::int64_t cpu0 = thread_cpu_ns();
    b.verdicts[kJobNames[name]] = body();
    const std::int64_t cpu = thread_cpu_ns() - cpu0;
    s.dur_ns = now_ns() - s.start_ns;
    if (layer_s != nullptr) *layer_s += static_cast<double>(cpu) / 1e9;
    b.spans.push_back(s);
  };

  job(0, nullptr, [&] {
    sim::System& sys = *prog.probe->system;
    const std::uint64_t heap_before = heap_in_use_bytes();
    Value max = ruco::kNoValue;
    Value count = 0;
    std::uint64_t updates = 0;
    bool ok = true;
    const std::int64_t cpu0 = thread_cpu_ns();
    for (const ProcId p : in.probe_order) {
      const std::int64_t start = thread_cpu_ns();
      sim::run_solo(sys, p, 1u << 20);
      const std::int64_t dur = thread_cpu_ns() - start;
      ok &= sys.done(p);
      const Value got = sys.done(p) ? sys.result(p) : ruco::kNoValue;
      switch (in.probe_ops[p]) {
        case ProbeOp::kReadMax:
          ok &= got == max;
          break;
        case ProbeOp::kWriteMax:
          max = std::max(max, in.probe_args[p]);
          break;
        case ProbeOp::kCounterRead:
          ok &= got == count;
          break;
        case ProbeOp::kIncrement:
          ++count;
          break;
      }
      if (is_probe_read(in.probe_ops[p])) {
        b.read_ns.push_back(dur);
      } else {
        b.update_ns.push_back(dur);
        ++updates;
      }
    }
    const double secs = static_cast<double>(thread_cpu_ns() - cpu0) / 1e9;
    b.probe_ops_per_s = static_cast<double>(in.probe_order.size()) / secs;
    b.retained_bytes_per_update =
        ratio(static_cast<double>(heap_in_use_bytes()) -
                  static_cast<double>(heap_before),
              static_cast<double>(updates));
    return std::string{ok ? "ok" : "violation"};
  });

  const auto model_check = [&](const simalgos::MaxRegProgram& target) {
    sim::ModelCheckOptions opts;
    opts.por = true;
    const auto res = sim::model_check(target.program, maxreg_verdict, opts);
    b.layers.mc_executions += res.executions;
    b.layers.mc_nodes += res.stats.nodes;
    b.layers.mc_replayed += res.stats.replayed_steps;
    b.layers.mc_steps += res.stats.applied_steps + res.stats.replayed_steps;
    if (!res.ok) return std::string{"violation"};
    return std::string{res.exhaustive ? "ok" : "incomplete"};
  };
  job(1, &b.layers.mc_s, [&] { return model_check(prog.tree3); });
  job(2, &b.layers.mc_s, [&] { return model_check(prog.cas3); });

  job(3, &b.layers.lincheck_s, [&] {
    sim::System sys{*prog.paper_gap};
    sys.step(0);  // p0 reads the leaf
    sys.step(0);  // p0 writes the leaf, then stalls before propagating
    sim::run_solo(sys, 1, 10'000);  // p1 early-returns
    sim::run_solo(sys, 2, 10'000);  // p2 reads the root
    const auto res = ruco::lincheck::check_linearizable(
        ruco::lincheck::from_sim_history(sys.history()),
        ruco::lincheck::MaxRegisterSpec{});
    ++b.layers.histories;
    if (!res.decided) return std::string{"undecided"};
    return std::string{res.linearizable ? "ok" : "violation"};
  });

  const auto certify = [&](const simalgos::MaxRegProgram& target) {
    const sim::WaitFreedomOptions opts;
    const auto report = sim::certify_wait_freedom(target.program, opts);
    b.layers.certify_runs += report.schedules;
    return std::string{report.certified ? "certified" : "not_certified"};
  };
  job(4, &b.layers.certify_s, [&] { return certify(prog.tree8); });
  job(5, &b.layers.certify_s, [&] { return certify(prog.lock4); });

  job(6, &b.layers.lincheck_s, [&] {
    std::string verdict = "ok";
    for (const std::uint64_t seed : in.lincheck_seeds) {
      sim::System sys{prog.random_target.program};
      sim::run_random(sys, seed, 1u << 20);
      if (!sim::all_done(sys)) return std::string{"incomplete"};
      ++b.layers.histories;
      const std::string v = maxreg_verdict(sys);
      if (v == "undecided") verdict = "undecided";
      if (!v.empty() && v != "undecided") return std::string{"violation"};
    }
    return verdict;
  });

  job(7, &b.layers.wmm_s, [&] {
    bool clean = true;
    for (const auto& kernel : prog.kernels) {
      const auto res = ruco::wmm::check_kernel(kernel);
      b.layers.wmm_executions += res.executions;
      clean &= res.ok() && res.complete;
    }
    return std::string{clean ? "clean" : "violation"};
  });
  job(8, &b.layers.wmm_s, [&] {
    const auto outcomes = ruco::wmm::run_mutation_driver();
    const auto refuted = std::count_if(
        outcomes.begin(), outcomes.end(),
        [](const ruco::wmm::MutationOutcome& m) { return m.found(); });
    return "refuted_" + std::to_string(refuted) + "/" +
           std::to_string(outcomes.size());
  });

  job(9, &b.layers.adversary_s, [&] {
    ruco::adversary::MaxRegAdversaryOptions opts;
    opts.max_iterations = 32;
    opts.min_active = 8;
    const auto report = ruco::adversary::run_maxreg_adversary(prog.tree1024, opts);
    b.layers.adversary_iterations += report.iterations_completed;
    const bool ok =
        report.all_replays_ok && report.all_invariants_ok && report.reader_ok;
    return std::string{ok ? "consistent" : "inconsistent"};
  });

  b.verdict_s = static_cast<double>(thread_cpu_ns() - cpu_begin) / 1e9;
  b.spans[0].dur_ns = now_ns() - t_begin;
  prog.probe.reset();
  release_free_memory();
  return b;
}

Verdicts read_expected(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot read expected verdicts " + path);
  return parse_verdicts(in);
}

// One worker: a warm-up batch, then batches until the deadline, traced
// every other one in a traced run.
std::vector<Batch> run_worker(const BatchInputs& inputs, std::int64_t deadline,
                              bool trace) {
  std::vector<Batch> batches;
  batches.push_back(run_batch(inputs));
  batches.back().warmup = true;
  for (int r = 0; now_ns() < deadline || r < (trace ? 2 : 1); ++r) {
    batches.push_back(run_batch(inputs));
    batches.back().traced = trace && r % 2 == 1;
  }
  return batches;
}

}  // namespace

RunResult run_verify(const RunConfig& cfg) {
  const Verdicts expected = read_expected(cfg.expected_verdicts);
  const BatchInputs inputs = make_inputs(cfg.seed);
  const unsigned workers = client_threads();
  // A first batch alone: the process-wide warm-up, and the peak memory of
  // one batch (with all workers running, the peak depends on how their
  // model checks happen to overlap).
  std::vector<std::vector<Batch>> per_worker(workers + 1);
  per_worker[workers].push_back(run_batch(inputs));
  per_worker[workers].back().warmup = true;
  const double batch_peak_mb = static_cast<double>(peak_rss_bytes()) / 1e6;
  {
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        try {
          per_worker[w] = run_worker(inputs, deadline, cfg.trace);
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  RunResult result;
  std::vector<double> untraced_verdict;
  std::vector<double> traced_verdict;
  std::vector<double> setup;
  std::vector<double> ops;
  std::vector<double> retained;
  std::vector<std::int64_t> read_ns;
  std::vector<std::int64_t> update_ns;
  std::vector<LayerCounts> layers;
  std::vector<std::vector<Span>> timeline;
  std::vector<std::string> lane_names;
  std::vector<std::string> wrong_jobs;
  std::size_t traced_reads = 0;
  std::size_t traced_updates = 0;
  Verdicts last;
  for (unsigned w = 0; w < per_worker.size(); ++w) {
    bool lane_taken = false;
    for (Batch& b : per_worker[w]) {
      const auto wrong = wrong_verdicts(expected, b.verdicts);
      result.attempted += expected.size();
      result.failed += wrong.size();
      for (const auto& j : wrong) {
        const auto it = b.verdicts.find(j);
        wrong_jobs.push_back(
            j + " -> " + (it == b.verdicts.end() ? "(missing)" : it->second));
      }
      last = b.verdicts;
      if (b.warmup) continue;
      if (!b.traced) {
        untraced_verdict.push_back(b.verdict_s);
        setup.push_back(b.setup_s);
        ops.push_back(b.probe_ops_per_s);
        retained.push_back(b.retained_bytes_per_update);
        read_ns.insert(read_ns.end(), b.read_ns.begin(), b.read_ns.end());
        update_ns.insert(update_ns.end(), b.update_ns.begin(),
                         b.update_ns.end());
        continue;
      }
      traced_verdict.push_back(b.verdict_s);
      layers.push_back(b.layers);
      traced_reads += b.read_ns.size();
      traced_updates += b.update_ns.size();
      if (!lane_taken) {
        timeline.push_back(std::move(b.spans));
        lane_names.push_back("worker " + std::to_string(w));
        lane_taken = true;
      }
    }
  }
  result.correct = result.failed == 0;

  std::ostringstream head;
  head << "verify: " << workers << " workers, each running the batch of "
       << expected.size() << " jobs one after another, "
       << untraced_verdict.size() + traced_verdict.size()
       << " measured batches"
       << (cfg.trace ? " (alternating untraced/traced)" : "");
  result.notes.push_back(head.str());
  for (const auto& [job, verdict] : last) {
    const auto it = expected.find(job);
    result.notes.push_back(
        "  " + job + ": " + verdict + " (expected " +
        (it == expected.end() ? std::string{"nothing"} : it->second) + ")");
  }
  for (const auto& w : wrong_jobs) result.notes.push_back("WRONG VERDICT " + w);
  std::ostringstream fail;
  fail << "failed_op_ratio " << ratio(static_cast<double>(result.failed),
                                      static_cast<double>(result.attempted))
       << " (" << result.failed << " wrong verdicts of " << result.attempted
       << " jobs)";
  result.notes.push_back(fail.str());

  auto& m = result.metrics;
  if (!cfg.trace) {
    std::ostringstream samples;
    samples << "latency samples: " << read_ns.size() << " simulated reads, "
            << update_ns.size() << " simulated updates";
    result.notes.push_back(samples.str());
    m["ops_per_s"] = median(ops);
    m["read_p50_ns"] = percentile(read_ns, 50);
    m["read_p99_ns"] = percentile(read_ns, 99);
    m["update_p50_ns"] = percentile(update_ns, 50);
    m["update_p99_ns"] = percentile(update_ns, 99);
    m["retained_bytes_per_update"] = median(retained);
    m["peak_rss_mb"] = batch_peak_mb;
    m["setup_s"] = median(setup);
    m["verdict_s"] = median(untraced_verdict);
    return result;
  }

  for (const auto& def : per_layer_metrics()) m[def.name] = 0.0;
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& l : layers) v.push_back(static_cast<double>(l.*field));
    return median(v);
  };
  m["mc.wall_s"] = med(&LayerCounts::mc_s);
  m["mc.executions"] = med(&LayerCounts::mc_executions);
  m["mc.nodes"] = med(&LayerCounts::mc_nodes);
  m["mc.replayed_steps"] = med(&LayerCounts::mc_replayed);
  m["mc.steps_per_s"] = ratio(med(&LayerCounts::mc_steps), m["mc.wall_s"]);
  m["certify.wall_s"] = med(&LayerCounts::certify_s);
  m["certify.runs"] = med(&LayerCounts::certify_runs);
  m["lincheck.wall_s"] = med(&LayerCounts::lincheck_s);
  m["lincheck.histories"] = med(&LayerCounts::histories);
  m["wmm.wall_s"] = med(&LayerCounts::wmm_s);
  m["wmm.executions"] = med(&LayerCounts::wmm_executions);
  m["adversary.wall_s"] = med(&LayerCounts::adversary_s);
  m["adversary.iterations"] = med(&LayerCounts::adversary_iterations);
  m["samples.read"] = static_cast<double>(traced_reads);
  m["samples.update"] = static_cast<double>(traced_updates);
  m["trace_overhead_ratio"] =
      ratio(median(traced_verdict), median(untraced_verdict));

  const std::string err = write_timeline(cfg.timeline, "verify", kJobNames,
                                         lane_names, timeline, 1000);
  if (!err.empty()) throw std::runtime_error(err);
  result.notes.push_back("timeline: " + cfg.timeline);
  return result;
}

}  // namespace perfbench
