// Hardware throughput with cross-layer telemetry: ops/sec, shared-memory
// steps/op (the paper's complexity measure, from runtime::thread_steps),
// and CAS failure rate (from the ruco::telemetry registry deltas) for the
// production max-register, counter and software 2-CAS implementations
// under real threads.
//
// The step-complexity benches report *per-operation* cost on one thread;
// this one reports the contended picture the telemetry layer exists for:
// how many base-object events each op really issued under N threads and
// what fraction of CAS attempts lost their race.
//
// Two workload modes:
//   default   every thread writes its own ascending op counter, so threads
//             frequently write values the register already covers -- the
//             duplicate/fast-path regime.
//   --contend thread t writes ops * nthreads + t: values interleave across
//             threads and every write is a fresh maximum, so writes race on
//             the root path instead of short-circuiting -- the worst-case
//             CAS-contention regime the conditional refresh and backoff are
//             aimed at.
// The "f-array snapshot" workload (default mode only) runs the 8-ary
// FArraySnapshot over 64 segments owned round-robin (thread t owns t,
// t + threads, ...): each op sets one own segment to its next value and
// scans.
// The "dcas transfer" workload (default mode only) moves 1..7 units
// between two random cells of an 8-cell McasArray with a dcas: every op
// races on a few shared words, and its rows also report MCAS helps per op
// and the share of dcas calls that succeeded.
//
//   --threads=N   worker threads (default 4)
//   --ms=M        measured window per workload (default 200)
//   --smoke       tiny run for CI (2 threads, 50 ms)
//   --contend     add the contended-mode workloads
//   --sweep       run each workload at 1, 2, 4, ... up to --threads
//   --json <path>     machine-readable results, with the host's CPU count
//                     (nproc), the build type and the compiler at the top
//   --perfetto <path> sampled op timeline (open at ui.perfetto.dev)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "ruco/core/table.h"
#include "ruco/counter/farray_counter.h"
#include "ruco/kcas/mcas.h"
#include "ruco/maxreg/cas_max_register.h"
#include "ruco/maxreg/tree_max_register.h"
#include "ruco/runtime/padded.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/runtime/thread_harness.h"
#include "ruco/snapshot/farray_snapshot.h"
#include "ruco/telemetry/registry.h"
#include "ruco/telemetry/timeline.h"
#include "ruco/util/rng.h"
#include "provenance.h"

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct WorkloadResult {
  std::string name;
  std::string mode;  // "default" or "contend"
  std::uint64_t threads = 0;
  std::uint64_t ops = 0;
  std::uint64_t steps = 0;  // shared-memory events across all threads
  double wall_s = 0.0;
  std::uint64_t cas_attempts = 0;  // registry delta over the window
  std::uint64_t cas_failures = 0;
  std::uint64_t mcas_ops = 0;  // registry delta over the window
  std::uint64_t mcas_helps = 0;
  std::uint64_t dcas_ok = 0;  // successful dcas calls (dcas transfer only)

  [[nodiscard]] double ops_per_sec() const {
    return wall_s > 0 ? static_cast<double>(ops) / wall_s : 0.0;
  }
  [[nodiscard]] double steps_per_op() const {
    return ops > 0 ? static_cast<double>(steps) / static_cast<double>(ops)
                   : 0.0;
  }
  [[nodiscard]] double cas_fail_rate() const {
    return cas_attempts > 0 ? static_cast<double>(cas_failures) /
                                  static_cast<double>(cas_attempts)
                            : 0.0;
  }
  [[nodiscard]] double helps_per_op() const {
    return mcas_ops > 0 ? static_cast<double>(mcas_helps) /
                              static_cast<double>(mcas_ops)
                        : 0.0;
  }
  [[nodiscard]] double success_ratio() const {
    return ops > 0 ? static_cast<double>(dcas_ok) / static_cast<double>(ops)
                   : 0.0;
  }
};

std::uint64_t registry_value(const ruco::telemetry::Snapshot& snap,
                             const std::string& domain,
                             const std::string& name) {
  const auto* m = snap.find(domain, name);
  return m != nullptr ? m->value : 0;
}

/// Runs `body(thread, op_index)` on every thread until the deadline,
/// recording every `kSampleEvery`-th op into the Perfetto recorder.
template <typename Body>
WorkloadResult run_workload(const std::string& name, const std::string& mode,
                            std::size_t threads, std::uint64_t window_ms,
                            ruco::telemetry::OpRecorder* recorder,
                            std::uint32_t op_name_id, Body&& body) {
  constexpr std::uint64_t kSampleEvery = 1024;
  WorkloadResult r;
  r.name = name;
  r.mode = mode;
  r.threads = threads;
  std::vector<std::uint64_t> ops_per_thread(threads, 0);
  std::vector<std::uint64_t> steps_per_thread(threads, 0);

  const auto before = ruco::telemetry::Registry::global().snapshot();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::milliseconds(window_ms);
  ruco::runtime::run_threads(threads, [&](std::size_t t) {
    const std::uint64_t steps_before = ruco::runtime::thread_steps();
    std::uint64_t ops = 0;
    while (Clock::now() < deadline) {
      // Batch between clock reads; the clock costs more than the ops.
      for (int i = 0; i < 64; ++i, ++ops) {
        if (recorder != nullptr && ops % kSampleEvery == 0) {
          const std::uint64_t start = now_us();
          body(t, ops);
          recorder->record(static_cast<std::uint32_t>(t), op_name_id, start,
                           std::max<std::uint64_t>(1, now_us() - start));
        } else {
          body(t, ops);
        }
      }
    }
    ops_per_thread[t] = ops;
    steps_per_thread[t] = ruco::runtime::thread_steps() - steps_before;
  });
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  const auto after = ruco::telemetry::Registry::global().snapshot();
  for (std::size_t t = 0; t < threads; ++t) {
    r.ops += ops_per_thread[t];
    r.steps += steps_per_thread[t];
  }
  // CAS telemetry across the algorithm layers this binary exercises.
  for (const char* name_in_domain : {"cas_attempts", "propagate_cas_attempts"}) {
    r.cas_attempts += registry_value(after, "maxreg", name_in_domain) -
                      registry_value(before, "maxreg", name_in_domain);
  }
  for (const char* name_in_domain : {"cas_failures", "propagate_cas_failures"}) {
    r.cas_failures += registry_value(after, "maxreg", name_in_domain) -
                      registry_value(before, "maxreg", name_in_domain);
  }
  r.mcas_ops = registry_value(after, "mcas", "ops") -
               registry_value(before, "mcas", "ops");
  r.mcas_helps = registry_value(after, "mcas", "helps") -
                 registry_value(before, "mcas", "helps");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t threads = 4;
  std::uint64_t window_ms = 200;
  bool smoke = false;
  bool contend = false;
  bool sweep = false;
  std::string json_path;
  std::string perfetto_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg == "--contend") contend = true;
    if (arg == "--sweep") sweep = true;
    if (arg.rfind("--threads=", 0) == 0) threads = std::stoull(arg.substr(10));
    if (arg.rfind("--ms=", 0) == 0) window_ms = std::stoull(arg.substr(5));
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    if (arg == "--perfetto" && i + 1 < argc) perfetto_path = argv[++i];
  }
  if (smoke) {
    threads = std::min<std::size_t>(threads, 2);
    window_ms = std::min<std::uint64_t>(window_ms, 50);
  }
  if (threads == 0) threads = 1;

  std::cout << "# Hardware throughput with telemetry: " << threads
            << " threads, " << window_ms << " ms per workload"
            << (contend ? ", with contended mode" : "")
            << (sweep ? ", thread sweep" : "") << "\n\n";

  ruco::telemetry::OpRecorder recorder{static_cast<std::uint32_t>(threads),
                                       4096};
  ruco::telemetry::OpRecorder* rec =
      perfetto_path.empty() ? nullptr : &recorder;

  std::vector<WorkloadResult> results;

  // One pass over the workloads at a given thread count.  In the
  // default mode thread t writes its own op counter (values collide across
  // threads: the duplicate/fast-path regime); in contend mode thread t
  // writes ops * tc + t so every write is a fresh maximum racing up the
  // root path.
  const auto run_suite = [&](std::size_t tc, bool contended) {
    const auto n = static_cast<std::uint32_t>(tc);
    const char* mode = contended ? "contend" : "default";
    {
      ruco::maxreg::CasMaxRegister reg;
      const auto op = recorder.intern("cas_maxreg.write+read");
      results.push_back(run_workload(
          "cas maxreg", mode, tc, window_ms, rec, op,
          [&](std::size_t t, std::uint64_t ops) {
            const auto v = static_cast<ruco::Value>(
                contended ? ops * tc + t : ops);
            reg.write_max(static_cast<ruco::ProcId>(t), v);
            (void)reg.read_max(static_cast<ruco::ProcId>(t));
          }));
    }
    {
      ruco::maxreg::TreeMaxRegister reg{n};
      const auto op = recorder.intern("tree_maxreg.write+read");
      results.push_back(run_workload(
          "tree maxreg (Alg A)", mode, tc, window_ms, rec, op,
          [&](std::size_t t, std::uint64_t ops) {
            const auto v = static_cast<ruco::Value>(
                contended ? ops * tc + t : ops);
            reg.write_max(static_cast<ruco::ProcId>(t), v);
            (void)reg.read_max(static_cast<ruco::ProcId>(t));
          }));
    }
    {
      ruco::counter::FArrayCounter counter{n};
      const auto op = recorder.intern("farray_counter.inc+read");
      // A counter increment has no value operand; contend mode only drops
      // the read so every op races on the propagation path.
      results.push_back(run_workload(
          "f-array counter", mode, tc, window_ms, rec, op,
          [&](std::size_t t, std::uint64_t) {
            counter.increment(static_cast<ruco::ProcId>(t));
            if (!contended) (void)counter.read(static_cast<ruco::ProcId>(t));
          }));
    }
    if (!contended) {
      const auto segments = std::max<std::uint32_t>(64, n);
      ruco::snapshot::FArraySnapshot snap{segments};
      const auto op = recorder.intern("farray_snapshot.update+scan");
      results.push_back(run_workload(
          "f-array snapshot", mode, tc, window_ms, rec, op,
          [&](std::size_t t, std::uint64_t ops) {
            const std::uint32_t owned = (segments - 1 - t) / tc + 1;
            const auto p = static_cast<ruco::ProcId>(t + tc * (ops % owned));
            // ops / owned + 1 rises each time the owner comes back to p.
            snap.update(p, static_cast<ruco::Value>(ops / owned + 1));
            (void)snap.scan(p);
          }));
    }
    if (!contended) {
      constexpr std::uint32_t kCells = 8;
      ruco::kcas::McasArray cells{kCells, 1'000'000, n};
      std::vector<ruco::runtime::PaddedAtomic<std::uint64_t>> ok(tc);
      const auto op = recorder.intern("mcas.dcas_transfer");
      WorkloadResult r = run_workload(
          "dcas transfer", mode, tc, window_ms, rec, op,
          [&](std::size_t t, std::uint64_t ops) {
            // Stateless draw: no generator state shared between threads.
            ruco::util::SplitMix64 rng{(std::uint64_t{t} << 48) ^ ops};
            const auto a = static_cast<std::uint32_t>(rng.below(kCells));
            const auto b = static_cast<std::uint32_t>(
                (a + 1 + rng.below(kCells - 1)) % kCells);
            const auto units = static_cast<ruco::Value>(rng.range(1, 7));
            const auto p = static_cast<ruco::ProcId>(t);
            const ruco::Value va = cells.read(p, a);
            const ruco::Value vb = cells.read(p, b);
            if (cells.dcas(p, {a, va, va - units}, {b, vb, vb + units})) {
              auto& mine = ok[t].value;  // written by thread t only
              mine.store(mine.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
            }
          });
      for (const auto& c : ok) r.dcas_ok += c.value.load();
      results.push_back(r);
    }
  };

  std::vector<std::size_t> thread_counts;
  if (sweep) {
    for (std::size_t tc = 1; tc < threads; tc *= 2) thread_counts.push_back(tc);
  }
  thread_counts.push_back(threads);
  for (const std::size_t tc : thread_counts) {
    run_suite(tc, false);
    if (contend) run_suite(tc, true);
  }

  ruco::Table t{{"workload", "mode", "threads", "ops/sec", "steps/op",
                 "CAS fail rate", "MCAS helps/op", "dcas success"}};
  for (const auto& r : results) {
    const bool kcas = r.mcas_ops > 0;
    t.add(r.name, r.mode, r.threads,
          static_cast<std::uint64_t>(r.ops_per_sec()), r.steps_per_op(),
          r.cas_fail_rate(), kcas ? std::to_string(r.helps_per_op()) : "-",
          kcas ? std::to_string(r.success_ratio()) : "-");
  }
  t.print();

  if (!json_path.empty()) {
    std::ofstream out{json_path};
    out << "{\n  \"bench\": \"hw_throughput\",\n";
    ruco::bench::write_provenance(out);
    out << "  \"threads\": " << threads
        << ",\n  \"window_ms\": " << window_ms << ",\n  \"series\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      out << "    {\"workload\": \"" << r.name << "\", \"mode\": \"" << r.mode
          << "\", \"threads\": " << r.threads << ", \"ops\": " << r.ops
          << ", \"ops_per_sec\": " << r.ops_per_sec()
          << ", \"steps_per_op\": " << r.steps_per_op()
          << ", \"cas_attempts\": " << r.cas_attempts
          << ", \"cas_failures\": " << r.cas_failures
          << ", \"cas_fail_rate\": " << r.cas_fail_rate();
      if (r.mcas_ops > 0) {
        out << ", \"helps_per_op\": " << r.helps_per_op()
            << ", \"success_ratio\": " << r.success_ratio();
      }
      out << "}" << (i + 1 == results.size() ? "" : ",") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  if (!perfetto_path.empty()) {
    ruco::telemetry::TimelineWriter tl;
    recorder.export_to(tl, 1, "bench_hw_throughput");
    const std::string err = tl.validate();
    if (!err.empty()) {
      std::cerr << "perfetto export invalid: " << err << "\n";
      return 1;
    }
    if (!tl.write_file(perfetto_path)) {
      std::cerr << "cannot write " << perfetto_path << "\n";
      return 1;
    }
    std::cout << "wrote " << perfetto_path << " (" << tl.num_events()
              << " events, " << recorder.dropped()
              << " dropped; open at ui.perfetto.dev)\n";
  }
  std::cout << "\nShape check: the cas register reads in O(1) but pays for "
               "contention in failed CAS retries; Algorithm A's tree "
               "register spreads writes over O(log N) switches with "
               "conditional refresh pruning the second CAS round (near-zero "
               "failures in the default regime, root fast path absorbing "
               "duplicate maxima); the f-array counter reads in one step "
               "with O(log N) updates; the f-array snapshot scans in one "
               "step and updates in 21 at N = 64 (2 levels of the 8-ary "
               "tree); the software 2-CAS pays ~3k+1 steps "
               "per transfer plus the wait before it helps a transfer that "
               "holds its words.\n";
  return 0;
}
