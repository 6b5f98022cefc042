// Telemetry subsystem tests: metric registry semantics (sharded counters,
// gauges, histograms, snapshot/merge/JSON), Perfetto timeline structural
// validation for both a simulated Algorithm A execution and a real
// 4-thread hardware run, contention accounting from sim traces, and the
// ISSUE's determinism contract: model-checker executions and prune counts
// are byte-identical with and without the telemetry heartbeat installed.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "ruco/farray/farray.h"
#include "ruco/lincheck/checker.h"
#include "ruco/lincheck/specs.h"
#include "ruco/maxreg/tree_max_register.h"
#include "ruco/runtime/thread_harness.h"
#include "ruco/sim/model_checker.h"
#include "ruco/sim/schedulers.h"
#include "ruco/sim/system.h"
#include "ruco/simalgos/programs.h"
#include "ruco/telemetry/metrics.h"
#include "ruco/telemetry/registry.h"
#include "ruco/telemetry/sim_export.h"
#include "ruco/telemetry/timeline.h"

namespace ruco::telemetry {
namespace {

#ifndef RUCO_NO_TELEMETRY

// ------------------------------------------------------------- registry

TEST(Registry, CounterAccumulatesAcrossThreads) {
  Registry reg;
  const Counter c = reg.counter("test", "ops");
  runtime::run_threads(4, [&](std::size_t) {
    for (int i = 0; i < 1000; ++i) c.inc();
  });
  const auto snap = reg.snapshot();
  const auto* m = snap.find("test", "ops");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, Kind::kCounter);
  EXPECT_EQ(m->value, 4000u);
}

TEST(Registry, GaugeLastWriteWins) {
  Registry reg;
  const Gauge g = reg.gauge("test", "level");
  g.set(7);
  g.add(-2);
  const auto snap = reg.snapshot();
  const auto* m = snap.find("test", "level");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, Kind::kGauge);
  EXPECT_EQ(m->gauge, 5);
}

TEST(Registry, HistogramBucketsAndOverflow) {
  Registry reg;
  const Histogram h = reg.histogram("test", "depth", 4);
  h.record(0);
  h.record(3);
  h.record(3);
  h.record(4);    // first overflow value
  h.record(100);  // deep overflow
  const auto snap = reg.snapshot();
  const auto* m = snap.find("test", "depth");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, Kind::kHistogram);
  ASSERT_EQ(m->buckets.size(), 4u);
  EXPECT_EQ(m->buckets[0], 1u);
  EXPECT_EQ(m->buckets[3], 2u);
  EXPECT_EQ(m->overflow, 2u);
  EXPECT_EQ(m->value, 5u);  // total count
}

TEST(Registry, ReRegistrationIsIdempotentAndCheckedForShape) {
  Registry reg;
  const Counter a = reg.counter("d", "x");
  const Counter b = reg.counter("d", "x");  // same cell
  a.inc();
  b.inc();
  EXPECT_EQ(reg.snapshot().find("d", "x")->value, 2u);
  EXPECT_THROW((void)reg.gauge("d", "x"), std::invalid_argument);
  const Histogram h = reg.histogram("d", "h", 8);
  (void)h;
  EXPECT_THROW((void)reg.histogram("d", "h", 16), std::invalid_argument);
}

TEST(Registry, ResetZeroesEverything) {
  Registry reg;
  const Counter c = reg.counter("d", "c");
  const Gauge g = reg.gauge("d", "g");
  c.add(10);
  g.set(3);
  reg.reset();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.find("d", "c")->value, 0u);
  EXPECT_EQ(snap.find("d", "g")->gauge, 0);
}

TEST(Registry, CapacityExhaustionThrows) {
  Registry reg{4};
  (void)reg.histogram("d", "h", 3);  // 3 buckets + overflow = 4 cells
  EXPECT_THROW((void)reg.counter("d", "one-too-many"), std::length_error);
}

TEST(Snapshot, MergeSumsMatchingMetrics) {
  Registry a;
  Registry b;
  a.counter("d", "c").add(3);
  b.counter("d", "c").add(4);
  b.counter("d", "only-in-b").add(1);
  auto sa = a.snapshot();
  sa.merge(b.snapshot());
  EXPECT_EQ(sa.find("d", "c")->value, 7u);
  ASSERT_NE(sa.find("d", "only-in-b"), nullptr);
  EXPECT_EQ(sa.find("d", "only-in-b")->value, 1u);
}

TEST(Snapshot, JsonIsWellFormedEnoughToGrep) {
  Registry reg;
  reg.counter("dom", "with\"quote").inc();
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("with\\\"quote"), std::string::npos);
}

TEST(ProdMetrics, GlobalHandlesAreWired) {
  // prod() registers against Registry::global(); poking one counter must
  // show up in a global snapshot (delta-based: other tests and the
  // algorithms themselves also bump global metrics).  Touch prod() before
  // snapshotting -- registration is lazy, and in a fresh process (ctest
  // runs each case in isolation) the global registry starts empty.
  const ProdMetrics& pm = prod();
  const auto before = Registry::global().snapshot();
  const MetricSnapshot* m = before.find("maxreg", "cas_attempts");
  ASSERT_NE(m, nullptr);
  const std::uint64_t base = m->value;
  pm.maxreg_cas_attempts.add(5);
  const auto after = Registry::global().snapshot();
  EXPECT_EQ(after.find("maxreg", "cas_attempts")->value, base + 5);
}

// ------------------------------------------- propagation CAS accounting
//
// propagate_cas_attempts must count CASes actually issued (the ISSUE's
// accounting fix: the old code charged 2 per level unconditionally).

std::uint64_t maxreg_metric(const char* name) {
  const auto snap = Registry::global().snapshot();
  const MetricSnapshot* m = snap.find("maxreg", name);
  return m == nullptr ? 0 : m->value;
}

TEST(PropagateAccounting, SoloTreeWriteIssuesOneCasPerLevel) {
  (void)prod();  // force registration
  maxreg::TreeMaxRegister r{16};
  const std::uint64_t attempts = maxreg_metric("propagate_cas_attempts");
  const std::uint64_t failures = maxreg_metric("propagate_cas_failures");
  const std::uint64_t seconds = maxreg_metric("propagate_second_rounds");
  const std::uint64_t skips = maxreg_metric("propagate_cas_skips");
  r.write_max(0, 1);  // B1 leaf at depth 4
  // Solo every first-round CAS wins: exactly one CAS per level, no second
  // rounds, no failures, no skips.
  EXPECT_EQ(maxreg_metric("propagate_cas_attempts"), attempts + 4);
  EXPECT_EQ(maxreg_metric("propagate_cas_failures"), failures);
  EXPECT_EQ(maxreg_metric("propagate_second_rounds"), seconds);
  EXPECT_EQ(maxreg_metric("propagate_cas_skips"), skips);
}

TEST(PropagateAccounting, NoChangeRefreshSkipsEveryCas) {
  (void)prod();
  farray::SumFArray a{8, 0};  // 8 leaves under one root: 1 level
  a.update(0, 5);
  const std::uint64_t attempts = maxreg_metric("propagate_cas_attempts");
  const std::uint64_t skips = maxreg_metric("propagate_cas_skips");
  a.update(0, 5);  // aggregate unchanged at every path node
  EXPECT_EQ(maxreg_metric("propagate_cas_attempts"), attempts);
  EXPECT_EQ(maxreg_metric("propagate_cas_skips"), skips + 1);
}

TEST(PropagateAccounting, RootFastPathCounted) {
  (void)prod();
  maxreg::TreeMaxRegister r{16};
  r.write_max(0, 5);
  const std::uint64_t fast = maxreg_metric("tree_root_fastpath");
  r.write_max(1, 5);  // root already covers 5
  EXPECT_EQ(maxreg_metric("tree_root_fastpath"), fast + 1);
}

#endif  // RUCO_NO_TELEMETRY

// ------------------------------------------------------------- timeline

TEST(Timeline, SimAlgorithmATraceValidates) {
  auto bundle = simalgos::make_tree_maxreg_program(4);
  sim::System sys{bundle.program};
  sim::run_random(sys, /*seed=*/7, /*max_steps=*/10'000);
  TimelineWriter tl;
  sim_timeline(sys, tl);
  EXPECT_EQ(tl.validate(), "") << tl.validate();
  const std::string json = tl.json();
  // One named track per process, plus the named simulator process.
  EXPECT_NE(json.find("\"simulator\""), std::string::npos);
  for (std::uint32_t p = 0; p < sys.num_processes(); ++p) {
    EXPECT_NE(json.find("\"P" + std::to_string(p) + "\""), std::string::npos)
        << "missing track for process " << p;
  }
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(Timeline, CrashedSimRunStillValidates) {
  auto bundle = simalgos::make_tree_maxreg_program(3);
  sim::System sys{bundle.program};
  sys.step(0);
  sys.crash(0);
  sim::run_random(sys, /*seed=*/11, /*max_steps=*/10'000);
  TimelineWriter tl;
  sim_timeline(sys, tl);
  EXPECT_EQ(tl.validate(), "") << tl.validate();
  EXPECT_NE(tl.json().find("crash"), std::string::npos);
}

TEST(Timeline, KcasCounterRunValidates) {
  // Slices of k-CAS events name their word count, read from the event;
  // the words themselves sit in the trace's pool.
  auto bundle = simalgos::make_kcas_counter_program(3);
  sim::System sys{bundle.program};
  sim::run_random(sys, /*seed=*/3, /*max_steps=*/10'000);
  TimelineWriter tl;
  sim_timeline(sys, tl);
  EXPECT_EQ(tl.validate(), "") << tl.validate();
  EXPECT_NE(tl.json().find("2-cas o"), std::string::npos);
  const auto report = contention_report(sys);
  std::uint64_t kcas = 0;
  for (const auto& o : report.objects) kcas += o.kcas;
  EXPECT_GE(kcas, bundle.num_incrementers) << "one winning 2-CAS each";
}

TEST(Timeline, ValidateRejectsUnbalancedSlices) {
  TimelineWriter tl;
  tl.set_process_name(1, "p");
  tl.set_thread_name(1, 1, "t");
  tl.begin(1, 1, "open", 10);
  EXPECT_NE(tl.validate(), "");  // unclosed B
}

TEST(Timeline, ValidateRejectsNonMonotoneTimestamps) {
  TimelineWriter tl;
  tl.set_process_name(1, "p");
  tl.set_thread_name(1, 1, "t");
  tl.complete(1, 1, "late", 100, 5);
  tl.complete(1, 1, "early", 50, 5);
  EXPECT_NE(tl.validate(), "");
}

TEST(Timeline, FourThreadHardwareRunValidates) {
  constexpr std::size_t kThreads = 4;
  OpRecorder rec{kThreads, /*capacity_per_thread=*/256};
  const std::uint32_t op = rec.intern("work");
  runtime::run_threads(kThreads, [&](std::size_t tid) {
    std::uint64_t ts = 0;
    for (int i = 0; i < 100; ++i) {
      rec.record(tid, op, ts, 2);
      ts += 3;  // strictly forward per thread
    }
  });
  EXPECT_EQ(rec.dropped(), 0u);
  TimelineWriter tl;
  rec.export_to(tl, /*pid=*/1, "hw-bench");
  EXPECT_EQ(tl.validate(), "") << tl.validate();
  const std::string json = tl.json();
  EXPECT_NE(json.find("\"hw-bench\""), std::string::npos);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_NE(json.find("thread " + std::to_string(t)), std::string::npos);
  }
}

TEST(Timeline, OpRecorderDropsOnFullLaneAndCounts) {
  OpRecorder rec{1, /*capacity_per_thread=*/2};
  const std::uint32_t op = rec.intern("x");
  rec.record(0, op, 0, 1);
  rec.record(0, op, 2, 1);
  rec.record(0, op, 4, 1);  // lane full
  EXPECT_EQ(rec.dropped(), 1u);
}

// ----------------------------------------------------------- contention

TEST(Contention, ReportMatchesTrace) {
  auto bundle = simalgos::make_cas_maxreg_program(3);
  sim::System sys{bundle.program};
  sim::run_random(sys, /*seed=*/5, /*max_steps=*/10'000);
  const auto report = contention_report(sys);
  EXPECT_EQ(report.total_steps, sys.trace().size());
  std::uint64_t per_obj = 0;
  for (const auto& o : report.objects) per_obj += o.total();
  EXPECT_EQ(per_obj, sys.trace().size());
  std::uint64_t per_proc = 0;
  for (const auto& p : report.procs) per_proc += p.steps;
  EXPECT_EQ(per_proc, sys.trace().size());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"objects\""), std::string::npos);
  EXPECT_NE(json.find("\"processes\""), std::string::npos);
}

// -------------------------------------------- model-checker determinism

std::string maxreg_verdict(const sim::System& sys) {
  const auto res = lincheck::check_linearizable(
      lincheck::from_sim_history(sys.history()),
      lincheck::MaxRegisterSpec{});
  if (!res.decided) return "undecided";
  return res.linearizable ? "" : "non-linearizable execution";
}

TEST(ModelCheckTelemetry, HeartbeatDoesNotPerturbExploration) {
  // tree k=2 / cas k=3: small enough for exhaustive exploration (the full
  // tree k=3 space is out of unit-test reach; see por_test's sizes).
  auto bundle = simalgos::make_cas_maxreg_program(3);
  for (const std::uint32_t jobs : {1u, 2u}) {
    for (const bool por : {false, true}) {
      sim::ModelCheckOptions base;
      base.jobs = jobs;
      base.por = por;
      const auto plain =
          sim::model_check(bundle.program, maxreg_verdict, base);

      std::atomic<std::uint64_t> beats{0};
      sim::ModelCheckTelemetry tel;
      tel.interval_executions = 8;
      tel.on_progress = [&](const sim::ModelCheckProgress& p) {
        beats.fetch_add(1);
        EXPECT_GT(p.executions, 0u);
      };
      sim::ModelCheckOptions instrumented = base;
      instrumented.telemetry = &tel;
      const auto traced =
          sim::model_check(bundle.program, maxreg_verdict, instrumented);

      EXPECT_EQ(plain.ok, traced.ok);
      EXPECT_EQ(plain.executions, traced.executions)
          << "jobs=" << jobs << " por=" << por;
      EXPECT_EQ(plain.stats.sleep_pruned, traced.stats.sleep_pruned);
      EXPECT_EQ(plain.stats.persistent_pruned,
                traced.stats.persistent_pruned);
      EXPECT_EQ(plain.stats.depth_hist, traced.stats.depth_hist);
      EXPECT_GT(beats.load(), 0u);
    }
  }
}

TEST(ModelCheckTelemetry, DepthHistogramCountsEveryExecution) {
  auto bundle = simalgos::make_cas_maxreg_program(3);
  const auto res = sim::model_check(bundle.program, maxreg_verdict,
                                    sim::ModelCheckOptions{});
  ASSERT_TRUE(res.ok);
  ASSERT_EQ(res.stats.depth_hist.size(),
            sim::ModelCheckStats::kDepthBuckets + 1);
  std::uint64_t total = 0;
  for (const std::uint64_t c : res.stats.depth_hist) total += c;
  EXPECT_EQ(total, res.executions);
  ASSERT_EQ(res.stats.worker_executions.size(), 1u);
  EXPECT_EQ(res.stats.worker_executions[0], res.executions);
}

TEST(ModelCheckTelemetry, DepthHistogramDeterministicAcrossRuns) {
  auto bundle = simalgos::make_tree_maxreg_program(2);
  const auto a = sim::model_check(bundle.program, maxreg_verdict,
                                  sim::ModelCheckOptions{});
  const auto b = sim::model_check(bundle.program, maxreg_verdict,
                                  sim::ModelCheckOptions{});
  EXPECT_EQ(a.stats.depth_hist, b.stats.depth_hist);
}

// -------------------------------------------------------- decision log

TEST(DecisionLog, RecordsOnlyWhenEnabled) {
  auto bundle = simalgos::make_tree_maxreg_program(3);
  sim::System sys{bundle.program};
  sys.step(0);
  EXPECT_TRUE(sys.decision_log().empty());  // off by default
  sys.enable_decision_log(true);
  sys.step(1);
  sys.crash(0);
  ASSERT_EQ(sys.decision_log().size(), 2u);
  EXPECT_EQ(sys.decision_log()[0].kind, sim::SchedDecision::Kind::kStep);
  EXPECT_EQ(sys.decision_log()[0].proc, 1u);
  EXPECT_EQ(sys.decision_log()[1].kind, sim::SchedDecision::Kind::kCrash);
  sys.reset();
  EXPECT_TRUE(sys.decision_log().empty());
}

}  // namespace
}  // namespace ruco::telemetry
