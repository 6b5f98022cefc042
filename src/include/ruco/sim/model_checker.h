// Exhaustive (and budgeted) interleaving exploration over a sim::Program:
// a small stateless model checker, rearchitected as an exploration engine.
//
// Every schedule of the program's processes is enumerated by depth-first
// search; after each complete execution a user predicate checks the final
// system (typically: linearizability of the recorded history, via
// ruco::lincheck).  Three independent mechanisms keep it fast:
//
//   * Replay-light DFS.  Coroutine state cannot be snapshotted, so a
//     stateless checker must reconstruct interior states by replay -- but
//     it need not do so per node.  The engine keeps ONE live System per
//     worker, walks forward along the current branch for free, and
//     replays (System::reset + prefix) only when backtracking to take a
//     sibling.  Amortized cost drops from O(paths * length^2) -- the old
//     fresh-System-per-node recursion -- to O(paths * length), with the
//     per-node System construction eliminated entirely.
//
//   * Partial-order reduction (opts.por): Godefroid-style sleep sets over
//     a conditional independence relation computed from each process's
//     *enabled* event (object footprint + would-it-change-a-value), plus a
//     conservative persistent-set filter for programs whose processes
//     declare object footprints (Program::add_process overload).  Two
//     enabled steps commute iff they touch disjoint objects, or share
//     objects but neither would change a value; a step that will stamp a
//     deferred operation invocation is dependent with everything (the
//     stamp orders that operation against every response -- see
//     docs/MODEL.md); crash choices commute with everything except their
//     own process's steps.  Sound for verdicts that depend only on the
//     linearization-relevant view of the run (recorded history up to
//     commuting reorders, per-process results, final object values) --
//     true of every lincheck-based verdict in this repo.  POR is applied
//     only when preemption_bound == kUnbounded: sleep sets prune a
//     schedule in favor of an equivalent one with a possibly *different*
//     preemption count, which could push the kept representative outside
//     the bound and silently lose coverage.
//
//   * Parallel exploration (opts.jobs): a fixed-depth frontier split.  The
//     engine expands the DFS tree breadth-first to a small frontier, then
//     distributes the subtree roots (in DFS order) across worker threads
//     via ruco/sim/parallel.h.  Verdicts, counterexample traces and -- for
//     runs that complete -- execution counts are identical for every jobs
//     value: workers claim roots in ascending order and a failure at root
//     r prevents roots beyond r from starting, so the winning
//     counterexample is the DFS-first one regardless of timing.
//
// With jobs == 1 and por == false (the defaults) the engine visits the
// exact node sequence of the classic recursive checker.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/sim/system.h"

namespace ruco::sim {

struct ModelCheckOptions {
  /// Stop after this many complete executions (0 = unlimited).
  std::uint64_t max_executions = 0;
  /// Safety valve: abort any single execution longer than this many steps
  /// (catches accidental non-termination under some schedule).
  std::uint64_t max_depth = 10'000;
  /// Iterative context bounding (Musuvathi & Qadeer, PLDI'07): explore only
  /// schedules with at most this many *preemptions* (switching away from a
  /// process that could still run).  Switching at completion is free.
  /// Most concurrency bugs manifest within 1-2 preemptions -- Algorithm A's
  /// early-return gap needs exactly 1 -- while the schedule count drops
  /// from exponential to polynomial, letting programs far beyond the
  /// exhaustive checker's reach be covered systematically.
  /// kUnbounded = classic full exploration.
  static constexpr std::uint32_t kUnbounded = UINT32_MAX;
  std::uint32_t preemption_bound = kUnbounded;
  /// Crash-fault exploration: "crash process p here" becomes an additional
  /// nondeterministic choice at every scheduling point, for every active
  /// process, up to this many crashes per execution (the paper's f < N,
  /// bounded like the preemption bound above).  A crash permanently halts
  /// the process and leaves its in-flight operation pending in the history
  /// -- the linearizability verdict must accept it committed-or-dropped
  /// (Herlihy & Wing).  Crash choices never consume preemption budget: a
  /// crash is the adversary failing a process, not scheduling it, and the
  /// bounded search must stay a superset of the crash-free one.  0 = no
  /// crashes (classic behavior).
  std::uint32_t max_crashes = 0;
  /// Partial-order reduction (header comment above).  Ignored -- with
  /// ModelCheckStats::por_effective reporting false -- unless
  /// preemption_bound == kUnbounded.
  bool por = false;
  /// Worker threads.  1 = sequential exploration in legacy DFS order.
  /// With > 1, verdicts and counterexamples stay deterministic; execution
  /// counts are deterministic whenever the run completes or is cut by
  /// max_executions (the budget is reserved from a shared counter).
  /// Per-worker stats like node and replay counts are deterministic only
  /// when the run completes: they vary run to run on failing runs and on
  /// budget-cut ones, whose workers expand nodes past the last counted
  /// leaf.
  std::uint32_t jobs = 1;
  /// Parallel frontier split depth; 0 = auto (scaled to jobs).  Exposed
  /// for tests that pin the split.
  std::uint32_t frontier_depth = 0;
  /// kIterative is the replay-light engine above; kLegacyRecursive is the
  /// original fresh-System-per-node recursion, kept as a differential
  /// oracle for tests and benchmarks (it ignores por/jobs).
  enum class Engine : std::uint8_t { kIterative, kLegacyRecursive };
  Engine engine = Engine::kIterative;
  /// Exploration telemetry hook (heartbeat); nullptr = zero overhead.
  /// The pointed-to struct must outlive the model_check call.
  const struct ModelCheckTelemetry* telemetry = nullptr;
};

/// A progress sample delivered to ModelCheckTelemetry::on_progress.
/// `executions` and `wall_ms` are global (shared across workers);
/// the remaining counters are the *calling worker's* local view -- exact
/// with jobs == 1, a representative sample with jobs > 1.
struct ModelCheckProgress {
  std::uint64_t executions = 0;  // complete executions so far (global)
  double wall_ms = 0.0;          // since model_check started
  double executions_per_sec = 0.0;
  std::uint64_t nodes = 0;
  std::uint64_t sleep_pruned = 0;
  std::uint64_t persistent_pruned = 0;
  std::uint64_t replays = 0;
  std::uint64_t current_depth = 0;  // depth of the execution just completed
};

/// Periodic exploration heartbeat: on_progress fires (serialized under an
/// internal mutex, from whichever worker completes the triggering
/// execution) every `interval_executions` complete executions.  The hook
/// adds one shared atomic increment per complete execution and nothing per
/// node, so it does not perturb exploration determinism -- executions and
/// prune counts are byte-identical with and without it (telemetry_test
/// asserts this).
struct ModelCheckTelemetry {
  std::uint64_t interval_executions = 10'000;
  std::function<void(const ModelCheckProgress&)> on_progress;
};

/// Schedules (and counterexamples) encode a crash of process p as
/// `p | kCrashChoice`; plain entries are ordinary steps.
inline constexpr ProcId kCrashChoice = 0x8000'0000u;
[[nodiscard]] constexpr bool is_crash_choice(ProcId choice) noexcept {
  return (choice & kCrashChoice) != 0;
}
[[nodiscard]] constexpr ProcId choice_proc(ProcId choice) noexcept {
  return choice & ~kCrashChoice;
}

/// Why exploration stopped -- set in exactly one place per engine, so
/// budget exhaustion can never be confused with a genuine failure (the two
/// used to share a bare `return false`).
enum class StopReason : std::uint8_t {
  kComplete,        // explored the whole (possibly reduced) schedule space
  kBudget,          // max_executions reached
  kCounterexample,  // verdict rejected an execution, or max_depth exceeded
};

/// Exploration counters, summed across workers.
struct ModelCheckStats {
  std::uint64_t nodes = 0;           // scheduling points visited
  std::uint64_t applied_steps = 0;   // forward steps/crashes applied
  std::uint64_t replays = 0;         // System resets on backtrack
  std::uint64_t replayed_steps = 0;  // steps re-applied by those replays
  std::uint64_t sleep_pruned = 0;    // choices skipped by sleep sets
  std::uint64_t persistent_pruned = 0;  // choices deferred by the filter
  std::uint64_t frontier_roots = 0;  // parallel subtree roots (0 = no split)
  bool por_effective = false;        // por requested AND applicable
  std::uint32_t jobs_used = 1;
  double wall_ms = 0.0;
  /// Final-depth histogram over complete executions: bucket d counts
  /// executions that ended after exactly d choices, d in [0, kDepthBuckets);
  /// deeper ones land in the last (overflow) slot.  Size kDepthBuckets + 1
  /// once any execution completed; deterministic whenever `executions` is
  /// (the set of complete executions does not depend on worker timing).
  static constexpr std::size_t kDepthBuckets = 64;
  std::vector<std::uint64_t> depth_hist;
  /// Execution-count balance across the explorer pool (one entry per
  /// explorer; explorers map ~1:1 to worker threads).  Timing-dependent
  /// with jobs > 1, by nature; {executions} with jobs == 1.
  std::vector<std::uint64_t> worker_executions;
};

struct ModelCheckResult {
  /// Derived from `stop` in model_check's epilogue: ok iff no
  /// counterexample; exhaustive iff the run completed (kComplete) without a
  /// preemption bound -- budgeted and context-bounded runs cover a subset
  /// of schedules by design.  POR-reduced complete runs ARE exhaustive:
  /// every pruned schedule is equivalent to an explored one.
  bool ok = true;
  bool exhaustive = true;
  StopReason stop = StopReason::kComplete;
  std::uint64_t executions = 0;
  /// On failure: the offending schedule (crash choices encoded per
  /// kCrashChoice) and a rendering of its trace.
  std::vector<ProcId> counterexample;
  std::string message;
  ModelCheckStats stats;
};

/// `verdict(sys)` returns an empty string to accept the completed execution
/// or a diagnostic to reject it (recorded in the result).  With jobs > 1 it
/// is called concurrently from worker threads (on distinct Systems) and
/// must be thread-safe; the lincheck verdicts are.
using Verdict = std::function<std::string(const System&)>;

[[nodiscard]] ModelCheckResult model_check(const Program& program,
                                           const Verdict& verdict,
                                           const ModelCheckOptions& options);

[[nodiscard]] inline ModelCheckResult model_check(const Program& program,
                                                  const Verdict& verdict) {
  return model_check(program, verdict, ModelCheckOptions{});
}

/// Renders a schedule's full trace by replaying it -- used to print
/// counterexamples.
[[nodiscard]] std::string render_schedule(const Program& program,
                                          const std::vector<ProcId>& schedule);

}  // namespace ruco::sim
