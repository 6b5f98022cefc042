#include "ruco/sim/model_checker.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>

#include "ruco/sim/parallel.h"

namespace ruco::sim {

namespace {

/// Sentinel for "this node has no incoming choice" (the global root).
/// Cannot collide with a real choice: real ones carry a proc id < N.
constexpr ProcId kNoIncoming = UINT32_MAX;

void apply_choice(System& sys, ProcId choice) {
  if (is_crash_choice(choice)) {
    sys.crash(choice_proc(choice));
  } else {
    sys.step(choice);
  }
}

// ---------------------------------------------------------------------------
// Exploration telemetry (ModelCheckOptions::telemetry).
// ---------------------------------------------------------------------------

/// Shared heartbeat state: one atomic increment per complete execution when
/// the hook is installed, nothing at all when it is not.  Exploration order
/// and prune decisions never read it, so counters that must be
/// deterministic stay so.
struct TelemetryShared {
  const ModelCheckTelemetry* hook = nullptr;
  std::atomic<std::uint64_t> executions{0};
  std::mutex mu;  // serializes on_progress across workers
  std::chrono::steady_clock::time_point t0;
};

void record_depth(ModelCheckStats& stats, std::size_t depth) {
  if (stats.depth_hist.empty()) {
    stats.depth_hist.assign(ModelCheckStats::kDepthBuckets + 1, 0);
  }
  ++stats.depth_hist[std::min(depth, ModelCheckStats::kDepthBuckets)];
}

/// Called once per complete execution by whichever engine/worker produced
/// it; fires on_progress every interval_executions completions.
void telemetry_note_execution(TelemetryShared* tel,
                              const ModelCheckStats& local,
                              std::size_t depth) {
  if (tel == nullptr || tel->hook == nullptr) return;
  const std::uint64_t global =
      tel->executions.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t interval = tel->hook->interval_executions;
  if (interval == 0 || global % interval != 0 || !tel->hook->on_progress) {
    return;
  }
  ModelCheckProgress prog;
  prog.executions = global;
  prog.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - tel->t0)
                     .count();
  prog.executions_per_sec =
      prog.wall_ms > 0.0 ? static_cast<double>(global) * 1e3 / prog.wall_ms
                         : 0.0;
  prog.nodes = local.nodes;
  prog.sleep_pruned = local.sleep_pruned;
  prog.persistent_pruned = local.persistent_pruned;
  prog.replays = local.replays;
  prog.current_depth = depth;
  std::lock_guard<std::mutex> lk{tel->mu};
  tel->hook->on_progress(prog);
}

// ---------------------------------------------------------------------------
// Independence relation (docs/MODEL.md, "Independence and the history").
// ---------------------------------------------------------------------------

bool touches(const Pending& x, ObjectId o) {
  if (x.prim != Prim::kKcas) return x.obj == o;
  for (const auto& e : x.kcas) {
    if (e.obj == o) return true;
  }
  return false;
}

bool objects_intersect(const Pending& a, const Pending& b) {
  if (a.prim != Prim::kKcas) return touches(b, a.obj);
  for (const auto& e : a.kcas) {
    if (touches(b, e.obj)) return true;
  }
  return false;
}

/// Conditional independence of two distinct enabled choices at the state
/// `sys` currently sits in.  Rules, each load-bearing for soundness:
///   * same process: dependent (program order, and crash-vs-step of one
///     process obviously do not commute);
///   * crash choices commute with every other process's choices -- a crash
///     records no trace/history event and touches only its own process;
///   * a step that will stamp a deferred mark_invoke is dependent with
///     every other step: the invoke timestamp orders that operation
///     against every response in the history, so swapping it past any
///     event can change the linearizability verdict;
///   * otherwise two steps commute iff their object footprints are
///     disjoint, or they overlap but neither would change a value right
///     now (reads, failing CAS/k-CAS, value-preserving writes).  The
///     classification is state-dependent, which sleep sets support: it is
///     re-evaluated on every edge, and any value-changing access to a
///     slept choice's object is dependent with it and evicts it.
bool choices_independent(const System& sys, ProcId ca, ProcId cb) {
  const ProcId pa = choice_proc(ca);
  const ProcId pb = choice_proc(cb);
  if (pa == pb) return false;
  if (is_crash_choice(ca) || is_crash_choice(cb)) return true;
  if (sys.will_flush_invoke(pa) || sys.will_flush_invoke(pb)) return false;
  const Pending* ea = sys.enabled(pa);
  const Pending* eb = sys.enabled(pb);
  if (ea == nullptr || eb == nullptr) return false;  // defensive: dependent
  if (!objects_intersect(*ea, *eb)) return true;
  return !sys.pending_would_change(pa) && !sys.pending_would_change(pb);
}

// ---------------------------------------------------------------------------
// Shared engine pieces.
// ---------------------------------------------------------------------------

struct EngineConfig {
  const Program& program;
  const Verdict& verdict;
  const ModelCheckOptions& opt;
  /// POR requested AND applicable (preemption_bound == kUnbounded): sleep
  /// sets keep one representative per commutation class, but the kept
  /// representative may need a different preemption count than a pruned
  /// equivalent, so combining the two would silently lose bounded coverage.
  bool por = false;
  /// Persistent-set filter precomputation: usable iff every process
  /// declared a footprint and N <= 64.  fp_conflict[p] = bitmask of
  /// processes whose declared footprints intersect p's (p included).
  bool footprints_usable = false;
  std::vector<std::uint64_t> fp_conflict;
};

struct NodeContext {
  bool last_still_ready = false;
  ProcId last_proc = 0;
};

/// Builds the ordered choice list of the node `sys` currently sits at:
/// ready steps ascending (minus context-bound-blocked, slept and
/// persistent-deferred ones), then crash choices ascending if budget
/// remains -- exactly the legacy enumeration order when POR is off.
void build_choices(const EngineConfig& cfg, const System& sys,
                   const std::vector<ProcId>& sleep, std::uint32_t pl,
                   std::uint32_t cl, ProcId incoming, std::vector<ProcId>& out,
                   NodeContext& ctx, ModelCheckStats& stats) {
  ctx.last_still_ready = incoming != kNoIncoming &&
                         !is_crash_choice(incoming) &&
                         sys.active(choice_proc(incoming));
  ctx.last_proc = incoming == kNoIncoming ? 0 : choice_proc(incoming);
  const ProcSet& active = sys.active_set();

  // Persistent-set filter: if every live process declared a footprint and
  // none is about to stamp an invoke (invoke steps are dependent with
  // everything), the closure of the first live process under
  // footprint-intersection is a persistent set -- processes outside it
  // cannot interact with it on any path, so their choices are deferred,
  // not lost (the state space is acyclic: no ignoring problem).
  std::uint64_t allowed = ~std::uint64_t{0};
  if (cfg.por && cfg.footprints_usable) {
    bool applicable = true;
    std::uint64_t live = 0;
    for (ProcId p = active.next(0); p != ProcSet::kNone;
         p = active.next(p + 1)) {
      live |= std::uint64_t{1} << p;
      if (sys.will_flush_invoke(p)) applicable = false;
    }
    if (applicable && live != 0) {
      std::uint64_t closure = live & (~live + 1);  // lowest live process
      while (true) {
        std::uint64_t grown = closure;
        for (std::uint64_t rest = closure; rest != 0; rest &= rest - 1) {
          grown |= cfg.fp_conflict[static_cast<std::size_t>(
              std::countr_zero(rest))];
        }
        grown &= live;
        if (grown == closure) break;
        closure = grown;
      }
      allowed = closure;
    }
  }

  const auto slept = [&sleep](ProcId choice) {
    return std::find(sleep.begin(), sleep.end(), choice) != sleep.end();
  };
  const auto deferred = [allowed](ProcId p) {
    return p < 64 && (allowed & (std::uint64_t{1} << p)) == 0;
  };
  for (ProcId p = active.next(0); p != ProcSet::kNone; p = active.next(p + 1)) {
    if (deferred(p)) {
      ++stats.persistent_pruned;
      continue;
    }
    const bool preempts = ctx.last_still_ready && p != ctx.last_proc;
    if (preempts && pl == 0) continue;
    if (cfg.por && slept(p)) {
      ++stats.sleep_pruned;
      continue;
    }
    out.push_back(p);
  }
  if (cl > 0) {
    for (ProcId p = active.next(0); p != ProcSet::kNone;
         p = active.next(p + 1)) {
      if (deferred(p)) {
        ++stats.persistent_pruned;
        continue;
      }
      if (cfg.por && slept(p | kCrashChoice)) {
        ++stats.sleep_pruned;
        continue;
      }
      out.push_back(p | kCrashChoice);
    }
  }
}

/// One parallel work unit: a DFS subtree identified by its absolute prefix
/// plus the sleep set and remaining bound budgets at its root.
struct SubtreeRoot {
  std::vector<ProcId> prefix;
  std::vector<ProcId> sleep;
  std::uint32_t preemptions_left = 0;
  std::uint32_t crashes_left = 0;
};

struct LocalResult {
  StopReason stop = StopReason::kComplete;
  std::uint64_t executions = 0;
  std::vector<ProcId> counterexample;
  std::string message;
  ModelCheckStats stats;
};

// ---------------------------------------------------------------------------
// Replay-light iterative DFS over one subtree.
//
// One live System walks forward along the current branch for free; on
// backtrack the next sibling's state is rebuilt by System::reset plus a
// prefix replay.  Per complete execution that is O(1) forward steps plus at
// most one replay of O(length) steps, i.e. O(paths * length) overall --
// versus the legacy recursion's fresh System + full replay at *every* node.
// ---------------------------------------------------------------------------
class SubtreeExplorer {
 public:
  SubtreeExplorer(const EngineConfig& cfg, std::atomic<std::uint64_t>* budget,
                  TelemetryShared* tel)
      : cfg_{cfg}, budget_{budget}, tel_{tel}, sys_{cfg.program} {}

  /// Complete executions produced by this explorer over its lifetime
  /// (across every subtree it ran) -- the per-worker balance statistic.
  [[nodiscard]] std::uint64_t lifetime_executions() const noexcept {
    return lifetime_executions_;
  }

  LocalResult run(const SubtreeRoot& root) {
    res_ = LocalResult{};
    base_ = &root.prefix;
    path_.clear();
    depth_ = 0;
    resync_to(0);
    const ProcId incoming =
        root.prefix.empty() ? kNoIncoming : root.prefix.back();
    if (begin_node(root.sleep, root.preemptions_left, root.crashes_left,
                   incoming)) {
      loop();
    }
    return std::move(res_);
  }

 private:
  struct Frame {
    std::vector<ProcId> choices;
    std::vector<ProcId> sleep;
    NodeContext ctx;
    std::uint32_t next = 0;
    std::uint32_t preemptions_left = 0;
    std::uint32_t crashes_left = 0;
  };

  void loop() {
    while (depth_ != 0) {
      Frame& f = frames_[depth_ - 1];
      if (f.next >= f.choices.size()) {
        --depth_;
        if (!path_.empty()) path_.pop_back();
        continue;
      }
      const std::size_t depth = depth_ - 1;
      if (synced_ != base_->size() + depth) resync_to(depth);
      const ProcId c = f.choices[f.next];
      // Child sleep set (Godefroid): survivors of sleep ∪ explored
      // siblings that are independent with c -- evaluated at the parent
      // state, before c is applied.
      child_sleep_.clear();
      if (cfg_.por) {
        for (const ProcId s : f.sleep) {
          if (choices_independent(sys_, c, s)) child_sleep_.push_back(s);
        }
        for (std::uint32_t i = 0; i < f.next; ++i) {
          if (choices_independent(sys_, c, f.choices[i])) {
            child_sleep_.push_back(f.choices[i]);
          }
        }
      }
      ++f.next;
      const bool preempts = !is_crash_choice(c) && f.ctx.last_still_ready &&
                            choice_proc(c) != f.ctx.last_proc;
      const std::uint32_t npl =
          preempts ? f.preemptions_left - 1 : f.preemptions_left;
      const std::uint32_t ncl =
          is_crash_choice(c) ? f.crashes_left - 1 : f.crashes_left;
      apply_choice(sys_, c);
      ++synced_;
      ++res_.stats.applied_steps;
      path_.push_back(c);
      // May push a frame (interior node), pop path_ (leaf / fully pruned
      // node), or stop the run; `f` is invalid past this point.
      if (!begin_node(child_sleep_, npl, ncl, c)) return;
    }
  }

  /// Enters the node `sys_` sits at.  Returns false to stop the whole run
  /// (res_.stop already set); true to continue the loop.
  bool begin_node(const std::vector<ProcId>& sleep, std::uint32_t pl,
                  std::uint32_t cl, ProcId incoming) {
    ++res_.stats.nodes;
    const bool leaf = sys_.all_done();
    if (cfg_.opt.max_executions != 0) {
      // Leaves reserve a ticket from the shared counter, so with several
      // workers exactly max_executions leaves get counted overall.
      if (leaf) {
        const std::uint64_t ticket =
            budget_->fetch_add(1, std::memory_order_relaxed);
        if (ticket >= cfg_.opt.max_executions) {
          res_.stop = StopReason::kBudget;
          return false;
        }
      } else if (budget_->load(std::memory_order_relaxed) >=
                 cfg_.opt.max_executions) {
        res_.stop = StopReason::kBudget;
        return false;
      }
    }
    if (leaf) {
      ++res_.executions;
      ++lifetime_executions_;
      record_depth(res_.stats, base_->size() + path_.size());
      telemetry_note_execution(tel_, res_.stats, base_->size() + path_.size());
      std::string diag = cfg_.verdict(sys_);
      if (!diag.empty()) {
        fail(std::move(diag));
        return false;
      }
      if (!path_.empty()) path_.pop_back();
      return true;
    }
    if (base_->size() + path_.size() >= cfg_.opt.max_depth) {
      fail("max_depth exceeded (non-terminating schedule?)");
      return false;
    }
    // Frames above the stack top keep their vectors' capacity, so a node
    // allocates only when the DFS reaches a new depth or a wider node.
    if (depth_ == frames_.size()) frames_.emplace_back();
    Frame& f = frames_[depth_];
    f.choices.clear();
    f.next = 0;
    f.preemptions_left = pl;
    f.crashes_left = cl;
    build_choices(cfg_, sys_, sleep, pl, cl, incoming, f.choices, f.ctx,
                  res_.stats);
    if (f.choices.empty()) {
      // Everything bound-blocked, slept or deferred: prune point.
      if (!path_.empty()) path_.pop_back();
      return true;
    }
    if (cfg_.por) f.sleep.assign(sleep.begin(), sleep.end());
    ++depth_;
    return true;
  }

  void fail(std::string msg) {
    res_.stop = StopReason::kCounterexample;
    res_.counterexample = *base_;
    res_.counterexample.insert(res_.counterexample.end(), path_.begin(),
                               path_.end());
    res_.message = std::move(msg);
  }

  /// Rebuilds sys_ to the state base + path[0..depth).
  void resync_to(std::size_t depth) {
    sys_.reset();
    ++res_.stats.replays;
    for (const ProcId c : *base_) apply_choice(sys_, c);
    for (std::size_t i = 0; i < depth; ++i) apply_choice(sys_, path_[i]);
    res_.stats.replayed_steps += base_->size() + depth;
    synced_ = base_->size() + depth;
  }

  const EngineConfig& cfg_;
  std::atomic<std::uint64_t>* budget_;
  TelemetryShared* tel_ = nullptr;
  std::uint64_t lifetime_executions_ = 0;
  System sys_;
  LocalResult res_;
  const std::vector<ProcId>* base_ = nullptr;
  std::vector<ProcId> path_;
  std::vector<Frame> frames_;  // DFS stack: frames_[0, depth_)
  std::size_t depth_ = 0;
  std::vector<ProcId> child_sleep_;
  std::size_t synced_ = 0;  // choices applied to sys_ since its last reset
};

// ---------------------------------------------------------------------------
// Parallel frontier: breadth-first expansion of the first few levels, with
// the same choice construction (and sleep propagation) the workers use.
// Children replace their parent in place, so the root list stays in global
// DFS order -- the basis of the deterministic merge.
// ---------------------------------------------------------------------------
std::vector<SubtreeRoot> build_frontier(const EngineConfig& cfg,
                                        ModelCheckStats& stats,
                                        std::size_t target_roots,
                                        std::uint32_t depth_cap) {
  std::vector<SubtreeRoot> roots;
  roots.push_back(SubtreeRoot{
      {}, {}, cfg.opt.preemption_bound, cfg.opt.max_crashes});
  System sys{cfg.program};
  std::vector<ProcId> choices;
  NodeContext ctx;
  for (std::uint32_t depth = 0;
       depth < depth_cap && roots.size() < target_roots; ++depth) {
    std::vector<SubtreeRoot> next;
    next.reserve(roots.size() * 2);
    bool expanded = false;
    for (SubtreeRoot& r : roots) {
      sys.reset();
      for (const ProcId c : r.prefix) apply_choice(sys, c);
      if (sys.all_done() || r.prefix.size() >= cfg.opt.max_depth) {
        // Terminal: hand to a worker as a trivial job (it evaluates the
        // verdict / reports the depth failure, keeping order intact).
        next.push_back(std::move(r));
        continue;
      }
      ++stats.nodes;
      ++stats.replays;
      stats.replayed_steps += r.prefix.size();
      choices.clear();
      const ProcId incoming =
          r.prefix.empty() ? kNoIncoming : r.prefix.back();
      build_choices(cfg, sys, r.sleep, r.preemptions_left, r.crashes_left,
                    incoming, choices, ctx, stats);
      expanded = true;
      for (std::size_t ci = 0; ci < choices.size(); ++ci) {
        const ProcId c = choices[ci];
        SubtreeRoot child;
        child.prefix = r.prefix;
        child.prefix.push_back(c);
        if (cfg.por) {
          for (const ProcId s : r.sleep) {
            if (choices_independent(sys, c, s)) child.sleep.push_back(s);
          }
          for (std::size_t i = 0; i < ci; ++i) {
            if (choices_independent(sys, c, choices[i])) {
              child.sleep.push_back(choices[i]);
            }
          }
        }
        const bool preempts = !is_crash_choice(c) && ctx.last_still_ready &&
                              choice_proc(c) != ctx.last_proc;
        child.preemptions_left =
            preempts ? r.preemptions_left - 1 : r.preemptions_left;
        child.crashes_left =
            is_crash_choice(c) ? r.crashes_left - 1 : r.crashes_left;
        next.push_back(std::move(child));
      }
    }
    roots = std::move(next);
    if (!expanded) break;
  }
  return roots;
}

void accumulate(ModelCheckStats& into, const ModelCheckStats& from) {
  into.nodes += from.nodes;
  into.applied_steps += from.applied_steps;
  into.replays += from.replays;
  into.replayed_steps += from.replayed_steps;
  into.sleep_pruned += from.sleep_pruned;
  into.persistent_pruned += from.persistent_pruned;
  if (!from.depth_hist.empty()) {
    if (into.depth_hist.empty()) {
      into.depth_hist.assign(ModelCheckStats::kDepthBuckets + 1, 0);
    }
    for (std::size_t i = 0; i < from.depth_hist.size(); ++i) {
      into.depth_hist[i] += from.depth_hist[i];
    }
  }
}

// ---------------------------------------------------------------------------
// Legacy recursive engine: fresh System + full prefix replay per node.
// Kept as a differential oracle for tests and as the benchmark baseline.
// ---------------------------------------------------------------------------
struct LegacyDfs {
  const Program& program;
  const Verdict& verdict;
  const ModelCheckOptions& options;
  TelemetryShared* tel;
  ModelCheckResult result;
  std::vector<ProcId> prefix;

  // Returns false to stop exploration; result.stop says why.
  // `preemptions_left` implements iterative context bounding: continuing
  // the process that just ran -- or switching away from a completed or
  // crashed one -- is free; any other switch consumes budget.
  // `crashes_left` bounds the crash-choice fan-out (options.max_crashes).
  bool explore(std::uint32_t preemptions_left, std::uint32_t crashes_left) {
    if (options.max_executions != 0 &&
        result.executions >= options.max_executions) {
      result.stop = StopReason::kBudget;
      return false;
    }
    ++result.stats.nodes;
    ++result.stats.replays;
    result.stats.replayed_steps += prefix.size();
    System sys{program};
    for (const ProcId choice : prefix) apply_choice(sys, choice);

    std::vector<ProcId> ready;
    for (ProcId p = 0; p < sys.num_processes(); ++p) {
      if (sys.active(p)) ready.push_back(p);
    }
    if (ready.empty()) {
      ++result.executions;
      record_depth(result.stats, prefix.size());
      telemetry_note_execution(tel, result.stats, prefix.size());
      std::string diag = verdict(sys);
      if (!diag.empty()) {
        result.stop = StopReason::kCounterexample;
        result.counterexample = prefix;
        result.message = std::move(diag);
        return false;
      }
      return true;
    }
    if (prefix.size() >= options.max_depth) {
      result.stop = StopReason::kCounterexample;
      result.counterexample = prefix;
      result.message = "max_depth exceeded (non-terminating schedule?)";
      return false;
    }
    const bool last_still_ready = !prefix.empty() &&
                                  !is_crash_choice(prefix.back()) &&
                                  sys.active(prefix.back());
    for (const ProcId p : ready) {
      const bool preempts = last_still_ready && p != prefix.back();
      if (preempts && preemptions_left == 0) continue;
      prefix.push_back(p);
      const bool keep_going =
          explore(preempts ? preemptions_left - 1 : preemptions_left,
                  crashes_left);
      prefix.pop_back();
      if (!keep_going) return false;
    }
    // Crash choices: fail any active process here.  Free of preemption
    // budget (see header); the crashed process leaves the ready set, so
    // the next step choice away from a crashed "last runner" is free too.
    if (crashes_left > 0) {
      for (const ProcId p : ready) {
        prefix.push_back(p | kCrashChoice);
        const bool keep_going = explore(preemptions_left, crashes_left - 1);
        prefix.pop_back();
        if (!keep_going) return false;
      }
    }
    return true;
  }
};

}  // namespace

ModelCheckResult model_check(const Program& program, const Verdict& verdict,
                             const ModelCheckOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  TelemetryShared tel;
  tel.hook = options.telemetry;
  tel.t0 = t0;
  const bool por_effective =
      options.por &&
      options.preemption_bound == ModelCheckOptions::kUnbounded &&
      options.engine == ModelCheckOptions::Engine::kIterative;
  ModelCheckResult result;

  if (options.engine == ModelCheckOptions::Engine::kLegacyRecursive) {
    LegacyDfs dfs{program, verdict, options, &tel, ModelCheckResult{}, {}};
    dfs.explore(options.preemption_bound, options.max_crashes);
    result = std::move(dfs.result);
    result.stats.jobs_used = 1;
    result.stats.worker_executions = {result.executions};
  } else {
    EngineConfig cfg{program, verdict, options, por_effective, false, {}};
    const std::size_t n = program.num_processes();
    if (por_effective && n > 0 && n <= 64) {
      bool all_declared = true;
      for (ProcId p = 0; p < n; ++p) {
        all_declared = all_declared && program.has_footprint(p);
      }
      if (all_declared) {
        cfg.footprints_usable = true;
        cfg.fp_conflict.assign(n, 0);
        for (ProcId p = 0; p < n; ++p) {
          const auto& fp = program.footprint(p);
          for (ProcId q = 0; q < n; ++q) {
            const auto& fq = program.footprint(q);
            const bool overlap =
                p == q ||
                std::find_first_of(fp.begin(), fp.end(), fq.begin(),
                                   fq.end()) != fp.end();
            if (overlap) cfg.fp_conflict[p] |= std::uint64_t{1} << q;
          }
        }
      }
    }

    std::atomic<std::uint64_t> budget{0};
    const std::uint32_t jobs = std::max<std::uint32_t>(1, options.jobs);
    if (jobs == 1) {
      SubtreeExplorer explorer{cfg, &budget, &tel};
      LocalResult lr = explorer.run(SubtreeRoot{
          {}, {}, options.preemption_bound, options.max_crashes});
      result.stop = lr.stop;
      result.executions = lr.executions;
      result.counterexample = std::move(lr.counterexample);
      result.message = std::move(lr.message);
      result.stats = std::move(lr.stats);
      result.stats.jobs_used = 1;
      result.stats.worker_executions = {result.executions};
    } else {
      ModelCheckStats frontier_stats;
      const std::uint32_t depth_cap =
          options.frontier_depth != 0 ? options.frontier_depth : 12;
      std::vector<SubtreeRoot> roots = build_frontier(
          cfg, frontier_stats, std::size_t{jobs} * 8, depth_cap);
      std::vector<LocalResult> locals(roots.size());
      std::vector<char> ran(roots.size(), 0);
      std::mutex pool_mu;
      std::vector<std::unique_ptr<SubtreeExplorer>> pool;
      run_ordered_jobs(roots.size(), jobs, [&](std::size_t i) {
        std::unique_ptr<SubtreeExplorer> explorer;
        {
          std::lock_guard<std::mutex> lk{pool_mu};
          if (!pool.empty()) {
            explorer = std::move(pool.back());
            pool.pop_back();
          }
        }
        if (!explorer) {
          explorer = std::make_unique<SubtreeExplorer>(cfg, &budget, &tel);
        }
        locals[i] = explorer->run(roots[i]);
        ran[i] = 1;
        const bool keep_going = locals[i].stop == StopReason::kComplete;
        std::lock_guard<std::mutex> lk{pool_mu};
        pool.push_back(std::move(explorer));
        return keep_going;
      });
      // Deterministic merge in root (= global DFS) order: the pool
      // guarantees every root below the smallest stopping index ran.
      result.stats = frontier_stats;
      std::size_t fail_idx = SIZE_MAX;
      bool budget_hit = false;
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < roots.size(); ++i) {
        if (!ran[i]) continue;
        accumulate(result.stats, locals[i].stats);
        total += locals[i].executions;
        if (locals[i].stop == StopReason::kCounterexample &&
            fail_idx == SIZE_MAX) {
          fail_idx = i;
        }
        budget_hit = budget_hit || locals[i].stop == StopReason::kBudget;
      }
      if (fail_idx != SIZE_MAX) {
        result.stop = StopReason::kCounterexample;
        result.counterexample = std::move(locals[fail_idx].counterexample);
        result.message = std::move(locals[fail_idx].message);
        // Count only executions at or before the failing subtree: those
        // roots all completed, so the count is reproducible.
        result.executions = 0;
        for (std::size_t i = 0; i <= fail_idx; ++i) {
          if (ran[i]) result.executions += locals[i].executions;
        }
      } else if (budget_hit) {
        result.stop = StopReason::kBudget;
        // Ticket reservation makes the total deterministic: exactly
        // max_executions leaves got tickets below the limit.
        result.executions = total;
      } else {
        result.stop = StopReason::kComplete;
        result.executions = total;
      }
      result.stats.frontier_roots = roots.size();
      result.stats.jobs_used = jobs;
      // pool holds every explorer back after the join; each maps ~1:1 to a
      // worker thread, so its lifetime execution count is the balance.
      for (const auto& e : pool) {
        result.stats.worker_executions.push_back(e->lifetime_executions());
      }
    }
  }

  // The single place ok/exhaustive are derived from the stop reason
  // (StopReason doc): budget cuts and context bounds forfeit
  // exhaustiveness; POR-reduced complete runs keep it (every pruned
  // schedule has an explored equivalent).
  result.ok = result.stop != StopReason::kCounterexample;
  result.exhaustive =
      result.stop == StopReason::kComplete &&
      options.preemption_bound == ModelCheckOptions::kUnbounded;
  result.stats.por_effective = por_effective;
  result.stats.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

std::string render_schedule(const Program& program,
                            const std::vector<ProcId>& schedule) {
  System sys{program};
  std::string out;
  for (const ProcId choice : schedule) {
    if (is_crash_choice(choice)) {
      const ProcId p = choice_proc(choice);
      if (!sys.crash(p)) {
        // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict on
        // "literal" + std::string&& (GCC bug 105651).
        out += "<process p";
        out += std::to_string(p);
        out += " not crashable>\n";
        break;
      }
      out += 'p';
      out += std::to_string(p);
      out += " CRASH\n";
      continue;
    }
    if (!sys.step(choice)) {
      out += "<process p" + std::to_string(choice) + " not steppable>\n";
      break;
    }
    const Event& e = sys.trace().back();
    out += e.to_string(sys.trace().words(e)) + "\n";
  }
  return out;
}

}  // namespace ruco::sim
