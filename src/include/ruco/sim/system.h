// The paper's asynchronous shared-memory system, executable (Section 2):
// N processes apply read / write / CAS primitives to base objects; each
// suspended process exposes its single enabled event; a scheduler (or
// adversary) decides who steps next.  A step only applies its primitive to
// the object values and records the Event in the trace.  The paper's
// information-flow bookkeeping is computed from that trace on demand:
//
//   * invisible events (Definition 1) -- a value-preserving event, or a
//     write immediately overwritten before anyone (including its issuer)
//     observes it;
//   * awareness sets AW(p, E) (Definitions 2-3) -- who p has (transitively)
//     heard of through visible events;
//   * familiarity sets F(o, E) (Definition 4) -- whose existence is recorded
//     in o through events currently visible on it.
//
// The update rules are exactly those used in the proof of Lemma 1:
//   read / any CAS by p on o:    AW(p) |= F(o)
//   visible write / CAS by p on o: F(o) |= AW(p)   (a contribution that is
//     retracted if a write is immediately overwritten per Definition 1)
// making the tracked sets a (tight) superset of the definitional ones; the
// tests cross-check them against an offline recomputation from the trace.
//
// The knowledge queries (awareness, familiarity, max_knowledge,
// max_knowledge_seen) share one cache that applies these rules, in trace
// order, to the events recorded since the last query.  A run that never
// asks pays nothing for them; one that asks after every step pays what an
// online tracker would, O(N/64) words per event, amortised over the
// queries.  reset() only marks the cache stale, and its sets are allocated
// by the first query.  Two consequences for callers: a returned
// `const ProcSet&` is a snapshot as of the call (later steps show only
// after the next query), and the const queries write the cache, so they
// must not run concurrently on one System.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/sim/event.h"
#include "ruco/sim/op.h"
#include "ruco/sim/proc_set.h"

namespace ruco::sim {

class System;

/// Per-process capability object handed to operation coroutines.  All
/// shared-memory access of a simulated algorithm flows through its Ctx.
class Ctx {
 public:
  [[nodiscard]] ProcId id() const noexcept { return id_; }

  /// Awaitables: each one is a single step (shared-memory event).
  [[nodiscard]] auto read(ObjectId o) noexcept;
  [[nodiscard]] auto write(ObjectId o, Value v) noexcept;
  /// Resolves to 1 if the CAS succeeded, 0 otherwise (the CAS primitive of
  /// Section 2 returns only true/false).
  [[nodiscard]] auto cas(ObjectId o, Value expected, Value desired) noexcept;
  /// k-word CAS (reference [6]'s stronger primitive): succeeds -- resolving
  /// to 1 -- iff every entry matches its expected value, atomically
  /// installing all desired values.  One step.  Throws
  /// std::invalid_argument on an empty entry list (a 0-CAS is not an event
  /// on any object and would otherwise silently target object 0) and on
  /// more than 65535 entries (Event::kcas_count's range).
  [[nodiscard]] auto kcas(std::vector<KcasEntry> entries);

  /// History annotations for the linearizability checker; not steps.
  /// mark_invoke is *deferred*: the invocation is timestamped when this
  /// process takes its next step, because an operation's interval in the
  /// model begins with its first shared-memory event (processes are
  /// spawned with their first operation already pending, and stamping at
  /// spawn time would make every first operation look concurrent with the
  /// entire execution).  mark_return stamps immediately (it runs in the
  /// same resume as the operation's last step).
  void mark_invoke(std::string_view op, Value arg);
  void mark_return(Value ret);
  /// Vector-result return (Scan operations).
  void mark_return_vec(std::vector<Value> ret);

 private:
  friend class System;
  friend struct PrimAwaiter;
  System* sys_ = nullptr;
  ProcId id_ = 0;
};

/// Operation-boundary records interleaved with the step trace, consumed by
/// lincheck.  `time` is a position in the system-wide sequence of steps and
/// annotations, so invocation/response order reflects real precedence.
struct HistoryEvent {
  enum class Kind : std::uint8_t { kInvoke, kReturn };
  ProcId proc = 0;
  Kind kind = Kind::kInvoke;
  std::string op;   // operation name at kInvoke; empty at kReturn
  Value value = 0;  // argument at kInvoke; return value at kReturn
  std::vector<Value> vec;  // vector return value (Scan), else empty
  std::uint64_t time = 0;
};

/// An immutable description of a finite system: base objects with initial
/// values and process bodies.  A Program can be instantiated into many
/// Systems (replay after erasure, model checking) -- bodies must therefore
/// be pure: all cross-operation state lives in base objects.
class Program {
 public:
  ObjectId add_object(Value initial);
  /// Adds a process; returns its id (dense, in spawn order).
  ProcId add_process(std::function<Op(Ctx&)> body);
  /// Footprint-declaring overload for the model checker's persistent-set
  /// filter.  The declaration is a *promise* about the body under every
  /// schedule: (1) it only ever accesses base objects in `footprint`, and
  /// (2) it performs at most one history-annotated operation (one
  /// mark_invoke).  The System enforces both at runtime (std::logic_error
  /// on violation), so a wrong declaration fails loudly instead of letting
  /// the checker prune unsoundly.  `footprint` must be non-empty.
  ProcId add_process(std::function<Op(Ctx&)> body,
                     std::vector<ObjectId> footprint);

  /// True iff p was added with a declared footprint.
  [[nodiscard]] bool has_footprint(ProcId p) const noexcept {
    return !footprints_[p].empty();
  }
  /// Sorted, deduplicated declared footprint (empty = undeclared).
  [[nodiscard]] const std::vector<ObjectId>& footprint(ProcId p) const {
    return footprints_[p];
  }

  [[nodiscard]] std::size_t num_objects() const noexcept {
    return object_init_.size();
  }
  [[nodiscard]] std::size_t num_processes() const noexcept {
    return bodies_.size();
  }

 private:
  friend class System;
  std::vector<Value> object_init_;
  std::vector<std::function<Op(Ctx&)>> bodies_;
  std::vector<std::vector<ObjectId>> footprints_;  // empty = undeclared
};

/// One scheduler decision, recorded (in order) when the decision log is
/// enabled: which process was driven, and how.  Telemetry for rucosim and
/// the trace exporters -- the model checker never enables it.
struct SchedDecision {
  enum class Kind : std::uint8_t { kStep, kCrash, kSpurious };
  Kind kind = Kind::kStep;
  ProcId proc = 0;
};

class System {
 public:
  /// `program` must outlive the System (reset() respawns from it).
  explicit System(const Program& program);
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Rewinds to the initial state of the same Program, reusing every
  /// allocation it can (object values, process table, trace/history
  /// capacity).  The knowledge cache is only marked stale; its sets are
  /// cleared, not freed, by the next knowledge query.  Coroutine frames
  /// cannot be rewound, so the process bodies are destroyed and respawned
  /// -- but that is the *only* unavoidable per-reset allocation, which
  /// makes reset() much cheaper than constructing a fresh System.  The
  /// replay-light model checker calls this on every backtrack, so it is on
  /// the hot path.
  void reset();

  /// Applies the enabled event of process p and runs p to its next
  /// suspension (or completion).  Returns false iff p has no enabled event
  /// (already completed or crashed).
  bool step(ProcId p);

  /// Crash fault: permanently halts p.  Its coroutine chain is destroyed,
  /// its enabled event is discarded (never applied), and its in-flight
  /// operation becomes a Herlihy-Wing *pending* operation in the recorded
  /// history -- the linearizability search may linearize it (its effect may
  /// have landed) or drop it (it may never have become visible).  An
  /// operation that crashed before its first step never appears in the
  /// history at all (its deferred mark_invoke is discarded): in the model
  /// an operation's interval begins at its first shared-memory event.
  /// No trace event is recorded -- a crash is not a shared-memory step, and
  /// the surviving prefix replays unchanged (Lemma 2 discipline).
  /// Returns false iff p had no enabled event (completed or crashed).
  bool crash(ProcId p);

  /// Spurious weak-CAS fault: applies p's enabled event -- which must be a
  /// single-word CAS -- as a *failure* regardless of the object's current
  /// value, the way an LL/SC-backed compare_exchange_weak may fail.  One
  /// step: the event is recorded (with Event::spurious set), the CAS still
  /// counts as an observation of the object for the knowledge sets, and
  /// p resumes with result 0.  Like step(), it enforces a declared
  /// footprint (std::logic_error outside it).  Returns false iff p has no
  /// enabled event or its enabled event is not a kCas.
  bool step_spurious(ProcId p);

  /// p has an enabled event.
  [[nodiscard]] bool active(ProcId p) const {
    return procs_[p].has_pending;
  }
  /// The enabled event of p, or nullptr if p completed.  A k-CAS event's
  /// words (Pending::kcas) stay valid until p's next step, its crash, or
  /// reset().
  [[nodiscard]] const Pending* enabled(ProcId p) const {
    return procs_[p].has_pending ? &procs_[p].pending : nullptr;
  }
  /// Would p's enabled event change its target object's value right now?
  /// (Triviality pre-classification used by Lemma 1 and Lemma 4 case 2.)
  [[nodiscard]] bool pending_would_change(ProcId p) const;

  /// p's next step would stamp a deferred mark_invoke into the history.
  /// Knowable *before* the step -- the model checker's independence
  /// relation treats such steps as dependent with everything, because the
  /// invoke timestamp orders p's operation against every other operation's
  /// response (see docs/MODEL.md, "Independence and the history").
  [[nodiscard]] bool will_flush_invoke(ProcId p) const noexcept {
    return procs_[p].invoke_buffered;
  }

  /// Cached set of active processes (those with an enabled event),
  /// maintained incrementally by the constructor, step, step_spurious and
  /// crash.  Lets schedulers and the model checker scan the ready set in
  /// O(live/64) instead of O(N) per node.
  [[nodiscard]] const ProcSet& active_set() const noexcept { return active_; }
  /// |active_set()| in O(1).
  [[nodiscard]] std::uint32_t live_count() const noexcept {
    return live_count_;
  }
  /// Every process completed or crashed, in O(1).
  [[nodiscard]] bool all_done() const noexcept { return live_count_ == 0; }

  /// p will never step again: completed *or* crashed (check crashed(p) to
  /// tell the two apart).
  [[nodiscard]] bool done(ProcId p) const { return !procs_[p].has_pending; }
  /// p was halted by a crash fault.
  [[nodiscard]] bool crashed(ProcId p) const { return procs_[p].crashed; }
  /// Number of crash faults injected so far.
  [[nodiscard]] std::uint32_t crash_count() const noexcept {
    return crash_count_;
  }
  /// Result of p's (completed) top-level op; rethrows its exception.
  /// Throws std::logic_error for a crashed process (its op never returned).
  [[nodiscard]] Value result(ProcId p) const;

  [[nodiscard]] Value value(ObjectId o) const { return values_[o]; }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] const std::vector<HistoryEvent>& history() const noexcept {
    return history_;
  }
  /// AW(p) after the last recorded event.  The reference stays valid for
  /// the System's lifetime; its value is refreshed only by the next
  /// knowledge query (see the header comment).
  [[nodiscard]] const ProcSet& awareness(ProcId p) const {
    return sync_knowledge().aw[p];
  }
  /// F(o) after the last recorded event; same snapshot rule as awareness.
  [[nodiscard]] const ProcSet& familiarity(ObjectId o) const {
    return sync_knowledge().objects[o].fam;
  }
  [[nodiscard]] std::uint64_t steps_taken(ProcId p) const {
    return procs_[p].steps;
  }
  [[nodiscard]] std::size_t num_processes() const noexcept {
    return procs_.size();
  }
  [[nodiscard]] std::size_t num_objects() const noexcept {
    return values_.size();
  }
  /// M(E) of Lemma 1: the maximum size over all awareness and familiarity
  /// sets, recomputed exactly (O(processes + objects) set counts).
  [[nodiscard]] std::size_t max_knowledge() const;

  /// Opt-in scheduler-decision log: when enabled, every successful step,
  /// crash and spurious-CAS records a SchedDecision.  Off by default (and
  /// cleared by reset()) so the model checker's hot path stays untouched.
  void enable_decision_log(bool on) noexcept {
    decision_log_enabled_ = on;
  }
  [[nodiscard]] const std::vector<SchedDecision>& decision_log()
      const noexcept {
    return decisions_;
  }

  /// High-water mark of M over the whole run, raised event by event as the
  /// knowledge cache absorbs the trace (amortised O(N/64) per event; the
  /// first query after a reset allocates the cache's sets).  Since
  /// knowledge sets only ever grow (familiarity retraction can shrink one
  /// object's set, but never above the mark), the mark equals max over
  /// prefixes of M(E_prefix) -- the quantity Lemma 1's 3^j invariant
  /// bounds.  Preferred by the large-N adversary benchmarks, where exact
  /// recomputation per round would dominate.
  [[nodiscard]] std::size_t max_knowledge_seen() const {
    return sync_knowledge().high_water;
  }

 private:
  friend class Ctx;

  static constexpr std::uint64_t kNoEvent = UINT64_MAX;

  struct ProcState {
    Ctx ctx;
    Op op;
    std::coroutine_handle<> resume_point;  // innermost suspended coroutine
    Pending pending;
    bool has_pending = false;
    bool crashed = false;
    Value prim_result = 0;
    std::uint64_t steps = 0;
    // Deferred mark_invoke, flushed at this process's next step.
    bool invoke_buffered = false;
    std::string buffered_op;
    Value buffered_arg = 0;
    // mark_invoke calls so far; footprint-declared processes promise <= 1.
    std::uint32_t invokes = 0;
  };

  // Definitions 1-4 state after the first `absorbed` trace events.
  struct Knowledge {
    struct Contribution {
      std::uint64_t event_index;
      ProcId proc;
      ProcSet aw;  // AW(issuer) at event time (Definition 4's E1e prefix)
    };
    struct Object {
      Value value = 0;  // the k-CAS rule compares against it
      ProcSet fam;      // cached union of contributions
      std::vector<Contribution> contribs;
      std::uint64_t last_access = kNoEvent;  // trace index of last event
    };
    std::vector<ProcSet> aw;
    std::vector<std::uint64_t> last_step;  // trace index of p's last event
    std::vector<Object> objects;
    std::size_t high_water = 1;  // every AW starts at {self}
    std::size_t absorbed = 0;
    bool stale = true;  // reset() since the last query
  };

  void flush_invoke(ProcId p);

  void post_pending(ProcId p, const Pending& pending,
                    std::coroutine_handle<> resume_point);
  [[nodiscard]] Value take_result(ProcId p) const {
    return procs_[p].prim_result;
  }
  void apply(ProcId p, const Pending& pending);

  // Brings the knowledge cache up to the end of the trace.
  const Knowledge& sync_knowledge() const;
  void absorb(Knowledge& k, std::uint64_t index) const;
  void retract_overwritten(Knowledge& k, Knowledge::Object& os) const;

  void check_footprint(ProcId p, const Pending& pending) const;

  const Program* program_ = nullptr;
  std::vector<Value> values_;
  std::vector<ProcState> procs_;
  ProcSet active_;  // cached {p : has_pending}; see active_set()
  std::uint32_t live_count_ = 0;
  Trace trace_;
  std::vector<HistoryEvent> history_;
  std::uint64_t clock_ = 0;  // advances on every step and annotation
  mutable Knowledge knowledge_;
  std::uint32_t crash_count_ = 0;
  bool decision_log_enabled_ = false;
  std::vector<SchedDecision> decisions_;

  friend struct PrimAwaiter;
};

/// Awaitable for one shared-memory primitive.
struct PrimAwaiter {
  Ctx* ctx;
  Pending pending;

  bool await_ready() noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) noexcept {
    ctx->sys_->post_pending(ctx->id_, pending, h);
  }
  [[nodiscard]] Value await_resume() noexcept {
    return ctx->sys_->take_result(ctx->id_);
  }
};

/// Awaitable for one k-CAS.  It owns the words: the awaiter lives in the
/// coroutine frame for as long as the process is suspended on it, which is
/// exactly how long the enabled event's span into them must stay valid.
struct KcasAwaiter : PrimAwaiter {
  std::vector<KcasEntry> words;

  void await_suspend(std::coroutine_handle<> h) noexcept {
    pending.kcas = words;
    PrimAwaiter::await_suspend(h);
  }
};

inline auto Ctx::read(ObjectId o) noexcept {
  return PrimAwaiter{this, Pending{.obj = o, .prim = Prim::kRead}};
}
inline auto Ctx::write(ObjectId o, Value v) noexcept {
  return PrimAwaiter{this, Pending{.arg = v, .obj = o, .prim = Prim::kWrite}};
}
inline auto Ctx::cas(ObjectId o, Value expected, Value desired) noexcept {
  return PrimAwaiter{this, Pending{.arg = desired,
                                   .expected = expected,
                                   .obj = o,
                                   .prim = Prim::kCas}};
}
inline auto Ctx::kcas(std::vector<KcasEntry> entries) {
  if (entries.empty()) {
    throw std::invalid_argument{"Ctx::kcas: empty entry list"};
  }
  if (entries.size() > UINT16_MAX) {
    throw std::invalid_argument{"Ctx::kcas: more than 65535 words"};
  }
  const Pending pending{.obj = entries.front().obj, .prim = Prim::kKcas};
  return KcasAwaiter{{this, pending}, std::move(entries)};
}

/// Re-executes `script` on a fresh system by stepping each event's process
/// in order, checking that every process performs the same actions -- and,
/// with `check_responses`, receives the same responses -- as recorded.
/// This is the executable form of Lemma 2 / Claim 1: a trace with hidden
/// processes removed must replay as a legal execution indistinguishable to
/// the survivors.
struct ReplayResult {
  bool ok = true;
  std::size_t mismatch_index = 0;
  std::string message;
};
ReplayResult replay_trace(System& fresh, const Trace& script,
                          bool check_responses);

}  // namespace ruco::sim
