#include "ruco/sim/system.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ruco::sim {

ObjectId Program::add_object(Value initial) {
  object_init_.push_back(initial);
  return static_cast<ObjectId>(object_init_.size() - 1);
}

ProcId Program::add_process(std::function<Op(Ctx&)> body) {
  bodies_.push_back(std::move(body));
  footprints_.emplace_back();
  return static_cast<ProcId>(bodies_.size() - 1);
}

ProcId Program::add_process(std::function<Op(Ctx&)> body,
                            std::vector<ObjectId> footprint) {
  if (footprint.empty()) {
    throw std::invalid_argument{
        "Program::add_process: declared footprint must be non-empty (omit "
        "it entirely for an undeclared process)"};
  }
  std::sort(footprint.begin(), footprint.end());
  footprint.erase(std::unique(footprint.begin(), footprint.end()),
                  footprint.end());
  bodies_.push_back(std::move(body));
  footprints_.push_back(std::move(footprint));
  return static_cast<ProcId>(bodies_.size() - 1);
}

void Ctx::mark_invoke(std::string_view op, Value arg) {
  auto& ps = sys_->procs_[id_];
  if (++ps.invokes > 1 && sys_->program_->has_footprint(id_)) {
    throw std::logic_error{
        "Ctx::mark_invoke: footprint-declared process p" +
        std::to_string(id_) +
        " performed a second operation; the persistent-set filter requires "
        "at most one (drop the footprint declaration)"};
  }
  ps.invoke_buffered = true;
  ps.buffered_op = std::string{op};
  ps.buffered_arg = arg;
}

void Ctx::mark_return(Value ret) {
  // A zero-step operation would return with its invoke still buffered;
  // stamp the invoke first so the pair stays ordered.
  sys_->flush_invoke(id_);
  sys_->history_.push_back(HistoryEvent{id_, HistoryEvent::Kind::kReturn,
                                        std::string{}, ret, {},
                                        sys_->clock_++});
}

void Ctx::mark_return_vec(std::vector<Value> ret) {
  sys_->flush_invoke(id_);
  sys_->history_.push_back(HistoryEvent{id_, HistoryEvent::Kind::kReturn,
                                        std::string{}, 0, std::move(ret),
                                        sys_->clock_++});
}

void System::flush_invoke(ProcId p) {
  ProcState& ps = procs_[p];
  if (!ps.invoke_buffered) return;
  ps.invoke_buffered = false;
  history_.push_back(HistoryEvent{p, HistoryEvent::Kind::kInvoke,
                                  std::move(ps.buffered_op), ps.buffered_arg,
                                  {}, clock_++});
}

System::System(const Program& program) : program_{&program} {
  const std::size_t n = program.num_processes();
  values_.resize(program.num_objects());
  // procs_ must never reallocate: coroutine frames hold Ctx&.
  procs_ = std::vector<ProcState>(n);
  for (ProcId p = 0; p < n; ++p) {
    ProcState& ps = procs_[p];
    ps.ctx.sys_ = this;
    ps.ctx.id_ = p;
  }
  active_ = ProcSet{n};
  reset();
}

void System::reset() {
  const Program& program = *program_;
  std::copy(program.object_init_.begin(), program.object_init_.end(),
            values_.begin());
  trace_.clear();
  history_.clear();
  decisions_.clear();
  clock_ = 0;
  knowledge_.stale = true;
  crash_count_ = 0;
  active_.clear();
  live_count_ = 0;
  for (ProcId p = 0; p < procs_.size(); ++p) {
    ProcState& ps = procs_[p];
    ps.op = Op{};  // destroy any previously suspended coroutine chain
    ps.resume_point = {};
    ps.has_pending = false;
    ps.crashed = false;
    ps.prim_result = 0;
    ps.steps = 0;
    ps.invoke_buffered = false;
    ps.buffered_op.clear();
    ps.buffered_arg = 0;
    ps.invokes = 0;
    ps.op = program.bodies_[p](ps.ctx);
    // Run to the first suspension so the enabled event is visible.
    ps.op.resume_from_system();
    if (ps.op.done() && !ps.has_pending) {
      (void)ps.op.result();  // surface construction-time exceptions
    }
    if (ps.has_pending) {
      active_.add(p);
      ++live_count_;
    }
  }
}

void System::post_pending(ProcId p, const Pending& pending,
                          std::coroutine_handle<> resume_point) {
  ProcState& ps = procs_[p];
  ps.pending = pending;
  ps.has_pending = true;
  ps.resume_point = resume_point;
}

bool System::pending_would_change(ProcId p) const {
  const ProcState& ps = procs_[p];
  if (!ps.has_pending) return false;
  const Value current = values_[ps.pending.obj];
  switch (ps.pending.prim) {
    case Prim::kRead:
      return false;
    case Prim::kWrite:
      return ps.pending.arg != current;
    case Prim::kCas:
      return ps.pending.expected == current && ps.pending.arg != current;
    case Prim::kKcas: {
      bool all_match = true;
      bool any_change = false;
      for (const auto& entry : ps.pending.kcas) {
        const Value now = values_[entry.obj];
        all_match = all_match && (now == entry.expected);
        any_change = any_change || (entry.desired != now);
      }
      return all_match && any_change;
    }
  }
  return false;
}

Value System::result(ProcId p) const {
  const ProcState& ps = procs_[p];
  if (ps.crashed) {
    throw std::logic_error{"System::result: process p" + std::to_string(p) +
                           " crashed; its operation never returned"};
  }
  return ps.op.result();
}

bool System::crash(ProcId p) {
  ProcState& ps = procs_[p];
  if (!ps.has_pending) return false;
  if (decision_log_enabled_) {
    decisions_.push_back({SchedDecision::Kind::kCrash, p});
  }
  // Discard a buffered invoke: in the model an operation's interval begins
  // at its first shared-memory event, so an operation that never stepped
  // never started -- it must not appear in the history even as pending.
  ps.invoke_buffered = false;
  ps.buffered_op.clear();
  ps.has_pending = false;
  ps.crashed = true;
  ps.resume_point = {};
  ps.op = Op{};  // destroy the suspended coroutine chain
  ++crash_count_;
  active_.remove(p);
  --live_count_;
  return true;
}

bool System::step_spurious(ProcId p) {
  ProcState& ps = procs_[p];
  if (!ps.has_pending || ps.pending.prim != Prim::kCas) return false;
  if (decision_log_enabled_) {
    decisions_.push_back({SchedDecision::Kind::kSpurious, p});
  }
  flush_invoke(p);
  const Pending pending = ps.pending;
  ps.has_pending = false;
  if (program_->has_footprint(p)) check_footprint(p, pending);
  // A spuriously failed CAS is exactly a failed CAS to the rest of the
  // system: no value change, result 0 -- and it still observes the object,
  // so the knowledge sets stay a conservative superset.
  Event ev;
  ev.proc = p;
  ev.obj = pending.obj;
  ev.prim = Prim::kCas;
  ev.arg = pending.arg;
  ev.expected = pending.expected;
  ev.observed = 0;
  ev.changed = false;
  ev.spurious = true;
  ps.prim_result = 0;
  trace_.push_back(ev);
  ++clock_;
  ps.steps += 1;
  ps.resume_point.resume();
  if (!ps.has_pending) {
    active_.remove(p);
    --live_count_;
    if (ps.op.done()) {
      (void)ps.op.result();  // rethrow algorithm bugs eagerly
    }
  }
  return true;
}

bool System::step(ProcId p) {
  ProcState& ps = procs_[p];
  if (!ps.has_pending) return false;
  if (decision_log_enabled_) {
    decisions_.push_back({SchedDecision::Kind::kStep, p});
  }
  flush_invoke(p);  // the operation's interval begins at its first step
  const Pending pending = ps.pending;
  ps.has_pending = false;
  apply(p, pending);
  ps.steps += 1;
  // Resume the innermost suspended coroutine; it either posts a new pending
  // event or runs the op (chain) to completion.
  ps.resume_point.resume();
  if (!ps.has_pending) {
    active_.remove(p);
    --live_count_;
    if (ps.op.done()) {
      (void)ps.op.result();  // rethrow algorithm bugs eagerly
    }
  }
  return true;
}

void System::check_footprint(ProcId p, const Pending& pending) const {
  const std::vector<ObjectId>& fp = program_->footprint(p);
  const auto in_fp = [&fp](ObjectId o) {
    return std::binary_search(fp.begin(), fp.end(), o);
  };
  bool ok = true;
  if (pending.prim == Prim::kKcas) {
    for (const auto& entry : pending.kcas) ok = ok && in_fp(entry.obj);
  } else {
    ok = in_fp(pending.obj);
  }
  if (!ok) {
    throw std::logic_error{
        "System: process p" + std::to_string(p) + " accessed object " +
        std::to_string(pending.obj) +
        " outside its declared footprint; the persistent-set filter would "
        "be unsound (fix or drop the declaration)"};
  }
}

void System::apply(ProcId p, const Pending& pending) {
  if (program_->has_footprint(p)) check_footprint(p, pending);
  Value& value = values_[pending.obj];
  ProcState& ps = procs_[p];
  Event ev;
  ev.proc = p;
  ev.obj = pending.obj;
  ev.prim = pending.prim;
  ev.arg = pending.arg;
  ev.expected = pending.expected;

  switch (pending.prim) {
    case Prim::kRead:
      ev.observed = value;
      ev.changed = false;
      ps.prim_result = ev.observed;
      break;
    case Prim::kWrite:
      ev.changed = (value != pending.arg);
      value = pending.arg;
      ps.prim_result = 0;
      break;
    case Prim::kCas: {
      const bool success = (value == pending.expected);
      ev.observed = success ? 1 : 0;
      ev.changed = success && (pending.arg != value);
      if (success) value = pending.arg;
      ps.prim_result = ev.observed;
      break;
    }
    case Prim::kKcas: {
      // Succeed iff every word matches, then install every desired value.
      bool all_match = true;
      for (const auto& entry : pending.kcas) {
        all_match = all_match && (values_[entry.obj] == entry.expected);
      }
      ev.observed = all_match ? 1 : 0;
      if (all_match) {
        for (const auto& entry : pending.kcas) {
          Value& target = values_[entry.obj];
          ev.changed = ev.changed || (target != entry.desired);
          target = entry.desired;
        }
      }
      ps.prim_result = ev.observed;
      break;
    }
  }
  trace_.push_back(ev, pending.kcas);
  ++clock_;
}

const System::Knowledge& System::sync_knowledge() const {
  Knowledge& k = knowledge_;
  if (k.stale) {
    const std::size_t n = procs_.size();
    if (k.aw.size() != n || k.objects.size() != values_.size()) {
      k.aw.assign(n, ProcSet{n});
      k.last_step.resize(n);
      k.objects.resize(values_.size());
      for (auto& os : k.objects) os.fam = ProcSet{n};
    }
    for (ProcId p = 0; p < n; ++p) {
      k.aw[p].clear();
      k.aw[p].add(p);  // initially, each process is aware only of itself
      k.last_step[p] = kNoEvent;
    }
    for (std::size_t o = 0; o < k.objects.size(); ++o) {
      Knowledge::Object& os = k.objects[o];
      os.value = program_->object_init_[o];
      os.fam.clear();
      os.contribs.clear();
      os.last_access = kNoEvent;
    }
    k.high_water = 1;
    k.absorbed = 0;
    k.stale = false;
  }
  for (; k.absorbed < trace_.size(); ++k.absorbed) absorb(k, k.absorbed);
  return k;
}

void System::absorb(Knowledge& k, std::uint64_t index) const {
  const Event& ev = trace_[index];
  Knowledge::Object& os = k.objects[ev.obj];
  ProcSet& aw = k.aw[ev.proc];
  const auto contribute = [&](Knowledge::Object& target, Value v) {
    target.value = v;
    target.contribs.push_back(Knowledge::Contribution{index, ev.proc, aw});
    target.fam.unite(aw);  // Definition 4
    k.high_water = std::max(k.high_water, target.fam.count());
  };
  switch (ev.prim) {
    case Prim::kRead:
      aw.unite(os.fam);  // Definition 2 case 1
      k.high_water = std::max(k.high_water, aw.count());
      break;
    case Prim::kWrite:
      if (ev.changed) {
        // Definition 1: an immediately-overwritten, never-observed write
        // becomes invisible; retract its familiarity contribution.
        retract_overwritten(k, os);
        contribute(os, ev.arg);
      }
      break;
    case Prim::kCas:
      aw.unite(os.fam);  // a CAS observes the object either way
      if (ev.changed) contribute(os, ev.arg);
      k.high_water = std::max(k.high_water, aw.count());
      break;
    case Prim::kKcas: {
      // Observe (and grow aware through) every touched object either way;
      // on success, contribute to every object whose value changed.
      const auto words = trace_.words(ev);
      for (const auto& entry : words) aw.unite(k.objects[entry.obj].fam);
      if (ev.observed != 0) {
        for (const auto& entry : words) {
          Knowledge::Object& target = k.objects[entry.obj];
          if (target.value != entry.desired) contribute(target, entry.desired);
        }
      }
      k.high_water = std::max(k.high_water, aw.count());
      // Every touched object records the access (blocks Definition 1
      // retraction of whatever it last held).
      for (const auto& entry : words) k.objects[entry.obj].last_access = index;
      break;
    }
  }
  os.last_access = index;
  k.last_step[ev.proc] = index;
}

void System::retract_overwritten(Knowledge& k, Knowledge::Object& os) const {
  if (os.contribs.empty()) return;
  const auto& top = os.contribs.back();
  // The previous visible event on this object becomes invisible iff it was
  // the most recent access to the object (nobody read it in between) and
  // its issuer has taken no step since (Definition 1's two conditions).
  if (top.event_index == os.last_access &&
      k.last_step[top.proc] == top.event_index) {
    os.contribs.pop_back();
    os.fam.clear();
    for (const auto& c : os.contribs) os.fam.unite(c.aw);
  }
}

std::size_t System::max_knowledge() const {
  const Knowledge& k = sync_knowledge();
  std::size_t best = 0;
  for (const auto& aw : k.aw) best = std::max(best, aw.count());
  for (const auto& os : k.objects) best = std::max(best, os.fam.count());
  return best;
}

ReplayResult replay_trace(System& fresh, const Trace& script,
                          bool check_responses) {
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Event& want = script[i];
    const Pending* enabled = fresh.enabled(want.proc);
    if (enabled == nullptr) {
      return ReplayResult{false, i,
                          "process completed early during replay"};
    }
    // Spurious weak-CAS failures are faults, not value-dependent outcomes:
    // replay must re-inject them or a CAS that spuriously failed in the
    // original run could succeed in the replay.
    const bool stepped = want.spurious ? fresh.step_spurious(want.proc)
                                       : fresh.step(want.proc);
    if (!stepped) {
      return ReplayResult{false, i, "process not steppable during replay"};
    }
    const Event& got = fresh.trace().back();
    const auto got_words = fresh.trace().words(got);
    const auto want_words = script.words(want);
    if (!got.same_action(want, got_words, want_words)) {
      return ReplayResult{false, i,
                          "action mismatch: expected " +
                              want.to_string(want_words) + ", got " +
                              got.to_string(got_words)};
    }
    if (check_responses &&
        (got.observed != want.observed || got.changed != want.changed)) {
      return ReplayResult{false, i,
                          "response mismatch: expected " +
                              want.to_string(want_words) + ", got " +
                              got.to_string(got_words)};
    }
  }
  return ReplayResult{};
}

}  // namespace ruco::sim
