#include "ruco/sim/fault.h"

namespace ruco::sim {

FaultInjector::FaultInjector(System& sys, FaultPlan plan)
    : sys_{sys},
      plan_{std::move(plan)},
      rng_{plan_.seed},
      fired_(plan_.crash_at.size(), false) {}

bool FaultInjector::should_crash(ProcId p) {
  for (std::size_t i = 0; i < plan_.crash_at.size(); ++i) {
    if (fired_[i]) continue;
    const CrashPoint& point = plan_.crash_at[i];
    if (point.proc != p) continue;
    const std::uint64_t counter =
        point.basis == CrashPoint::Basis::kOwnSteps ? sys_.steps_taken(p)
                                                    : sys_.trace().size();
    if (counter >= point.step) {
      fired_[i] = true;
      return true;
    }
  }
  if (random_crashes_ < plan_.max_random_crashes &&
      plan_.crash_per_mille != 0 && sys_.live_count() > plan_.min_survivors &&
      rng_.chance(plan_.crash_per_mille, 1000)) {
    ++random_crashes_;
    return true;
  }
  return false;
}

FaultInjector::Outcome FaultInjector::step(ProcId p) {
  if (!sys_.active(p)) return Outcome::kInactive;
  if (should_crash(p)) {
    const CrashRecord record{p, sys_.trace().size(), sys_.steps_taken(p)};
    sys_.crash(p);
    log_.push_back(record);
    return Outcome::kCrashed;
  }
  if (plan_.spurious_cas_per_mille != 0) {
    const Pending* pending = sys_.enabled(p);
    if (pending != nullptr && pending->prim == Prim::kCas &&
        rng_.chance(plan_.spurious_cas_per_mille, 1000)) {
      sys_.step_spurious(p);
      ++spurious_;
      return Outcome::kStepped;
    }
  }
  sys_.step(p);
  return Outcome::kStepped;
}

}  // namespace ruco::sim
