// Crash-fault injection for the simulated system.  The paper's headline
// results are *wait-free*: Algorithm A's bounds must hold no matter how
// many processes crash mid-operation.  A FaultPlan describes, fully
// deterministically (fixed seed => fixed faults for a fixed schedule),
// which faults to inject:
//
//   * explicit placements -- crash process p the first time it is selected
//     to step at or past its k-th own step (or the k-th global step);
//   * a seeded random crash storm -- up to `max_random_crashes < N`
//     crashes, never dropping below `min_survivors` live processes;
//   * a spurious weak-CAS mode -- a pending single-word CAS fails without
//     being applied, as an LL/SC-backed compare_exchange_weak may.
//
// A FaultInjector layers the plan over a System as a stepping decorator:
// schedulers call `injector.step(p)` where they would call `sys.step(p)`.
// Crashes consume the scheduling slot but no step (the enabled event is
// discarded, not applied); spurious failures are ordinary steps.  The
// fault-aware scheduler overloads live in ruco/sim/schedulers.h.
#pragma once

#include <cstdint>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/sim/system.h"
#include "ruco/util/rng.h"

namespace ruco::sim {

/// One explicit crash placement.  The crash fires the first time `proc` is
/// selected to step with the relevant step counter >= `step`: its own
/// applied-step count (kOwnSteps) or the system-wide trace length
/// (kGlobalSteps).  Threshold semantics keep placements meaningful under
/// any scheduler -- the process need not be selected at exactly step k.
struct CrashPoint {
  enum class Basis : std::uint8_t { kOwnSteps, kGlobalSteps };

  ProcId proc = 0;
  std::uint64_t step = 0;
  Basis basis = Basis::kOwnSteps;
};

struct FaultPlan {
  /// Seed for the injector's private RNG (random crashes and spurious CAS
  /// draws).  Independent of any scheduler seed.
  std::uint64_t seed = 1;

  /// Explicit crash placements; each fires at most once.  Placements
  /// ignore `min_survivors` (the caller asked for them by name).
  std::vector<CrashPoint> crash_at;

  /// Random crash storm: every time a process is selected to step, it
  /// crashes with probability `crash_per_mille / 1000`, while the quota
  /// lasts.  Keep the quota below N: the paper's fault model is f < N.
  std::uint32_t max_random_crashes = 0;
  std::uint32_t crash_per_mille = 0;

  /// Random crashes never reduce the live (active, non-crashed) process
  /// count below this.  At least one survivor keeps every crash-extended
  /// schedule a legal execution with someone left to certify.
  std::uint32_t min_survivors = 1;

  /// Spurious weak-CAS mode: when the selected process's enabled event is
  /// a single-word CAS, it fails spuriously (System::step_spurious) with
  /// probability `spurious_cas_per_mille / 1000`.
  std::uint32_t spurious_cas_per_mille = 0;
};

/// One injected crash, for reports and replay cross-checks.
struct CrashRecord {
  ProcId proc = 0;
  std::uint64_t at_trace_size = 0;  // system step count when the crash fired
  std::uint64_t own_steps = 0;      // steps the process had taken
};

class FaultInjector {
 public:
  enum class Outcome : std::uint8_t {
    kStepped,   // a step was applied (possibly a spurious CAS failure)
    kCrashed,   // the process was crashed instead of stepping
    kInactive,  // the process had no enabled event
  };

  FaultInjector(System& sys, FaultPlan plan);

  /// Scheduler entry point, in place of sys.step(p).
  Outcome step(ProcId p);

  [[nodiscard]] const std::vector<CrashRecord>& crashes() const noexcept {
    return log_;
  }
  [[nodiscard]] std::uint32_t crash_count() const noexcept {
    return static_cast<std::uint32_t>(log_.size());
  }
  [[nodiscard]] std::uint32_t spurious_count() const noexcept {
    return spurious_;
  }
  /// Explicit crash_at placements that never fired -- typically because the
  /// process completed before reaching its threshold.  Callers that demand
  /// a specific crash should check this after the run.
  [[nodiscard]] std::size_t unfired_placements() const noexcept {
    std::size_t unfired = 0;
    for (const bool fired : fired_) unfired += fired ? 0 : 1;
    return unfired;
  }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

 private:
  [[nodiscard]] bool should_crash(ProcId p);

  System& sys_;
  FaultPlan plan_;
  util::SplitMix64 rng_;
  std::vector<bool> fired_;  // crash_at entries already consumed
  std::vector<CrashRecord> log_;
  std::uint32_t random_crashes_ = 0;
  std::uint32_t spurious_ = 0;
};

}  // namespace ruco::sim
