// The Theorem 3 construction, executable: an adversarial scheduler that
// maintains an i-step *essential set* E_i of hidden, supreme writer
// processes (Definitions 5-7) against any simulated max register, stretching
// each survivor's WriteMax to i steps while keeping every survivor unknown
// to everyone else.
//
// Per iteration (Lemma 4), given the active essential processes Ee and
// their enabled events grouped by base object:
//
//   Low contention  (every group <= sqrt(m)): keep one process per object,
//     drop those whose target object is familiar with another kept process
//     (greedy independent set; Turan guarantees >= k/3 survivors), erase the
//     rest, and let the survivors step on their pairwise-distinct objects.
//
//   High contention (some object o has > sqrt(m) processes): split o's
//     group by primitive --
//       value-changing CASes: the smallest-id process pl CASes first
//         (halted afterwards); everyone else's CAS is now trivial and
//         invisible;
//       writes: everyone writes, pl (smallest id) writes last, hiding all
//         earlier writes (Definition 1); pl is halted;
//       reads / trivial CASes: all step invisibly (after erasing the <=1
//         process o is familiar with).
//
// Erasure is real: the chosen processes' events are removed from the trace
// (legal by Claim 1 -- they are hidden) and the remainder is *replayed* on a
// fresh System, checking action-for-action, response-for-response
// indistinguishability.  All familiarity decisions use the offline literal
// Definition 1-4 recomputation, not the System's online conservative rules.
//
// The run stops when at least half the essential processes completed
// (Lemma 6's regime), when m < 81 (Lemma 4's validity floor, relaxable for
// small-K demos via options), or at the iteration cap.  The report carries
// the per-iteration record the theorem's Equations 2-4 speak about:
// |E_i| decay, case taken, halted/erased counts, invariant checks -- plus a
// final Lemma 5/6-style probe: a fresh reader runs solo and must return one
// of the values whose write completed (linearizability sanity).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/simalgos/programs.h"

namespace ruco::adversary {

struct MaxRegAdversaryOptions {
  std::uint64_t max_iterations = 64;
  /// Lemma 4 requires m >= 81; smaller floors still run the machinery (all
  /// invariants are still checked) and are useful for small-K exploration.
  std::size_t min_active = 81;
};

struct MaxRegIteration {
  enum class Case : std::uint8_t {
    kLowContention,
    kHighCas,
    kHighWrite,
    kHighRead,
  };
  std::uint64_t index = 0;       // i+1: steps each essential process has taken
  Case contention = Case::kLowContention;
  std::size_t active_before = 0;     // m = |Ee|
  std::size_t essential_after = 0;   // |E_{i+1}|
  std::size_t erased = 0;            // processes removed from the execution
  bool halted = false;               // a process was halted this iteration
  std::size_t completed_essential = 0;  // essential ops finished so far
  bool replay_ok = true;      // Claim 1 replay matched action+response
  bool invariants_ok = true;  // hidden + supreme + step-count (Def. 5-7)
  std::string diagnostic;
  /// Lemma 4's guarantee |E_{i+1}| >= sqrt(m)/3 - 2.
  [[nodiscard]] bool size_bound_held() const noexcept;
};

struct MaxRegAdversaryReport {
  std::uint32_t k = 0;  // processes (writers + reader)
  std::vector<MaxRegIteration> iterations;
  std::uint64_t iterations_completed = 0;  // i*
  std::size_t final_essential = 0;         // |E_{i*}|
  bool all_replays_ok = true;
  bool all_invariants_ok = true;
  bool all_size_bounds_ok = true;
  std::string stop_reason;
  /// Final probe: reader runs solo on the surviving execution.
  Value reader_value = kNoValue;
  std::uint64_t reader_steps = 0;
  bool reader_ok = true;  // response consistent with completed writes
};

[[nodiscard]] MaxRegAdversaryReport run_maxreg_adversary(
    const simalgos::MaxRegProgram& target,
    const MaxRegAdversaryOptions& options = {});

[[nodiscard]] const char* to_string(MaxRegIteration::Case c) noexcept;

}  // namespace ruco::adversary
