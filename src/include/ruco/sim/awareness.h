// Offline recomputation of the paper's knowledge sets from a recorded
// trace, independent of the System's knowledge cache:
//
//   * recompute_knowledge -- final AW(p, E) and F(o, E) per Definitions 1-4,
//     applying the *literal* Definition 1 (any write, trivial or not, hides
//     an immediately-preceding unobserved event on the same object).  The
//     online rules of sim::System's cache retract only on value-changing
//     writes, so online sets are a superset; the property tests assert
//     exactly that containment.
//
//   * first_aware_index -- for a target process pi, the index in the trace
//     of each process's first event at or after which pi entered its
//     awareness set.  This is the cut point of Theorem 1's erasure step:
//     "remove all the events of pk starting from the first event of pk that
//     is aware of pi" (proof of Lemma 3).
#pragma once

#include <cstdint>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/sim/event.h"
#include "ruco/sim/proc_set.h"

namespace ruco::sim {

struct KnowledgeSets {
  std::vector<ProcSet> awareness;    // per process
  std::vector<ProcSet> familiarity;  // per object
};

[[nodiscard]] KnowledgeSets recompute_knowledge(const Trace& trace,
                                                std::size_t num_processes,
                                                std::size_t num_objects);

inline constexpr std::uint64_t kNeverAware = UINT64_MAX;

/// result[p] = trace index of p's first event after which target is in
/// AW(p), or kNeverAware.  result[target] = index of target's first event
/// (a process is aware of itself from its first step; kNeverAware if it
/// never steps).
[[nodiscard]] std::vector<std::uint64_t> first_aware_index(
    const Trace& trace, std::size_t num_processes, std::size_t num_objects,
    ProcId target);

/// Theorem 1's erased execution: drop all events of `target`, and for every
/// other process drop its events from the first one aware of `target`
/// onwards.  (The survivors are, by Lemma 2, still a legal execution --
/// validated by replay_trace in the tests.)
[[nodiscard]] Trace erase_aware_of(const Trace& trace,
                                   std::size_t num_processes,
                                   std::size_t num_objects, ProcId target);

}  // namespace ruco::sim
