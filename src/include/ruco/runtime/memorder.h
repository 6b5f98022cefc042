// Memory-order constants for the hand-tuned production hot paths, with a
// seq_cst escape hatch for weakly-ordered targets.
//
// Every sub-seq_cst protocol atomic in the production algorithms names its
// order through these constants instead of the std::memory_order_*
// literals: the root and slot reads of the trees (TreeMaxRegister::
// read_max, FArray::read_aggregate and read_slot, the root load of
// FArraySnapshot's scans), the leaf check in TreeMaxRegister::write_max,
// CasMaxRegister, and the software MCAS.  The propagation loop
// (ruco/farray/wide_propagate.h) and the leaf stores before it are
// literal seq_cst and do not go through them: they are already the
// strongest order.  By default the constants are exactly the literals
// they are named after, so the default build is the weakest-order build
// whose per-site soundness arguments live in DESIGN.md ("Hot-path
// engineering") and the source comments.
//
// The sub-seq_cst orders are machine-verified by src/wmm (docs/WEAKMEM.md):
// an RC11 axiomatic model checker enumerates every weak-memory-consistent
// execution of the protocol kernels written against these constants, the
// kernel invariants hold over all of them at the shipped orders, and the
// mutation driver proves every load-bearing site minimal -- weakening any
// one of them to relaxed exhibits a concrete violating execution (run
// `rucosim wmm`; CI job `weakmem`).
//
// Configuring with -DRUCO_SEQCST_ATOMICS=ON collapses all four constants
// to seq_cst, which changes only the sites listed above.  Rationale
// (DESIGN.md "What the certification covers"): the runtime certification
// legs validate the *protocol* -- the interleaving model checker explores
// sequentially consistent semantics, TSan proves data-race freedom (which
// any std::atomic order gives by construction), and CI hardware is
// x86/TSO -- so a deployment that wants the hot paths to run under
// exactly the semantics those legs explored can buy it for the last few
// percent of hot-path cost.  The collapse claim is itself
// machine-verified: under the flag the wmm litmus battery written against
// these constants loses exactly its designated weak outcomes.  CI compiles
// and runs the stress suites plus the wmm suite in this configuration so
// the fallback is always green.
//
// Collapsing to seq_cst is always sound: seq_cst is the strongest order,
// and a compare_exchange failure order of seq_cst is valid wherever
// relaxed/acquire is (the failure order may never be release/acq_rel,
// which these constants never produce for a failure operand).
//
// Deliberately NOT routed through these constants: process-private
// bookkeeping (per-process sequence numbers, local counts) and
// single-threaded construction-time stores, which are relaxed because they
// are not part of the cross-thread protocol at all; and the telemetry
// counters, which are racy-by-design monotone statistics.
#pragma once

#include <atomic>

namespace ruco::runtime {

#if defined(RUCO_SEQCST_ATOMICS)
inline constexpr std::memory_order mo_relaxed = std::memory_order_seq_cst;
inline constexpr std::memory_order mo_acquire = std::memory_order_seq_cst;
inline constexpr std::memory_order mo_release = std::memory_order_seq_cst;
inline constexpr std::memory_order mo_acq_rel = std::memory_order_seq_cst;
#else
inline constexpr std::memory_order mo_relaxed = std::memory_order_relaxed;
inline constexpr std::memory_order mo_acquire = std::memory_order_acquire;
inline constexpr std::memory_order mo_release = std::memory_order_release;
inline constexpr std::memory_order mo_acq_rel = std::memory_order_acq_rel;
#endif

}  // namespace ruco::runtime
