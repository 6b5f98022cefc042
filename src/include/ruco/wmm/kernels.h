// Protocol kernels: the production hot-path synchronization patterns
// transcribed as litmus programs against the shipped orders (the real
// `runtime::mo_*` constants where the code uses them), with their
// correctness conditions as machine-checked invariants over all
// RC11-consistent executions.
//
// Six kernels cover the order table in DESIGN.md ("Hot-path
// engineering"):
//
//   propagate-counter/{conditional,always-twice}
//       The propagation loop (ruco/farray/wide_propagate.h) on a 2-leaf
//       binary tree, as farray::TreeWalk walks Algorithm A's tree, with
//       two concurrent increments, both RefreshPolicy variants, at its
//       seq_cst sites.
//       Invariants: no lost increment (final node == 2) and no
//       monotonicity regression (the node's modification order is
//       nondecreasing) -- the PR-4 node-load bug class.
//
//   propagate-snapshot
//       The f-array snapshot's propagation (seq_cst at the leaf store,
//       node load, child loads and success CAS; every merge is CASed, as
//       fresh views never equal the node) with a non-atomic payload
//       published before the leaf store and dereferenced behind the
//       child load.  Invariant: every payload read is race-free and sees
//       the published value.
//
//   root-read
//       TreeMaxRegister's read fast path: an acquire root load
//       justifying a plain read of data published before the install.
//
//   leaf-handoff
//       The leaf-store -> helping-propagate handoff: a helper observes
//       a released leaf and completes the propagation for the writer.
//
//   mcas-publication
//       The MCAS descriptor-publication pattern from src/kcas/mcas.cpp:
//       descriptor fields written plain, published by the install CAS
//       (acq_rel), re-read by helpers through acquire cell loads; the
//       status decide CAS publishes helper-side writes back.  The helper
//       side is also McasArray::read's resolving path, which acquire-loads
//       the cell and reads the descriptor's plain fields.  Invariant: no
//       torn descriptor read (all plain reads see the published values,
//       race-free).
//
//   mcas-resolving-read
//       McasArray::read resolving both words of one 2-word MCAS without
//       helping: the owner acquires both words, decides SUCCEEDED and
//       releases both; a reader reads word 0 then word 1, mapping a
//       descriptor to the word's new value if it loads the status as
//       SUCCEEDED and to its old value otherwise.  Invariant: the reader
//       never sees word 0 new and then word 1 old (the acquire status load
//       and the release phase-2 CAS are what rule that out).  Not part of
//       protocol_kernels(), whose list the repository benchmark's verify
//       workload runs.
//
//   reclaim-grace-period
//       The epoch-reclamation handshake from ruco/reclaim/ebr.h: a reader
//       pins (slot store, seq_cst fence), loads the root with acquire and
//       reads the view behind it, then unpins; a reclaimer unlinks the
//       view with the snapshot's seq_cst CAS, issues its seq_cst fence and
//       frees the
//       view (a plain write) only if it finds the slot unpinned.  The
//       epoch counter between the two sides is abstracted away: one slot
//       check stands for the grace period.  Invariant: the free never
//       races the read.
//
// Four more kernels check the loop's seq_cst sites, over 8-ary and binary
// nodes, against the store-buffering execution that acquire/release
// allows (they are not part of protocol_kernels()):
//
//   propagate-wide
//       One node over three leaves, one increment per leaf, the wide
//       loop's view instantiation (conditional double refresh, no skip).
//       Invariants: no lost increment (final node == 3), monotone node.
//
//   propagate-wide/skip
//       The same with the Value-cell instantiation's no-change skip (the
//       f-array counter's loop).
//
//   propagate-counter/repeat
//       The loop on a 2-leaf binary tree where one writer increments
//       twice and the other once.  Invariants: final node == 3, monotone
//       node.  At release/acquire it loses an increment.
//
//   propagate-max/repeat
//       The loop with Algorithm A's max on a 2-leaf tree: owner A
//       writes 1 then 2, owner B writes 3.  Invariants: final node == 3,
//       monotone node.  At release/acquire it loses B's write (final 2).
//
// mutation_sites() weakens each load-bearing mo_* use-site one at a
// time; run_mutation_driver() asserts the explorer exhibits a concrete
// violating execution for every one of them -- machine-proving the
// order table sound *and* minimal.  The loop's node load weakened to
// relaxed (an early hot-path regression on the binary tree) is a
// permanently pinned must-fail site.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ruco/maxreg/refresh_policy.h"
#include "ruco/runtime/memorder.h"
#include "ruco/wmm/explore.h"

namespace ruco::wmm {

/// Per-site orders of the propagation protocol, defaulting to the shipped
/// ones (ruco/farray/wide_propagate.h): seq_cst at
/// the leaf store, the node load, the child loads and the success CAS,
/// relaxed on CAS failure.  Those are literal, not mo_*: they are already
/// the strongest, so every build checks the same protocol.  The root read
/// is `runtime::mo_acquire`, so a RUCO_SEQCST_ATOMICS build checks its
/// collapsed order.
struct PropagateOrders {
  std::memory_order leaf_store = std::memory_order_seq_cst;
  std::memory_order node_load = std::memory_order_seq_cst;
  std::memory_order child_load = std::memory_order_seq_cst;
  std::memory_order cas_ok = std::memory_order_seq_cst;
  std::memory_order cas_fail = std::memory_order_relaxed;
  std::memory_order root_read = runtime::mo_acquire;
};

/// The release/acquire orders Algorithm A's binary tree propagated with
/// before the four sites became seq_cst: release leaf store and success
/// CAS, acquire node and child loads.  Kept to pin the store-buffering
/// executions they allow.
PropagateOrders release_acquire_orders();

/// Per-site orders of the MCAS descriptor-publication pattern,
/// mirroring src/kcas/mcas.cpp.
struct McasOrders {
  std::memory_order install_ok = runtime::mo_acq_rel;
  std::memory_order install_fail = runtime::mo_acquire;
  std::memory_order cell_load = runtime::mo_acquire;
  std::memory_order status_decide = runtime::mo_acq_rel;
  std::memory_order status_decide_fail = runtime::mo_acquire;
  std::memory_order status_read = runtime::mo_acquire;
  std::memory_order release_ok = runtime::mo_release;  // phase-2 release CAS
  std::memory_order resolve_status_load = runtime::mo_acquire;  // read()
};

/// Per-site orders of the reclamation handshake, mirroring
/// ruco/reclaim/ebr.h (pin, seal, advance) and the f-array snapshot's
/// scan root load and propagate CAS.  All literal: ebr.h does not route
/// its orders through memorder.h, the CAS is seq_cst in every build, and
/// the root load is checked at its hand-tuned order even when
/// RUCO_SEQCST_ATOMICS strengthens it in production (which can only
/// remove executions), so every build checks -- and mutates -- the same
/// handshake.
struct ReclaimOrders {
  std::memory_order pin_store = std::memory_order_release;
  std::memory_order pin_fence = std::memory_order_seq_cst;
  std::memory_order root_load = std::memory_order_acquire;
  std::memory_order unpin_store = std::memory_order_release;
  std::memory_order unlink_cas = std::memory_order_seq_cst;
  std::memory_order reclaim_fence = std::memory_order_seq_cst;
  std::memory_order slot_load = std::memory_order_acquire;
};

struct Kernel {
  std::string name;
  std::string description;
  Program program;
  Invariant invariant;
};

Kernel make_propagate_counter_kernel(maxreg::RefreshPolicy policy,
                                     const PropagateOrders& o = {});
Kernel make_propagate_snapshot_kernel(const PropagateOrders& o = {});
/// `no_change_skip` selects the Value-cell instantiation of the wide loop
/// (propagate-wide/skip); without it the kernel is the view instantiation,
/// which always CASes (propagate-wide).
Kernel make_propagate_wide_kernel(const PropagateOrders& o = {},
                                  bool no_change_skip = false);
/// Release/acquire orders lose an increment here; the shipped ones do not.
Kernel make_propagate_repeat_kernel(const PropagateOrders& o = {});
/// Algorithm A's max on a 2-leaf tree: release/acquire orders lose the
/// larger write here; the shipped ones do not.
Kernel make_propagate_max_repeat_kernel(const PropagateOrders& o = {});
Kernel make_root_read_kernel(const PropagateOrders& o = {});
Kernel make_leaf_handoff_kernel(const PropagateOrders& o = {});
Kernel make_mcas_publication_kernel(const McasOrders& o = {});
Kernel make_mcas_resolving_read_kernel(const McasOrders& o = {});
Kernel make_reclaim_grace_period_kernel(const ReclaimOrders& o = {});

/// All kernels at the shipped orders.  The acceptance bar: zero
/// violations, search complete.
std::vector<Kernel> protocol_kernels();

/// Explore a kernel with its invariant installed.
ExploreResult check_kernel(const Kernel& kernel,
                           std::size_t max_violations = 4);

struct MutationSite {
  std::string id;    // "<kernel>:<site> <shipped>-><weakened>"
  std::string note;  // the bug class this weakening reintroduces
  bool pr4_regression = false;
  std::function<Kernel()> make;
};

std::vector<MutationSite> mutation_sites();

/// The reclamation handshake's sites (reclaim-grace-period kernel).  Kept
/// out of mutation_sites(), whose count the repository benchmark's verify
/// workload pins; rucosim wmm and wmm_test run both lists.
std::vector<MutationSite> reclaim_mutation_sites();

/// The resolving read's sites (mcas-resolving-read kernel), kept out of
/// mutation_sites() for the same reason; rucosim wmm and wmm_test run them.
std::vector<MutationSite> mcas_read_mutation_sites();

/// The loops' four seq_cst sites, each weakened alone to its
/// release/acquire order, in propagate-wide, propagate-wide/skip and
/// propagate-counter/repeat.  Kept out of mutation_sites() for the same
/// reason; rucosim wmm and wmm_test run them.
std::vector<MutationSite> wide_mutation_sites();

struct MutationOutcome {
  std::string id;
  std::string note;
  bool pr4_regression = false;
  std::uint64_t violation_count = 0;
  std::string sample_kind;     // kind of the first violation found
  std::string sample_message;
  std::string sample_dump;     // rendered violating execution
  bool found() const { return violation_count > 0; }
};

/// Weakens every site and collects what the explorer finds.  Every
/// outcome must report found() == true.
std::vector<MutationOutcome> run_mutation_driver(
    const std::vector<MutationSite>& sites);
/// The driver over mutation_sites().
std::vector<MutationOutcome> run_mutation_driver();

}  // namespace ruco::wmm
