#include "ruco/wmm/kernels.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ruco/maxreg/refresh_policy.h"

namespace ruco::wmm {

namespace {

// Invariant helper: every plain load in the graph observed the value
// its location publishes (42 for F-style fields, 9 for G, 1 for payload
// versions) -- a mismatch is a torn/stale read that slipped past the
// race detector, which by construction cannot happen; the race detector
// itself reports the interesting executions.  Kept as a belt-and-braces
// second condition.
std::string check_plain_reads(const Graph& g, LocId loc, Value expected) {
  for (const Event& e : g.events()) {
    if (e.kind != EventKind::kPlainLoad || e.loc != loc) continue;
    if (e.value_read != expected) {
      std::ostringstream out;
      out << "stale plain read of '" << g.locations()[loc].name << "': got "
          << e.value_read << ", published value is " << expected;
      return out.str();
    }
  }
  return "";
}

std::string check_monotone(const Graph& g, LocId loc) {
  const auto vals = g.mo_values(loc);
  for (std::size_t i = 0; i + 1 < vals.size(); ++i) {
    if (vals[i + 1] < vals[i]) {
      std::ostringstream out;
      out << "monotonicity regression on '" << g.locations()[loc].name
          << "': modification order writes " << vals[i] << " then "
          << vals[i + 1];
      return out.str();
    }
  }
  return "";
}

Value sum(Value l, Value r) { return l + r; }
Value max_of(Value l, Value r) { return l > r ? l : r; }

// One PropagateKernel: a node over writes.size() leaves, one thread per
// leaf storing its script in turn, each store followed by the loop.
struct PropagateRow {
  const char* name;
  const char* description;
  std::vector<std::vector<Value>> writes;  // per leaf
  Value (*combine)(Value, Value);
  maxreg::RefreshPolicy policy;
  bool skip;  // the no-change skip: Value cells take it, views never do
  Value expected;       // the node's final value
};

const PropagateRow& propagate_row(PropagateKernel which) {
  using maxreg::RefreshPolicy;
  static const PropagateRow kRows[] = {
      {"propagate-counter/conditional",
       "the propagation loop on a 2-leaf binary tree, two concurrent "
       "increments",
       {{1}, {1}}, sum, RefreshPolicy::kConditional, true, 2},
      {"propagate-counter/always-twice",
       "the propagation loop on a 2-leaf binary tree, two concurrent "
       "increments",
       {{1}, {1}}, sum, RefreshPolicy::kAlwaysTwice, false, 2},
      {"propagate-wide",
       "the wide propagation's view instantiation: one node over three "
       "leaves, one increment per leaf",
       {{1}, {1}, {1}}, sum, RefreshPolicy::kConditional, false, 3},
      {"propagate-wide/skip",
       "the wide propagation's Value-cell instantiation: one node over "
       "three leaves, one increment per leaf, no-change skip",
       {{1}, {1}, {1}}, sum, RefreshPolicy::kConditional, true, 3},
      {"propagate-counter/repeat",
       "the propagation loop on a 2-leaf binary tree: one writer increments "
       "twice, the other once",
       {{1, 2}, {1}}, sum, RefreshPolicy::kConditional, true, 3},
      {"propagate-max/repeat",
       "the propagation loop with Algorithm A's max on a 2-leaf tree: one "
       "owner writes 1 then 2, the other writes 3",
       {{1, 2}, {3}}, max_of, RefreshPolicy::kConditional, true, 3},
  };
  return kRows[static_cast<std::size_t>(which)];
}

// make_propagate_kernel for one row, in the shape add_site takes.
auto propagate_maker(PropagateKernel which) {
  return [which](const PropagateOrders& o) {
    return make_propagate_kernel(which, o);
  };
}

// Appends the mutation site that weakens `field` of the shipped orders
// to `weaker` in the kernel `make` builds.
template <class Orders, class Make>
void add_site(std::vector<MutationSite>& out, std::string id,
              std::string note, Make make, std::memory_order Orders::*field,
              std::memory_order weaker, bool pr4_regression = false) {
  out.push_back(MutationSite{std::move(id), std::move(note), pr4_regression,
                             [make, field, weaker] {
                               Orders o;
                               o.*field = weaker;
                               return make(o);
                             }});
}

}  // namespace

Kernel make_propagate_kernel(PropagateKernel which, const PropagateOrders& o) {
  const PropagateRow& row = propagate_row(which);
  Kernel k;
  k.name = row.name;
  k.description = row.description;
  const auto node = k.program.atomic<Value>("node", 0);  // loc 0
  std::vector<Atomic<Value>> leaves;                     // locs 1, 2, ...
  for (std::size_t i = 0; i < row.writes.size(); ++i) {
    std::string name = "l";
    name += std::to_string(i);
    leaves.push_back(k.program.atomic<Value>(name, 0));
  }
  // farray::propagate_wide (ruco/farray/wide_propagate.h): load the node,
  // load the children in order and combine them, skip an unchanged node
  // if the row takes the skip, CAS; a won CAS ends a conditional refresh.
  const auto propagate = [=, combine = row.combine,
                          conditional = row.policy ==
                                        maxreg::RefreshPolicy::kConditional,
                          skip = row.skip] {
    for (int round = 0; round < 2; ++round) {
      Value old_v = node.load(o.node_load);
      Value nv = leaves[0].load(o.child_load);
      for (std::size_t i = 1; i < leaves.size(); ++i) {
        nv = combine(nv, leaves[i].load(o.child_load));
      }
      if (skip && nv == old_v) break;
      if (node.compare_exchange_strong(old_v, nv, o.cas_ok, o.cas_fail) &&
          conditional) {
        break;  // won CAS: inputs read after our update, node covers us
      }
    }
  };
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    k.program.thread([=, leaf = leaves[i], writes = row.writes[i]] {
      for (const Value v : writes) {
        leaf.store(v, o.leaf_store);
        propagate();
      }
    });
  }
  k.invariant = [expected = row.expected](const Graph& g) -> std::string {
    if (auto msg = check_monotone(g, 0); !msg.empty()) return msg;
    if (g.final_value(0) != expected) {
      return "lost update: final node value " +
             std::to_string(g.final_value(0)) + ", expected " +
             std::to_string(expected);
    }
    return "";
  };
  return k;
}

PropagateOrders release_acquire_orders() {
  PropagateOrders o;
  o.leaf_store = std::memory_order_release;
  o.node_load = std::memory_order_acquire;
  o.child_load = std::memory_order_acquire;
  o.cas_ok = std::memory_order_release;
  o.cas_fail = std::memory_order_relaxed;
  return o;
}

Kernel make_propagate_snapshot_kernel(const PropagateOrders& o) {
  Kernel k;
  k.name = "propagate-snapshot";
  k.description =
      "the f-array snapshot's propagation over pointer-carrying leaves: "
      "payload published before the leaf store, dereferenced behind the "
      "child load";
  auto node = k.program.atomic<Value>("node", 0);  // loc 0
  auto l0 = k.program.atomic<Value>("l0", 0);      // loc 1
  auto l1 = k.program.atomic<Value>("l1", 0);      // loc 2
  auto p0 = k.program.plain<Value>("p0", 0);       // loc 3
  auto p1 = k.program.plain<Value>("p1", 0);       // loc 4
  // Single refresh round: the publication property under test does not
  // need the double-refresh (that coverage is propagate-wide's).
  auto writer = [=](Plain<Value> pay, Atomic<Value> leaf) {
    return [=] {
      pay.store(1);               // the "snapshot view" behind the leaf
      leaf.store(1, o.leaf_store);
      Value old_v = node.load(o.node_load);
      const Value lv = l0.load(o.child_load);
      const Value rv = l1.load(o.child_load);
      if (lv == 1) observe(p0.load());  // dereference published views
      if (rv == 1) observe(p1.load());
      // A merged view is a fresh pointer, so it is always CASed.
      node.compare_exchange_strong(old_v, lv + rv, o.cas_ok, o.cas_fail);
    };
  };
  k.program.thread(writer(p0, l0));
  k.program.thread(writer(p1, l1));
  k.invariant = [](const Graph& g) -> std::string {
    if (auto msg = check_plain_reads(g, 3, 1); !msg.empty()) return msg;
    return check_plain_reads(g, 4, 1);
  };
  return k;
}

Kernel make_root_read_kernel(const PropagateOrders& o) {
  Kernel k;
  k.name = "root-read";
  k.description =
      "TreeMaxRegister read fast path: acquire root load justifies a "
      "plain read of data published before the install CAS";
  auto root = k.program.atomic<Value>("root", 0);  // loc 0
  auto leaf = k.program.atomic<Value>("leaf", 0);  // loc 1
  auto pay = k.program.plain<Value>("pay", 0);     // loc 2
  k.program.thread([=] {
    pay.store(1);
    leaf.store(1, o.leaf_store);
    Value old_v = root.load(o.node_load);
    const Value lv = leaf.load(o.child_load);
    if (lv != old_v) {
      root.compare_exchange_strong(old_v, lv, o.cas_ok, o.cas_fail);
    }
  });
  k.program.thread([=] {
    const Value v = root.load(o.root_read);
    observe(v);
    if (v == 1) observe(pay.load());
  });
  k.invariant = [](const Graph& g) -> std::string {
    return check_plain_reads(g, 2, 1);
  };
  return k;
}

Kernel make_leaf_handoff_kernel(const PropagateOrders& o) {
  Kernel k;
  k.name = "leaf-handoff";
  k.description =
      "leaf-store -> propagate handoff: a helper observes the released "
      "leaf and completes the propagation for the writer";
  auto root = k.program.atomic<Value>("root", 0);  // loc 0
  auto leaf = k.program.atomic<Value>("leaf", 0);  // loc 1
  auto pay = k.program.plain<Value>("pay", 0);     // loc 2
  k.program.thread([=] {
    pay.store(1);
    leaf.store(1, o.leaf_store);
  });
  k.program.thread([=] {
    const Value lv = leaf.load(o.child_load);
    observe(lv);
    if (lv == 1) {
      observe(pay.load());
      Value old_v = root.load(o.node_load);
      root.compare_exchange_strong(old_v, lv, o.cas_ok, o.cas_fail);
    }
  });
  k.invariant = [](const Graph& g) -> std::string {
    if (auto msg = check_plain_reads(g, 2, 1); !msg.empty()) return msg;
    // If the helper saw the leaf, the handoff must land: final root 1.
    for (const Event& e : g.events()) {
      if (e.thread == 1 && e.kind == EventKind::kLoad && e.loc == 1 &&
          e.value_read == 1 && g.final_value(0) != 1) {
        return "handoff dropped: helper saw the leaf but the root stayed " +
               std::to_string(g.final_value(0));
      }
    }
    return "";
  };
  return k;
}

Kernel make_mcas_publication_kernel(const McasOrders& o) {
  constexpr Value kDesc = 7;       // "pointer to" the descriptor
  constexpr Value kSucceeded = 1;  // status value
  Kernel k;
  k.name = "mcas-publication";
  k.description =
      "MCAS descriptor publication (kcas/mcas.cpp): plain descriptor "
      "fields published by the install CAS and read behind an acquire "
      "cell load (by helpers and by read()'s resolving path), helper "
      "result published back by the status decide CAS";
  auto cell = k.program.atomic<Value>("cell", 0);      // loc 0
  auto status = k.program.atomic<Value>("status", 0);  // loc 1
  auto field = k.program.plain<Value>("field", 0);     // loc 2: owner-written
  auto result = k.program.plain<Value>("result", 0);   // loc 3: helper-written
  k.program.thread([=] {
    // Owner: fill the descriptor, install it, then read the outcome.
    field.store(42);
    Value e = 0;
    cell.compare_exchange_strong(e, kDesc, o.install_ok, o.install_fail);
    const Value s = status.load(o.status_read);
    observe(s);
    if (s == kSucceeded) observe(result.load());
  });
  k.program.thread([=] {
    // Helper: sees the descriptor through the cell, reads its fields,
    // writes its contribution, then decides the status.
    const Value c = cell.load(o.cell_load);
    observe(c);
    if (c == kDesc) {
      observe(field.load());
      result.store(9);
      Value e = 0;
      status.compare_exchange_strong(e, kSucceeded, o.status_decide,
                                     o.status_decide_fail);
    }
  });
  k.invariant = [](const Graph& g) -> std::string {
    if (auto msg = check_plain_reads(g, 2, 42); !msg.empty()) return msg;
    return check_plain_reads(g, 3, 9);
  };
  return k;
}

Kernel make_mcas_resolving_read_kernel(const McasOrders& o) {
  constexpr Value kDesc = 7;       // "pointer to" the descriptor
  constexpr Value kSucceeded = 1;  // status value
  constexpr Value kNew = 1;        // both words go 0 -> 1
  constexpr LocId kStatus = 2;
  Kernel k;
  k.name = "mcas-resolving-read";
  k.description =
      "McasArray::read (kcas/mcas.cpp) resolving both words of a 2-word "
      "MCAS without helping: a SUCCEEDED status must show every word's "
      "acquisition";
  auto c0 = k.program.atomic<Value>("c0", 0);                  // loc 0
  auto c1 = k.program.atomic<Value>("c1", 0);                  // loc 1
  auto status = k.program.atomic<Value>("status", 0);          // loc 2
  k.program.thread([=] {
    // Owner: acquire both words, decide, release both words.
    for (Atomic<Value> cell : {c0, c1}) {
      Value e = 0;
      cell.compare_exchange_strong(e, kDesc, o.install_ok, o.install_fail);
    }
    Value e = 0;
    status.compare_exchange_strong(e, kSucceeded, o.status_decide,
                                   o.status_decide_fail);
    for (Atomic<Value> cell : {c0, c1}) {
      Value d = kDesc;
      cell.compare_exchange_strong(d, kNew, o.release_ok,
                                   std::memory_order_relaxed);
    }
  });
  k.program.thread([=] {
    // Reader: word 0, then word 1, each resolved through the status.
    for (Atomic<Value> cell : {c0, c1}) {
      Value v = cell.load(o.cell_load);
      if (v == kDesc) {
        v = status.load(o.resolve_status_load) == kSucceeded ? kNew : 0;
      }
      observe(v);
    }
  });
  k.invariant = [](const Graph& g) -> std::string {
    // Replay the reader's resolutions from its loads in program order.
    std::vector<const Event*> loads;
    for (const Event& e : g.events()) {
      if (e.thread == 1 && e.kind == EventKind::kLoad) loads.push_back(&e);
    }
    std::sort(loads.begin(), loads.end(), [](const Event* a, const Event* b) {
      return a->index < b->index;
    });
    std::vector<Value> resolved;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      Value v = loads[i]->value_read;
      if (v == kDesc && i + 1 < loads.size() &&
          loads[i + 1]->loc == kStatus) {
        v = loads[++i]->value_read == kSucceeded ? kNew : 0;
      }
      resolved.push_back(v);
    }
    if (resolved.size() == 2 && resolved[0] == kNew && resolved[1] == 0) {
      return "torn MCAS read: word 0 read after the operation, word 1 "
             "before it";
    }
    return "";
  };
  return k;
}

Kernel make_reclaim_grace_period_kernel(const ReclaimOrders& o) {
  constexpr Value kOld = 1;     // "pointer to" the view being retired
  constexpr Value kNew = 2;     // its replacement
  constexpr Value kPinned = 1;  // slot value while the reader is pinned
  constexpr Value kFreed = 99;  // what the free writes over the view
  Kernel k;
  k.name = "reclaim-grace-period";
  k.description =
      "epoch reclamation (reclaim/ebr.h): pin fence vs unlink fence, the "
      "free of an unlinked view never races a pinned reader";
  auto root = k.program.atomic<Value>("root", kOld);  // loc 0
  auto slot = k.program.atomic<Value>("slot", 0);     // loc 1
  auto view = k.program.plain<Value>("view", 42);     // loc 2
  k.program.thread([=] {
    // Reader (FArraySnapshot::scan): pin, load the root, read its view,
    // unpin.
    slot.store(kPinned, o.pin_store);
    fence(o.pin_fence);
    const Value r = root.load(o.root_load);
    observe(r);
    if (r == kOld) observe(view.load());
    slot.store(0, o.unpin_store);
  });
  k.program.thread([=] {
    // Reclaimer: unlink (the propagate CAS), then the seal/advance fence
    // and slot check; an unpinned slot ends the grace period.
    Value e = kOld;
    root.compare_exchange_strong(e, kNew, o.unlink_cas,
                                 std::memory_order_relaxed);
    fence(o.reclaim_fence);
    const Value s = slot.load(o.slot_load);
    observe(s);
    if (s == 0) view.store(kFreed);
  });
  k.invariant = [](const Graph& g) -> std::string {
    return check_plain_reads(g, 2, 42);
  };
  return k;
}

std::vector<Kernel> protocol_kernels() {
  std::vector<Kernel> out;
  out.push_back(make_propagate_kernel(PropagateKernel::kCounterConditional));
  out.push_back(make_propagate_kernel(PropagateKernel::kCounterAlwaysTwice));
  out.push_back(make_propagate_snapshot_kernel());
  out.push_back(make_root_read_kernel());
  out.push_back(make_leaf_handoff_kernel());
  out.push_back(make_mcas_publication_kernel());
  out.push_back(make_reclaim_grace_period_kernel());
  return out;
}

ExploreResult check_kernel(const Kernel& kernel, std::size_t max_violations) {
  ExploreOptions opts;
  opts.invariant = kernel.invariant;
  opts.max_violations = max_violations;
  return explore(kernel.program, opts);
}

std::vector<MutationSite> mutation_sites() {
  using P = PropagateOrders;
  using M = McasOrders;
  constexpr auto kRelaxed = std::memory_order_relaxed;
  std::vector<MutationSite> out;

  for (const PropagateKernel which : {PropagateKernel::kCounterConditional,
                                      PropagateKernel::kCounterAlwaysTwice}) {
    const std::string kname = propagate_row(which).name;
    add_site(out, kname + ":node_load sc->rlx",
             "the PR-4 bug: a fresh node beside stale child loads lets the "
             "no-change skip drop a sibling's increment or the CAS regress "
             "the monotone aggregate",
             propagate_maker(which), &P::node_load, kRelaxed,
             /*pr4_regression=*/which == PropagateKernel::kCounterConditional);
    add_site(out, kname + ":cas_ok sc->rlx",
             "a relaxed installing CAS publishes nothing and leaves the SC "
             "order: the sibling's node load gets no synchronizes-with edge "
             "and its child loads may be stale",
             propagate_maker(which), &P::cas_ok, kRelaxed);
  }

  add_site(out, "propagate-snapshot:child_load sc->rlx",
           "a relaxed child load sees the leaf but not the payload written "
           "before it: torn snapshot view (data race)",
           make_propagate_snapshot_kernel, &P::child_load, kRelaxed);
  add_site(out, "propagate-snapshot:leaf_store sc->rlx",
           "a relaxed leaf store publishes nothing: the sibling dereferences "
           "an unpublished payload (data race)",
           make_propagate_snapshot_kernel, &P::leaf_store, kRelaxed);

  add_site(out, "root-read:root_read acq->rlx",
           "the read fast path sees the installed root but races the data "
           "published before the install",
           make_root_read_kernel, &P::root_read, kRelaxed);
  add_site(out, "root-read:cas_ok sc->rlx",
           "a relaxed install CAS gives the acquire fast-path load no "
           "release to synchronize with",
           make_root_read_kernel, &P::cas_ok, kRelaxed);

  add_site(out, "leaf-handoff:leaf_store sc->rlx",
           "the helper observes the leaf but races the writer's payload",
           make_leaf_handoff_kernel, &P::leaf_store, kRelaxed);
  add_site(out, "leaf-handoff:child_load sc->rlx",
           "a relaxed helper load discards the writer's release: payload "
           "race",
           make_leaf_handoff_kernel, &P::child_load, kRelaxed);

  add_site(out, "mcas-publication:install_ok acq_rel->rlx",
           "a relaxed install CAS publishes no descriptor fields: helpers "
           "read a torn descriptor",
           make_mcas_publication_kernel, &M::install_ok, kRelaxed);
  add_site(out, "mcas-publication:cell_load acq->rlx",
           "a relaxed helper cell load sees the descriptor pointer but races "
           "its fields",
           make_mcas_publication_kernel, &M::cell_load, kRelaxed);
  add_site(out, "mcas-publication:status_decide acq_rel->rlx",
           "a relaxed decide CAS publishes no helper-side writes: the owner "
           "races the helper's result",
           make_mcas_publication_kernel, &M::status_decide, kRelaxed);
  add_site(out, "mcas-publication:status_read acq->rlx",
           "a relaxed owner status load discards the decide CAS's release: "
           "result race",
           make_mcas_publication_kernel, &M::status_read, kRelaxed);

  return out;
}

std::vector<MutationSite> reclaim_mutation_sites() {
  using R = ReclaimOrders;
  std::vector<MutationSite> out;
  add_site(out, "reclaim-grace-period:pin_fence sc->acq_rel",
           "without the seq_cst pin fence the reader's root load may miss "
           "the unlink while the reclaimer misses the pin (store "
           "buffering): the free races the read of a view the reader still "
           "holds",
           make_reclaim_grace_period_kernel, &R::pin_fence,
           std::memory_order_acq_rel);
  add_site(out, "reclaim-grace-period:reclaim_fence sc->acq_rel",
           "without the seq_cst fence after the unlink the epoch/slot check "
           "may miss the pin while the reader misses the unlink (store "
           "buffering)",
           make_reclaim_grace_period_kernel, &R::reclaim_fence,
           std::memory_order_acq_rel);
  add_site(out, "reclaim-grace-period:slot_load acq->rlx",
           "a relaxed slot load sees the unpin but not the reads before it: "
           "the free races the reader's last read",
           make_reclaim_grace_period_kernel, &R::slot_load,
           std::memory_order_relaxed);
  add_site(out, "reclaim-grace-period:unpin_store rel->rlx",
           "a relaxed unpin publishes nothing: the reclaimer that sees it "
           "frees under the reader's read",
           make_reclaim_grace_period_kernel, &R::unpin_store,
           std::memory_order_relaxed);
  return out;
}

std::vector<MutationSite> mcas_read_mutation_sites() {
  std::vector<MutationSite> out;
  add_site(out, "mcas-resolving-read:resolve_status_load acq->rlx",
           "a relaxed status load can see SUCCEEDED without the acquisition "
           "of the other word: the next read returns that word's old value",
           make_mcas_resolving_read_kernel, &McasOrders::resolve_status_load,
           std::memory_order_relaxed);
  add_site(out, "mcas-resolving-read:release_ok rel->rlx",
           "a relaxed phase-2 release publishes a word's new value without "
           "the acquisition of the other: the next read returns its old "
           "value",
           make_mcas_resolving_read_kernel, &McasOrders::release_ok,
           std::memory_order_relaxed);
  return out;
}

std::vector<MutationSite> wide_mutation_sites() {
  struct Weakening {
    const char* site;
    const char* note;
    std::memory_order PropagateOrders::*field;
    std::memory_order weaker;
  };
  static constexpr Weakening kWeakenings[] = {
      {"leaf_store sc->rel",
       "a release leaf store can wait in the store buffer while its owner "
       "refreshes: a third refresher installs a merge without it after the "
       "owner's CAS lost",
       &PropagateOrders::leaf_store, std::memory_order_release},
      {"node_load sc->acq",
       "an acquire node load leaves the SC order: the owner's load can pass "
       "its own leaf store, and the refresh that beats it reads the leaf "
       "before the store",
       &PropagateOrders::node_load, std::memory_order_acquire},
      {"child_load sc->acq",
       "acquire child loads leave the SC order: a refresher that loaded "
       "the node after the owner's lost CAS can still read the owner's "
       "leaf before its store",
       &PropagateOrders::child_load, std::memory_order_acquire},
      {"cas_ok sc->rel",
       "a release CAS leaves the SC order: the node value a refresher loads "
       "no longer orders its child loads after the owner's leaf store",
       &PropagateOrders::cas_ok, std::memory_order_release},
  };
  std::vector<MutationSite> out;
  for (const Weakening& w : kWeakenings) {
    for (const PropagateKernel which :
         {PropagateKernel::kWide, PropagateKernel::kWideSkip,
          PropagateKernel::kCounterRepeat}) {
      add_site(out, std::string{propagate_row(which).name} + ":" + w.site,
               w.note, propagate_maker(which), w.field, w.weaker);
    }
  }
  return out;
}

std::vector<MutationOutcome> run_mutation_driver() {
  return run_mutation_driver(mutation_sites());
}

std::vector<MutationOutcome> run_mutation_driver(
    const std::vector<MutationSite>& sites) {
  std::vector<MutationOutcome> out;
  for (const MutationSite& site : sites) {
    const Kernel kernel = site.make();
    const ExploreResult res = check_kernel(kernel, /*max_violations=*/1);
    MutationOutcome mo;
    mo.id = site.id;
    mo.note = site.note;
    mo.pr4_regression = site.pr4_regression;
    mo.violation_count = res.violation_count;
    if (!res.violations.empty()) {
      mo.sample_kind = res.violations.front().kind;
      mo.sample_message = res.violations.front().message;
      mo.sample_dump = res.violations.front().dump;
    }
    out.push_back(std::move(mo));
  }
  return out;
}

}  // namespace ruco::wmm
