#include "ruco/wmm/kernels.h"

#include <algorithm>
#include <sstream>
#include <utility>

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

// Appends one mutation site to `out`.
void add_site(std::vector<MutationSite>& out, std::string id,
              std::string note, std::function<Kernel()> make) {
  MutationSite site;
  site.id = std::move(id);
  site.note = std::move(note);
  site.make = std::move(make);
  out.push_back(std::move(site));
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

}  // namespace

Kernel make_propagate_counter_kernel(maxreg::RefreshPolicy policy,
                                     const PropagateOrders& o) {
  const bool conditional = policy == maxreg::RefreshPolicy::kConditional;
  Kernel k;
  k.name = conditional ? "propagate-counter/conditional"
                       : "propagate-counter/always-twice";
  k.description =
      "propagate_twice on a 2-leaf tree, two concurrent increments";
  auto node = k.program.atomic<Value>("node", 0);  // loc 0
  auto l0 = k.program.atomic<Value>("l0", 0);      // loc 1
  auto l1 = k.program.atomic<Value>("l1", 0);      // loc 2
  // One writer per leaf: store the increment, then the propagate loop
  // transcribed from ruco/maxreg/propagate.h (combine = sum).
  auto writer = [=](Atomic<Value> leaf) {
    return [=] {
      leaf.store(1, o.leaf_store);
      for (int round = 0; round < 2; ++round) {
        Value old_v = node.load(o.node_load);
        const Value lv = l0.load(o.child_load);
        const Value rv = l1.load(o.child_load);
        const Value nv = lv + rv;
        if (conditional && nv == old_v) break;  // no-change skip
        if (node.compare_exchange_strong(old_v, nv, o.cas_ok, o.cas_fail) &&
            conditional) {
          break;  // won CAS: inputs read after our update, node covers us
        }
      }
    };
  };
  k.program.thread(writer(l0));
  k.program.thread(writer(l1));
  k.invariant = [](const Graph& g) -> std::string {
    if (auto msg = check_monotone(g, 0); !msg.empty()) return msg;
    if (g.final_value(0) != 2) {
      std::ostringstream out;
      out << "lost increment: final node value " << g.final_value(0)
          << ", expected 2";
      return out.str();
    }
    return "";
  };
  return k;
}

Kernel make_propagate_snapshot_kernel(const PropagateOrders& o) {
  Kernel k;
  k.name = "propagate-snapshot";
  k.description =
      "propagation over pointer-carrying leaves: payload published "
      "before the leaf store, dereferenced behind the child load";
  auto node = k.program.atomic<Value>("node", 0);  // loc 0
  auto l0 = k.program.atomic<Value>("l0", 0);      // loc 1
  auto l1 = k.program.atomic<Value>("l1", 0);      // loc 2
  auto p0 = k.program.plain<Value>("p0", 0);       // loc 3
  auto p1 = k.program.plain<Value>("p1", 0);       // loc 4
  // Single refresh round: the publication property under test does not
  // need the double-refresh (that coverage is the counter kernel's).
  auto writer = [=](Plain<Value> pay, Atomic<Value> leaf) {
    return [=] {
      pay.store(1);               // the "snapshot view" behind the leaf
      leaf.store(1, o.leaf_store);
      Value old_v = node.load(o.node_load);
      const Value lv = l0.load(o.child_load);
      const Value rv = l1.load(o.child_load);
      if (lv == 1) observe(p0.load());  // dereference published views
      if (rv == 1) observe(p1.load());
      const Value nv = lv + rv;
      if (nv != old_v) {
        node.compare_exchange_strong(old_v, nv, o.cas_ok, o.cas_fail);
      }
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
  out.push_back(
      make_propagate_counter_kernel(maxreg::RefreshPolicy::kConditional));
  out.push_back(
      make_propagate_counter_kernel(maxreg::RefreshPolicy::kAlwaysTwice));
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
  using maxreg::RefreshPolicy;
  std::vector<MutationSite> out;

  auto add = [&](std::string id, std::string note, bool pr4,
                 std::function<Kernel()> make) {
    out.push_back(MutationSite{std::move(id), std::move(note), pr4,
                               std::move(make)});
  };

  for (const RefreshPolicy policy :
       {RefreshPolicy::kConditional, RefreshPolicy::kAlwaysTwice}) {
    const bool conditional = policy == RefreshPolicy::kConditional;
    const std::string kname = conditional
                                  ? "propagate-counter/conditional"
                                  : "propagate-counter/always-twice";
    add(kname + ":node_load acq->rlx",
        "the PR-4 bug: a fresh node beside stale child loads lets the "
        "no-change skip drop a sibling's increment or the CAS regress "
        "the monotone aggregate",
        /*pr4=*/conditional, [policy] {
          PropagateOrders o;
          o.node_load = std::memory_order_relaxed;
          return make_propagate_counter_kernel(policy, o);
        });
    add(kname + ":cas_ok rel->rlx",
        "without the release the installing CAS publishes nothing: the "
        "sibling's acquire node load gets no synchronizes-with edge and "
        "its child loads may be stale",
        /*pr4=*/false, [policy] {
          PropagateOrders o;
          o.cas_ok = std::memory_order_relaxed;
          return make_propagate_counter_kernel(policy, o);
        });
  }

  add("propagate-snapshot:child_load acq->rlx",
      "a relaxed child load sees the leaf but not the payload written "
      "before it: torn snapshot view (data race)",
      /*pr4=*/false, [] {
        PropagateOrders o;
        o.child_load = std::memory_order_relaxed;
        return make_propagate_snapshot_kernel(o);
      });
  add("propagate-snapshot:leaf_store rel->rlx",
      "a relaxed leaf store publishes nothing: the sibling dereferences "
      "an unpublished payload (data race)",
      /*pr4=*/false, [] {
        PropagateOrders o;
        o.leaf_store = std::memory_order_relaxed;
        return make_propagate_snapshot_kernel(o);
      });

  add("root-read:root_read acq->rlx",
      "the read fast path sees the installed root but races the data "
      "published before the install",
      /*pr4=*/false, [] {
        PropagateOrders o;
        o.root_read = std::memory_order_relaxed;
        return make_root_read_kernel(o);
      });
  add("root-read:cas_ok rel->rlx",
      "a relaxed install CAS gives the acquire fast-path load no "
      "release to synchronize with",
      /*pr4=*/false, [] {
        PropagateOrders o;
        o.cas_ok = std::memory_order_relaxed;
        return make_root_read_kernel(o);
      });

  add("leaf-handoff:leaf_store rel->rlx",
      "the helper observes the leaf but races the writer's payload",
      /*pr4=*/false, [] {
        PropagateOrders o;
        o.leaf_store = std::memory_order_relaxed;
        return make_leaf_handoff_kernel(o);
      });
  add("leaf-handoff:child_load acq->rlx",
      "a relaxed helper load discards the writer's release: payload race",
      /*pr4=*/false, [] {
        PropagateOrders o;
        o.child_load = std::memory_order_relaxed;
        return make_leaf_handoff_kernel(o);
      });

  add("mcas-publication:install_ok acq_rel->rlx",
      "a relaxed install CAS publishes no descriptor fields: helpers "
      "read a torn descriptor",
      /*pr4=*/false, [] {
        McasOrders o;
        o.install_ok = std::memory_order_relaxed;
        return make_mcas_publication_kernel(o);
      });
  add("mcas-publication:cell_load acq->rlx",
      "a relaxed helper cell load sees the descriptor pointer but races "
      "its fields",
      /*pr4=*/false, [] {
        McasOrders o;
        o.cell_load = std::memory_order_relaxed;
        return make_mcas_publication_kernel(o);
      });
  add("mcas-publication:status_decide acq_rel->rlx",
      "a relaxed decide CAS publishes no helper-side writes: the owner "
      "races the helper's result",
      /*pr4=*/false, [] {
        McasOrders o;
        o.status_decide = std::memory_order_relaxed;
        return make_mcas_publication_kernel(o);
      });
  add("mcas-publication:status_read acq->rlx",
      "a relaxed owner status load discards the decide CAS's release: "
      "result race",
      /*pr4=*/false, [] {
        McasOrders o;
        o.status_read = std::memory_order_relaxed;
        return make_mcas_publication_kernel(o);
      });

  return out;
}

std::vector<MutationSite> reclaim_mutation_sites() {
  std::vector<MutationSite> out;
  add_site(out, "reclaim-grace-period:pin_fence sc->acq_rel",
      "without the seq_cst pin fence the reader's root load may miss the "
      "unlink while the reclaimer misses the pin (store buffering): the "
      "free races the read of a view the reader still holds",
      [] {
        ReclaimOrders o;
        o.pin_fence = std::memory_order_acq_rel;
        return make_reclaim_grace_period_kernel(o);
      });
  add_site(out, "reclaim-grace-period:reclaim_fence sc->acq_rel",
      "without the seq_cst fence after the unlink the epoch/slot check may "
      "miss the pin while the reader misses the unlink (store buffering)",
      [] {
        ReclaimOrders o;
        o.reclaim_fence = std::memory_order_acq_rel;
        return make_reclaim_grace_period_kernel(o);
      });
  add_site(out, "reclaim-grace-period:slot_load acq->rlx",
      "a relaxed slot load sees the unpin but not the reads before it: "
      "the free races the reader's last read",
      [] {
        ReclaimOrders o;
        o.slot_load = std::memory_order_relaxed;
        return make_reclaim_grace_period_kernel(o);
      });
  add_site(out, "reclaim-grace-period:unpin_store rel->rlx",
      "a relaxed unpin publishes nothing: the reclaimer that sees it "
      "frees under the reader's read",
      [] {
        ReclaimOrders o;
        o.unpin_store = std::memory_order_relaxed;
        return make_reclaim_grace_period_kernel(o);
      });
  return out;
}

std::vector<MutationSite> mcas_read_mutation_sites() {
  std::vector<MutationSite> out;
  add_site(out, "mcas-resolving-read:resolve_status_load acq->rlx",
      "a relaxed status load can see SUCCEEDED without the acquisition of "
      "the other word: the next read returns that word's old value",
      [] {
        McasOrders o;
        o.resolve_status_load = std::memory_order_relaxed;
        return make_mcas_resolving_read_kernel(o);
      });
  add_site(out, "mcas-resolving-read:release_ok rel->rlx",
      "a relaxed phase-2 release publishes a word's new value without the "
      "acquisition of the other: the next read returns its old value",
      [] {
        McasOrders o;
        o.release_ok = std::memory_order_relaxed;
        return make_mcas_resolving_read_kernel(o);
      });
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
