// Validation of the src/wmm axiomatic weak-memory model checker, and the
// machine-checked certification of the production memory orders:
//
//   1. Executor validation: the classic litmus battery (SB, MP, LB, CoRR,
//      IRIW, 2+2W, R, fenced SB, CAS duel) must reproduce the *exact*
//      RC11 allowed-outcome sets -- a missing or extra outcome is an
//      executor bug.
//   2. Cross-validation against the existing engines: for all-seq_cst
//      programs the RC11 explorer, the internal interleaving-SC oracle,
//      and the repo's sim model checker must agree on the reachable
//      outcome set (randomized straight-line programs).
//   3. Protocol kernels at the shipped orders: zero violations over
//      every RC11-consistent execution, search complete.
//   4. Mutation driver: weakening any load-bearing site must
//      exhibit a concrete violating execution -- including the PR-4
//      node-load acquire->relaxed bug of the propagation loop on a binary
//      node as a permanent must-fail regression.
//   5. Minimality: sites the order table deliberately does NOT
//      strengthen (counter-kernel child loads, CAS failure order) stay
//      clean when relaxed -- the table is sound *and* minimal.
//   6. RUCO_SEQCST_ATOMICS: every weak-behaviour litmus allowed at the
//      hand-tuned orders becomes forbidden when the constants collapse
//      to seq_cst (memorder.h's fallback claim, machine-verified).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ruco/sim/model_checker.h"
#include "ruco/sim/system.h"
#include "ruco/util/rng.h"
#include "ruco/wmm/explore.h"
#include "ruco/wmm/kernels.h"
#include "ruco/wmm/litmus.h"

namespace ruco {
namespace {

using wmm::PropagateKernel;
using OutcomeSet = std::set<std::vector<Value>>;

OutcomeSet as_set(const std::vector<std::vector<Value>>& outcomes) {
  return OutcomeSet(outcomes.begin(), outcomes.end());
}

std::string show(const OutcomeSet& outcomes) {
  std::string out;
  for (const auto& tuple : outcomes) {
    out += "(";
    for (Value v : tuple) out += std::to_string(v) + ",";
    out += ") ";
  }
  return out;
}

// ---------------------------------------------------------------- litmus

TEST(WmmLitmus, ClassicBatteryExactOutcomeSets) {
  for (const wmm::Litmus& lit : wmm::classic_battery()) {
    SCOPED_TRACE(lit.name);
    const wmm::ExploreResult res = wmm::explore(lit.program);
    EXPECT_TRUE(res.complete);
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.joint, as_set(lit.allowed))
        << "got:  " << show(res.joint)
        << "\nwant: " << show(as_set(lit.allowed));
  }
}

TEST(WmmLitmus, IriwForbiddenUnderScAllowedUnderRelAcq) {
  // The headline RC11 distinction, asserted directly (the battery covers
  // it via the full sets; this pins the specific claim).
  const std::vector<Value> weak = {1, 0, 1, 0, 1, 1};
  for (const wmm::Litmus& lit : wmm::classic_battery()) {
    if (lit.name == "IRIW+sc") {
      EXPECT_EQ(wmm::explore(lit.program).joint.count(weak), 0u);
    }
    if (lit.name == "IRIW+rel+acq") {
      EXPECT_EQ(wmm::explore(lit.program).joint.count(weak), 1u);
    }
  }
}

TEST(WmmLitmus, HandtunedBatteryMatchesActiveConfiguration) {
  // The mo_* batteries' `allowed` sets are computed for the compiled
  // configuration: weak outcomes present by default, gone under
  // RUCO_SEQCST_ATOMICS.
  for (const wmm::Litmus& lit : wmm::handtuned_battery()) {
    SCOPED_TRACE(lit.name);
    const wmm::ExploreResult res = wmm::explore(lit.program);
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(res.joint, as_set(lit.allowed))
        << "got:  " << show(res.joint)
        << "\nwant: " << show(as_set(lit.allowed));
    if (!lit.weak_outcome.has_value()) continue;
#if defined(RUCO_SEQCST_ATOMICS)
    EXPECT_EQ(res.joint.count(*lit.weak_outcome), 0u)
        << "weak behaviour survived the seq_cst collapse";
#else
    EXPECT_EQ(res.joint.count(*lit.weak_outcome), 1u)
        << "hand-tuned orders lost their (expected) weak behaviour";
#endif
  }
}

TEST(WmmLitmus, DataRaceDetected) {
  // Plain-location conflict without ordering is reported as a data race;
  // the release/acquire version of the same program is clean.
  for (const bool ordered : {false, true}) {
    wmm::Program prog;
    auto flag = prog.atomic<Value>("flag", 0);
    auto data = prog.plain<Value>("data", 0);
    const auto store_o =
        ordered ? std::memory_order_release : std::memory_order_relaxed;
    const auto load_o =
        ordered ? std::memory_order_acquire : std::memory_order_relaxed;
    prog.thread([=] {
      data.store(1);
      flag.store(1, store_o);
    });
    prog.thread([=] {
      if (flag.load(load_o) == 1) wmm::observe(data.load());
    });
    const wmm::ExploreResult res = wmm::explore(prog);
    if (ordered) {
      EXPECT_TRUE(res.ok());
    } else {
      ASSERT_FALSE(res.ok());
      EXPECT_EQ(res.violations.front().kind, "data-race");
      EXPECT_NE(res.violations.front().dump.find("rf="), std::string::npos)
          << "violation dumps must render reads-from edges";
    }
  }
}

// ------------------------------------------------------ cross-validation

struct RandOp {
  enum Kind : int { kLoad, kStore, kCas } kind = kLoad;
  std::uint32_t loc = 0;
  Value a = 0;  // store value / CAS expected
  Value b = 0;  // CAS desired
};

using RandProgram = std::vector<std::vector<RandOp>>;  // per thread

RandProgram random_program(std::uint64_t seed, std::uint32_t num_locs) {
  util::SplitMix64 rng{seed};
  RandProgram prog;
  const std::uint64_t threads = rng.range(2, 3);
  for (std::uint64_t t = 0; t < threads; ++t) {
    std::vector<RandOp> ops;
    const std::uint64_t n = rng.range(2, 3);
    for (std::uint64_t i = 0; i < n; ++i) {
      RandOp op;
      op.kind = static_cast<RandOp::Kind>(rng.below(3));
      op.loc = static_cast<std::uint32_t>(rng.below(num_locs));
      op.a = static_cast<Value>(rng.range(0, 2));
      op.b = static_cast<Value>(rng.range(1, 2));
      ops.push_back(op);
    }
    prog.push_back(std::move(ops));
  }
  return prog;
}

wmm::Program make_wmm_program(const RandProgram& spec,
                              std::uint32_t num_locs) {
  wmm::Program prog;
  std::vector<wmm::Atomic<Value>> locs;
  for (std::uint32_t l = 0; l < num_locs; ++l) {
    std::string name = "x";
    name += std::to_string(l);  // GCC 12 -O3 -Wrestrict misfires on "x" + ...
    locs.push_back(prog.atomic<Value>(name, 0));
  }
  for (const auto& ops : spec) {
    prog.thread([ops, locs] {
      for (const RandOp& op : ops) {
        switch (op.kind) {
          case RandOp::kLoad:
            wmm::observe(locs[op.loc].load(std::memory_order_seq_cst));
            break;
          case RandOp::kStore:
            locs[op.loc].store(op.a, std::memory_order_seq_cst);
            break;
          case RandOp::kCas: {
            Value e = op.a;
            wmm::observe(locs[op.loc].compare_exchange_strong(
                             e, op.b, std::memory_order_seq_cst,
                             std::memory_order_seq_cst)
                             ? 1
                             : 0);
            break;
          }
        }
      }
    });
  }
  return prog;
}

sim::Op sim_body(std::vector<RandOp> ops, std::vector<sim::ObjectId> objs,
                 sim::Ctx& ctx) {
  for (const RandOp& op : ops) {
    switch (op.kind) {
      case RandOp::kLoad:
        co_await ctx.read(objs[op.loc]);
        break;
      case RandOp::kStore:
        co_await ctx.write(objs[op.loc], op.a);
        break;
      case RandOp::kCas:
        co_await ctx.cas(objs[op.loc], op.a, op.b);
        break;
    }
  }
  co_return 0;
}

// Reachable joint outcomes (per-thread read/CAS results in program
// order, then final object values) under the sim model checker.
OutcomeSet sim_outcomes(const RandProgram& spec, std::uint32_t num_locs) {
  sim::Program prog;
  std::vector<sim::ObjectId> objs;
  for (std::uint32_t l = 0; l < num_locs; ++l) {
    objs.push_back(prog.add_object(0));
  }
  for (const auto& ops : spec) {
    prog.add_process([ops, objs](sim::Ctx& ctx) {
      return sim_body(ops, objs, ctx);
    });
  }
  OutcomeSet outcomes;
  const auto verdict = [&](const sim::System& sys) -> std::string {
    std::vector<Value> tuple;
    for (ProcId p = 0; p < prog.num_processes(); ++p) {
      for (const sim::Event& e : sys.trace()) {
        if (e.proc != p) continue;
        if (e.prim == sim::Prim::kRead || e.prim == sim::Prim::kCas) {
          tuple.push_back(e.observed);
        }
      }
    }
    for (sim::ObjectId o : objs) tuple.push_back(sys.value(o));
    outcomes.insert(std::move(tuple));
    return "";
  };
  const auto res = sim::model_check(prog, verdict);
  EXPECT_TRUE(res.ok) << res.message;
  EXPECT_TRUE(res.exhaustive);
  return outcomes;
}

TEST(WmmCrossValidation, Rc11EqualsInterleavingScOnSeqCstPrograms) {
  // For all-seq_cst programs the axiomatic semantics must collapse to
  // interleaving SC: same executions, same outcomes.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::uint32_t num_locs = 1 + seed % 2;
    const RandProgram spec = random_program(seed, num_locs);
    const wmm::Program prog = make_wmm_program(spec, num_locs);
    const wmm::ExploreResult rc11 = wmm::explore(prog);
    const wmm::ScResult sc = wmm::explore_sc(prog);
    EXPECT_TRUE(rc11.complete);
    EXPECT_EQ(rc11.joint, sc.joint)
        << "rc11: " << show(rc11.joint) << "\nsc:   " << show(sc.joint);
  }
}

TEST(WmmCrossValidation, Rc11EqualsSimModelCheckerOnSeqCstPrograms) {
  // Three independent engines -- the RC11 explorer, the wmm SC oracle,
  // and the coroutine sim model checker -- must agree exactly.
  for (std::uint64_t seed = 100; seed <= 115; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::uint32_t num_locs = 1 + seed % 2;
    const RandProgram spec = random_program(seed, num_locs);
    const wmm::Program prog = make_wmm_program(spec, num_locs);
    const OutcomeSet rc11 = wmm::explore(prog).joint;
    const OutcomeSet sim = sim_outcomes(spec, num_locs);
    EXPECT_EQ(rc11, sim)
        << "rc11: " << show(rc11) << "\nsim:  " << show(sim);
  }
}

// -------------------------------------------------------- protocol suite

TEST(WmmKernels, ShippedOrdersHaveZeroViolations) {
  // Acceptance bar: with the orders the production code ships, every
  // protocol kernel is clean over its *entire* RC11 execution space.
  for (const wmm::Kernel& kernel : wmm::protocol_kernels()) {
    SCOPED_TRACE(kernel.name);
    const wmm::ExploreResult res = wmm::check_kernel(kernel);
    EXPECT_TRUE(res.complete) << "state space not exhausted";
    EXPECT_GT(res.executions, 0u);
    EXPECT_EQ(res.violation_count, 0u)
        << (res.violations.empty()
                ? std::string{}
                : res.violations.front().message + "\n" +
                      res.violations.front().dump);
  }
}

// Every kernel `rucosim wmm` checks, in its order.
std::vector<wmm::Kernel> every_kernel() {
  std::vector<wmm::Kernel> out = wmm::protocol_kernels();
  out.push_back(wmm::make_mcas_resolving_read_kernel());
  for (const PropagateKernel which :
       {PropagateKernel::kWide, PropagateKernel::kWideSkip,
        PropagateKernel::kCounterRepeat, PropagateKernel::kMaxRepeat}) {
    out.push_back(wmm::make_propagate_kernel(which));
  }
  return out;
}

TEST(WmmKernels, EveryKernelKeepsItsExecutionCount) {
  // The explorer's execution and state counts at the shipped orders, and
  // the ordered ids of every mutation site.  A change to how the kernels
  // are built must leave the operations each thread issues, and with
  // them these counts, as they are.
  struct Count {
    const char* name;
    std::uint64_t executions;
    std::uint64_t states;
  };
  static constexpr Count kCounts[] = {
      {"propagate-counter/conditional", 10, 98},
      {"propagate-counter/always-twice", 72, 789},
      {"propagate-snapshot", 10, 153},
      {"root-read", 2, 14},
      {"leaf-handoff", 2, 10},
      {"mcas-publication", 3, 18},
      {"reclaim-grace-period", 5, 43},
      {"mcas-resolving-read", 12, 74},
      {"propagate-wide", 864, 14099},
      {"propagate-wide/skip", 558, 11405},
      {"propagate-counter/repeat", 50, 562},
      {"propagate-max/repeat", 35, 447},
  };
  const std::vector<wmm::Kernel> kernels = every_kernel();
  ASSERT_EQ(kernels.size(), std::size(kCounts));
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    SCOPED_TRACE(kCounts[i].name);
    EXPECT_EQ(kernels[i].name, kCounts[i].name);
    const wmm::ExploreResult res = wmm::check_kernel(kernels[i]);
    EXPECT_TRUE(res.complete);
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.executions, kCounts[i].executions);
    EXPECT_EQ(res.states, kCounts[i].states);
  }

  std::vector<std::string> ids;
  for (const auto& sites :
       {wmm::mutation_sites(), wmm::reclaim_mutation_sites(),
        wmm::mcas_read_mutation_sites(), wmm::wide_mutation_sites()}) {
    for (const wmm::MutationSite& site : sites) ids.push_back(site.id);
  }
  const std::vector<std::string> expected_ids = {
      "propagate-counter/conditional:node_load sc->rlx",
      "propagate-counter/conditional:cas_ok sc->rlx",
      "propagate-counter/always-twice:node_load sc->rlx",
      "propagate-counter/always-twice:cas_ok sc->rlx",
      "propagate-snapshot:child_load sc->rlx",
      "propagate-snapshot:leaf_store sc->rlx",
      "root-read:root_read acq->rlx",
      "root-read:cas_ok sc->rlx",
      "leaf-handoff:leaf_store sc->rlx",
      "leaf-handoff:child_load sc->rlx",
      "mcas-publication:install_ok acq_rel->rlx",
      "mcas-publication:cell_load acq->rlx",
      "mcas-publication:status_decide acq_rel->rlx",
      "mcas-publication:status_read acq->rlx",
      "reclaim-grace-period:pin_fence sc->acq_rel",
      "reclaim-grace-period:reclaim_fence sc->acq_rel",
      "reclaim-grace-period:slot_load acq->rlx",
      "reclaim-grace-period:unpin_store rel->rlx",
      "mcas-resolving-read:resolve_status_load acq->rlx",
      "mcas-resolving-read:release_ok rel->rlx",
      "propagate-wide:leaf_store sc->rel",
      "propagate-wide/skip:leaf_store sc->rel",
      "propagate-counter/repeat:leaf_store sc->rel",
      "propagate-wide:node_load sc->acq",
      "propagate-wide/skip:node_load sc->acq",
      "propagate-counter/repeat:node_load sc->acq",
      "propagate-wide:child_load sc->acq",
      "propagate-wide/skip:child_load sc->acq",
      "propagate-counter/repeat:child_load sc->acq",
      "propagate-wide:cas_ok sc->rel",
      "propagate-wide/skip:cas_ok sc->rel",
      "propagate-counter/repeat:cas_ok sc->rel",
  };
  EXPECT_EQ(ids, expected_ids);
}

TEST(WmmKernels, CounterKernelCoversBothOutcomesOfTheRace) {
  // Sanity that the kernel actually exercises contention: both the
  // one-round and two-round writer paths must appear among executions.
  const wmm::Kernel kernel =
      wmm::make_propagate_kernel(PropagateKernel::kCounterConditional);
  const wmm::ExploreResult res = wmm::check_kernel(kernel);
  EXPECT_GE(res.executions, 2u);
  // Every consistent execution ends at 2 -- that is the invariant -- so
  // final_states must be exactly {(2,1,1)}.
  EXPECT_EQ(res.final_states, (OutcomeSet{{2, 1, 1}}));
}

TEST(WmmMutation, EveryWeakenedSiteHasAViolatingExecution) {
  const auto outcomes = wmm::run_mutation_driver();
  ASSERT_GE(outcomes.size(), 12u);
  bool saw_pr4 = false;
  for (const wmm::MutationOutcome& mo : outcomes) {
    SCOPED_TRACE(mo.id);
    EXPECT_TRUE(mo.found())
        << "weakening this site should be observable: " << mo.note;
    EXPECT_FALSE(mo.sample_dump.empty());
    saw_pr4 = saw_pr4 || mo.pr4_regression;
  }
  EXPECT_TRUE(saw_pr4) << "the PR-4 regression site must stay pinned";
}

TEST(WmmMutation, ReclaimHandshakeSitesAllHaveViolatingExecutions) {
  // Both seq_cst fences of the epoch handshake are load-bearing (store
  // buffering without either), and so is the release/acquire pair that
  // hands a reader's last read to the reclaimer that sees its unpin.
  const auto outcomes =
      wmm::run_mutation_driver(wmm::reclaim_mutation_sites());
  ASSERT_EQ(outcomes.size(), 4u);
  for (const wmm::MutationOutcome& mo : outcomes) {
    SCOPED_TRACE(mo.id);
    EXPECT_TRUE(mo.found())
        << "weakening this site should be observable: " << mo.note;
    EXPECT_EQ(mo.sample_kind, "data-race");
    EXPECT_FALSE(mo.sample_dump.empty());
  }
}

TEST(WmmKernels, ResolvingReadKernelIsCleanAndReadsBothSidesOfTheOp) {
  // At the shipped orders the reader may see the operation not yet done,
  // done, or done between its two reads -- never done and then undone.
  const wmm::ExploreResult res =
      wmm::check_kernel(wmm::make_mcas_resolving_read_kernel());
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.outcomes.count({0, 0}));
  EXPECT_TRUE(res.outcomes.count({0, 1}));
  EXPECT_TRUE(res.outcomes.count({1, 1}));
  EXPECT_FALSE(res.outcomes.count({1, 0}));
}

TEST(WmmMutation, ResolvingReadSitesAllHaveViolatingExecutions) {
  // The resolving read adds one load-bearing order (its status load) and
  // leans on a second (phase 2's release CAS).
  const auto outcomes =
      wmm::run_mutation_driver(wmm::mcas_read_mutation_sites());
  ASSERT_EQ(outcomes.size(), 2u);
  for (const wmm::MutationOutcome& mo : outcomes) {
    SCOPED_TRACE(mo.id);
    EXPECT_TRUE(mo.found())
        << "weakening this site should be observable: " << mo.note;
    EXPECT_FALSE(mo.sample_dump.empty());
  }
}

TEST(WmmKernels, WideKernelsAreCleanAtTheSnapshotOrders) {
  // The wide loop's four seq_cst sites: no lost update with three leaves
  // under one node, for views (always CAS) and for Value cells (no-change
  // skip), nor with one writer updating twice.
  for (const wmm::Kernel& kernel :
       {wmm::make_propagate_kernel(PropagateKernel::kWide),
        wmm::make_propagate_kernel(PropagateKernel::kWideSkip),
        wmm::make_propagate_kernel(PropagateKernel::kCounterRepeat)}) {
    SCOPED_TRACE(kernel.name);
    const wmm::ExploreResult res = wmm::check_kernel(kernel);
    EXPECT_TRUE(res.complete);
    EXPECT_GT(res.executions, 1u);
    EXPECT_TRUE(res.ok()) << (res.violations.empty()
                                  ? std::string{}
                                  : res.violations.front().dump);
  }
}

TEST(WmmKernels, WideSkipVariantStaysOutOfThePinnedLists) {
  // The verify workload pins protocol_kernels() and mutation_sites(); the
  // Value-cell instantiation's kernel and sites live beside them.
  for (const wmm::Kernel& kernel : wmm::protocol_kernels()) {
    EXPECT_EQ(kernel.name.find("propagate-wide"), std::string::npos);
  }
  for (const wmm::MutationSite& site : wmm::mutation_sites()) {
    EXPECT_EQ(site.id.find("propagate-wide"), std::string::npos) << site.id;
  }
}

TEST(WmmMutation, WideSitesAllHaveViolatingExecutions) {
  // Each seq_cst site weakened alone to its release/acquire order loses an
  // update in all three kernels: the store-buffering execution of
  // farray/wide_propagate.h.
  const auto outcomes = wmm::run_mutation_driver(wmm::wide_mutation_sites());
  ASSERT_EQ(outcomes.size(), 12u);
  std::size_t skip_sites = 0;
  for (const wmm::MutationOutcome& mo : outcomes) {
    SCOPED_TRACE(mo.id);
    EXPECT_TRUE(mo.found())
        << "weakening this site should be observable: " << mo.note;
    EXPECT_EQ(mo.sample_kind, "invariant");
    EXPECT_FALSE(mo.sample_dump.empty());
    if (mo.id.starts_with("propagate-wide/skip:")) ++skip_sites;
  }
  EXPECT_EQ(skip_sites, 4u);
}

TEST(WmmKernels, BinaryFArrayOrdersLoseARepeatedIncrement) {
  // The store-buffering gap the loop has on a binary node at
  // release/acquire: a writer that increments twice loses an increment
  // under RC11.  The
  // shipped orders (PropagateOrders{}, the same in every build) are the
  // four seq_cst sites and do not.
  const wmm::ExploreResult weak =
      wmm::check_kernel(wmm::make_propagate_kernel(
                            PropagateKernel::kCounterRepeat,
                            wmm::release_acquire_orders()),
                        1);
  ASSERT_FALSE(weak.ok());
  EXPECT_EQ(weak.violations.front().kind, "invariant");
  EXPECT_NE(weak.violations.front().message.find("final node value 2"),
            std::string::npos)
      << weak.violations.front().message;

  const wmm::ExploreResult as_built = wmm::check_kernel(
      wmm::make_propagate_kernel(PropagateKernel::kCounterRepeat));
  EXPECT_TRUE(as_built.complete);
  EXPECT_TRUE(as_built.ok()) << "the shipped seq_cst sites close the gap";
}

TEST(WmmKernels, AlgorithmAOrdersLoseARepeatedMaxWrite) {
  // Algorithm A's max on two leaves: owner A writes 1 then 2, owner B
  // writes 3.  At release/acquire B's write can go missing (final 2): A's
  // second refresh reads B's leaf from before its store and beats B's
  // second round.  Clean at the shipped seq_cst sites.
  const wmm::ExploreResult weak =
      wmm::check_kernel(wmm::make_propagate_kernel(
                            PropagateKernel::kMaxRepeat,
                            wmm::release_acquire_orders()),
                        1);
  ASSERT_FALSE(weak.ok());
  EXPECT_EQ(weak.violations.front().kind, "invariant");
  EXPECT_NE(weak.violations.front().message.find("final node value 2"),
            std::string::npos)
      << weak.violations.front().message;

  const wmm::ExploreResult sc = wmm::check_kernel(
      wmm::make_propagate_kernel(PropagateKernel::kMaxRepeat));
  EXPECT_TRUE(sc.complete);
  EXPECT_GT(sc.executions, 1u);
  EXPECT_TRUE(sc.ok()) << (sc.violations.empty()
                               ? std::string{}
                               : sc.violations.front().dump);
}

TEST(WmmKernels, ReclaimKernelSeesBothSidesOfTheRace) {
  // The shipped handshake admits executions where the reader holds the
  // old view (and the reclaimer must not free) and ones where it is freed.
  const wmm::ExploreResult res =
      wmm::check_kernel(wmm::make_reclaim_grace_period_kernel());
  ASSERT_TRUE(res.ok());
  bool reader_held_old = false;
  bool freed = false;
  for (const auto& outcome : res.outcomes) {
    // Outcome tuple: reader (root, [view]), reclaimer (slot).
    if (outcome.size() == 3 && outcome[0] == 1) reader_held_old = true;
    if (outcome.back() == 0) freed = true;
  }
  EXPECT_TRUE(reader_held_old);
  EXPECT_TRUE(freed);
}

TEST(WmmMutation, Pr4NodeLoadRegressionStaysMustFail) {
  // The permanent regression litmus: the loop on a binary node with the
  // node load weakened back to relaxed (the exact PR-4 bug) must exhibit a
  // lost increment or monotonicity regression on the conditional policy.
  wmm::PropagateOrders weak;
  weak.node_load = std::memory_order_relaxed;
  const wmm::Kernel kernel =
      wmm::make_propagate_kernel(PropagateKernel::kCounterConditional, weak);
  const wmm::ExploreResult res = wmm::check_kernel(kernel, 1);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.violations.front().kind, "invariant");
}

TEST(WmmMutation, OrderTableIsMinimalWhereItClaimsToBe)
{
  // Sites that are not load-bearing in the two-writer counter kernel stay
  // clean when relaxed: the child loads (the integer payload needs only
  // coherence there; what they order is data published behind a leaf,
  // covered by leaf-handoff, and the leaf stores of a third refresher's
  // owner, covered by the store-buffering kernels) and the CAS failure
  // order.
  for (const PropagateKernel which : {PropagateKernel::kCounterConditional,
                                      PropagateKernel::kCounterAlwaysTwice}) {
    wmm::PropagateOrders o;
    o.child_load = std::memory_order_relaxed;
    const wmm::ExploreResult res =
        wmm::check_kernel(wmm::make_propagate_kernel(which, o));
    EXPECT_TRUE(res.complete);
    EXPECT_TRUE(res.ok())
        << "counter-kernel child loads should not be load-bearing";
  }
  wmm::PropagateOrders o;
  o.cas_fail = std::memory_order_relaxed;
  const wmm::ExploreResult res = wmm::check_kernel(
      wmm::make_propagate_kernel(PropagateKernel::kCounterConditional, o));
  EXPECT_TRUE(res.ok()) << "the CAS failure order is not load-bearing";
}

#if defined(RUCO_SEQCST_ATOMICS)
TEST(WmmSeqCstFallback, MutationSitesStillFailWithLiteralRelaxed) {
  // The mutation driver weakens sites with *literal*
  // std::memory_order_relaxed, bypassing the collapsed mo_* constants --
  // so even in this configuration it must keep finding violations
  // (proving the driver tests the sites, not the configuration).
  for (const wmm::MutationOutcome& mo : wmm::run_mutation_driver()) {
    SCOPED_TRACE(mo.id);
    EXPECT_TRUE(mo.found());
  }
}
#endif

// ------------------------------------------------------------- explorer

TEST(WmmExplorer, RejectsNondeterministicBodies) {
  wmm::Program prog;
  auto x = prog.atomic<Value>("x", 0);
  int calls = 0;
  prog.thread([=, &calls]() mutable {
    // Issues a different op on replay: the shim must reject it.
    if (++calls == 1) {
      x.store(1, std::memory_order_seq_cst);
    }
    x.load(std::memory_order_seq_cst);
  });
  EXPECT_THROW(wmm::explore(prog), std::logic_error);
}

TEST(WmmExplorer, OperationsOutsideExplorerThrow) {
  wmm::Program prog;
  auto x = prog.atomic<Value>("x", 0);
  EXPECT_THROW(x.load(std::memory_order_seq_cst), std::logic_error);
}

TEST(WmmExplorer, RendersCompleteExecutions) {
  // The dump must mention threads, orders and modification orders.
  wmm::PropagateOrders weak;
  weak.node_load = std::memory_order_relaxed;
  const wmm::Kernel kernel =
      wmm::make_propagate_kernel(PropagateKernel::kCounterConditional, weak);
  const wmm::ExploreResult res = wmm::check_kernel(kernel, 1);
  ASSERT_FALSE(res.violations.empty());
  const std::string& dump = res.violations.front().dump;
  EXPECT_NE(dump.find("thread T0"), std::string::npos);
  EXPECT_NE(dump.find("mo(node)"), std::string::npos);
  EXPECT_NE(dump.find("[rlx]"), std::string::npos);
}

}  // namespace
}  // namespace ruco
