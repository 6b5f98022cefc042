// Small remaining surfaces: event stringification, trace editing bounds,
// ProcSet equality semantics, program factories' validation, and the
// public umbrella header.
#include <gtest/gtest.h>

#include "ruco/ruco.h"  // the umbrella must compile standalone
#include "ruco/sim/event.h"
#include "ruco/sim/proc_set.h"
#include "ruco/simalgos/programs.h"
#include "ruco/simalgos/sim_snapshots.h"

namespace ruco::sim {
namespace {

Event make_event(Prim prim) {
  Event e;
  e.proc = 3;
  e.obj = 7;
  e.prim = prim;
  e.arg = 9;
  e.expected = 2;
  e.observed = prim == Prim::kRead ? 5 : 1;
  e.changed = prim != Prim::kRead;
  return e;
}

TEST(EventString, AllPrimitivesRender) {
  EXPECT_EQ(make_event(Prim::kRead).to_string(), "p3 read o7 -> 5 [trivial]");
  EXPECT_EQ(make_event(Prim::kWrite).to_string(), "p3 write o7 := 9");
  EXPECT_EQ(make_event(Prim::kCas).to_string(), "p3 cas o7(2 -> 9) = ok");
  // A k-CAS event's words live in its trace's pool.
  Trace trace;
  const std::vector<KcasEntry> words{KcasEntry{1, 0, 5}, KcasEntry{2, 3, 4}};
  trace.push_back(make_event(Prim::kKcas), words);
  const Event& k = trace.back();
  EXPECT_EQ(k.to_string(trace.words(k)), "p3 kcas o1(0->5) o2(3->4) = ok");
  EXPECT_STREQ(to_string(Prim::kKcas), "kcas");
}

TEST(EventString, SameActionIgnoresResponses) {
  Event a = make_event(Prim::kCas);
  Event b = a;
  b.observed = 0;
  b.changed = false;
  EXPECT_TRUE(a.same_action(b));
  b.arg = 100;
  EXPECT_FALSE(a.same_action(b));
}

TEST(EventString, KcasSameActionComparesTheWords) {
  Trace a;
  Trace b;
  const std::vector<KcasEntry> words{KcasEntry{1, 0, 5}, KcasEntry{2, 3, 4}};
  const std::vector<KcasEntry> other{KcasEntry{1, 0, 5}, KcasEntry{2, 3, 6}};
  a.push_back(make_event(Prim::kKcas), words);
  b.push_back(make_event(Prim::kKcas), words);
  b.push_back(make_event(Prim::kKcas), other);
  EXPECT_TRUE(a[0].same_action(b[0], a.words(a[0]), b.words(b[0])));
  EXPECT_FALSE(a[0].same_action(b[1], a.words(a[0]), b.words(b[1])));
  EXPECT_FALSE(a[0].same_action(b[0])) << "compared without its words";
}

TEST(EventString, OverlongWordListIsRejected) {
  Trace trace;
  const std::vector<KcasEntry> words(std::size_t{UINT16_MAX} + 1);
  EXPECT_THROW(trace.push_back(make_event(Prim::kKcas), words),
               std::length_error);
  EXPECT_TRUE(trace.empty());
}

TEST(EraseProcesses, OutOfRangeProcIdsAreKept) {
  Trace trace;
  Event e = make_event(Prim::kWrite);
  e.proc = 9;  // beyond the erase vector
  trace.push_back(e);
  const Trace kept = erase_processes(trace, std::vector<bool>(2, true));
  EXPECT_EQ(kept.size(), 1u);
}

TEST(ProcSetEquality, ValueSemantics) {
  ProcSet a{64};
  ProcSet b{64};
  EXPECT_EQ(a, b);
  a.add(5);
  EXPECT_NE(a, b);
  b.add(5);
  EXPECT_EQ(a, b);
  a.remove(5);
  b.remove(5);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace ruco::sim

namespace ruco::simalgos {
namespace {

TEST(ProgramFactories, ValidateInputs) {
  EXPECT_THROW((void)make_tree_maxreg_program(1), std::invalid_argument);
  EXPECT_THROW((void)make_cas_maxreg_program(0), std::invalid_argument);
  EXPECT_THROW((void)make_aac_maxreg_program(8, 4), std::invalid_argument);
  EXPECT_THROW((void)make_farray_counter_program(1), std::invalid_argument);
  EXPECT_THROW((void)make_dc_snapshot_counter_program(1),
               std::invalid_argument);
}

TEST(ProgramFactories, ShapesAreConsistent) {
  const auto m = make_tree_maxreg_program(10);
  EXPECT_EQ(m.num_writers, 9u);
  EXPECT_EQ(m.reader, 9u);
  EXPECT_EQ(m.program.num_processes(), 10u);

  const auto c = make_kcas_counter_program(6);
  EXPECT_EQ(c.num_incrementers, 5u);
  EXPECT_EQ(c.reader, 5u);
}

}  // namespace
}  // namespace ruco::simalgos

namespace ruco {
namespace {

TEST(Umbrella, TypesAndConstantsExposed) {
  static_assert(std::is_same_v<Value, std::int64_t>);
  EXPECT_EQ(kNoValue, -1);
  // One object of each family constructed through the umbrella header.
  maxreg::TreeMaxRegister reg{2};
  counter::FArrayCounter counter{2};
  snapshot::FArraySnapshot snap{2};
  farray::SumFArray fa{2, 0};
  kcas::McasArray mcas{2, 0, 2};
  reg.write_max(0, 1);
  counter.increment(0);
  snap.update(0, 1);
  fa.update(0, 1);
  (void)mcas.mcas(0, {kcas::McasWord{0, 0, 1}});
  EXPECT_EQ(reg.read_max(1), 1);
  EXPECT_EQ(counter.read(1), 1);
  EXPECT_EQ(snap.scan(1)[0], 1);
  EXPECT_EQ(fa.read_aggregate(1), 1);
  EXPECT_EQ(mcas.read(1, 0), 1);
}

}  // namespace
}  // namespace ruco
