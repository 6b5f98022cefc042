// Golden step counts: exact shared-memory event counts for representative
// operations, pinned so constant-factor regressions (an extra read in a
// hot loop, a lost early-out) fail loudly instead of silently shifting the
// benchmarks.  These are *exact* values of the current algorithms -- when
// an intentional change shifts one, update it deliberately and note why.
#include <gtest/gtest.h>

#include "ruco/ruco.h"

namespace ruco {
namespace {

template <typename F>
std::uint64_t steps(F&& f) {
  runtime::StepScope scope;
  f();
  return scope.taken();
}

TEST(GoldenSteps, TreeMaxRegisterWrites) {
  // N = 16; fresh register per case.  Conditional refresh (see
  // ruco/farray/wide_propagate.h): solo, every first-round CAS wins and
  // prunes the second round, so a level costs 4 events (node + 2 children
  // + CAS) instead of the paper-literal 8.  Total = 1 root-fastpath read +
  // 2 leaf events + 4 x depth.
  {
    maxreg::TreeMaxRegister r{16};
    EXPECT_EQ(steps([&] { r.write_max(0, 0); }), 11u);  // leaf 0: depth 2
  }
  {
    maxreg::TreeMaxRegister r{16};
    EXPECT_EQ(steps([&] { r.write_max(0, 1); }), 19u);  // depth 4
  }
  {
    maxreg::TreeMaxRegister r{16};
    EXPECT_EQ(steps([&] { r.write_max(0, 15); }), 23u);  // last B1 leaf
  }
  {
    maxreg::TreeMaxRegister r{16};
    EXPECT_EQ(steps([&] { r.write_max(3, 100); }), 23u);  // TR leaf: depth 5
  }
  {
    // Duplicate operand with the root already covering it: the root-check
    // fast path returns after a single read (was a full helping
    // propagation before the fast path).
    maxreg::TreeMaxRegister r{16};
    r.write_max(0, 5);
    EXPECT_EQ(steps([&] { r.write_max(1, 5); }), 1u);
  }
  {
    maxreg::TreeMaxRegister r{16};
    EXPECT_EQ(steps([&] { (void)r.read_max(0); }), 1u);
  }
}

TEST(GoldenSteps, AacMaxRegister) {
  // M = 1024 (10 levels): reads 11 (any_write + 10 switches); writes 11
  // for both the all-left and all-right extremes (10 switch ops +
  // any_write).
  maxreg::AacMaxRegister r{1024};
  EXPECT_EQ(steps([&] { r.write_max(0, 0); }), 11u);
  EXPECT_EQ(steps([&] { r.write_max(0, 1023); }), 11u);
  EXPECT_EQ(steps([&] { (void)r.read_max(0); }), 11u);
}

TEST(GoldenSteps, UnboundedAacMaxRegister) {
  maxreg::UnboundedAacMaxRegister r{20};
  EXPECT_EQ(steps([&] { r.write_max(0, 0); }), 2u);  // spine check + group 0
  EXPECT_EQ(steps([&] { r.write_max(0, 1000); }), 20u);  // group 9
  EXPECT_EQ(steps([&] { (void)r.read_max(0); }), 20u);
}

TEST(GoldenSteps, Counters) {
  {
    // 8-ary tree: 64 leaves -> 8 nodes -> root.  Leaf write 1, then per
    // level the node load, 8 child loads and the CAS: 1 + 10 + 10 (the
    // binary tree paid 1 + 6 levels x 4 = 25).
    counter::FArrayCounter c{64};
    EXPECT_EQ(steps([&] { c.increment(9); }), 21u);
    EXPECT_EQ(steps([&] { (void)c.read(0); }), 1u);
  }
  {
    // 4 leaves and the root in one line: 1 + (1 + 4 + 1).
    counter::FArrayCounter c{4};
    EXPECT_EQ(steps([&] { c.increment(2); }), 7u);
    EXPECT_EQ(steps([&] { (void)c.read(0); }), 1u);
  }
  {
    counter::MaxRegCounter c{16, 255};  // U = 255: 8-level registers
    EXPECT_EQ(steps([&] { c.increment(0); }), 70u);
    EXPECT_EQ(steps([&] { (void)c.read(1); }), 9u);
  }
  {
    counter::UnboundedMaxRegCounter c{16};
    c.increment(0);
    EXPECT_EQ(steps([&] { c.increment(0); }), 35u);  // count = 2: tiny logs
    EXPECT_EQ(steps([&] { (void)c.read(1); }), 4u);
  }
  {
    counter::FetchAddCounter c;
    EXPECT_EQ(steps([&] { c.increment(0); }), 1u);
    EXPECT_EQ(steps([&] { (void)c.read(0); }), 1u);
  }
}

TEST(GoldenSteps, Snapshots) {
  {
    // 8-ary tree: 32 leaves -> 4 nodes -> root.  Leaf write 1, then per
    // level the node load, one load per child and the CAS: leaf 7's parent
    // has 8 children (10 steps), the root 4 (6 steps).
    snapshot::FArraySnapshot s{32};
    EXPECT_EQ(steps([&] { s.update(7, 3); }), 1u + 10u + 6u);
    EXPECT_EQ(steps([&] { (void)s.scan(0); }), 1u);
  }
  {
    snapshot::FArraySnapshot s{64};  // 64 -> 8 -> root: 1 + 10 + 10
    EXPECT_EQ(steps([&] { s.update(40, 3); }), 21u);
    EXPECT_EQ(steps([&] { (void)s.scan(0); }), 1u);
  }
  {
    snapshot::AfekSnapshot s{12};
    EXPECT_EQ(steps([&] { s.update(0, 1); }), 25u);  // embedded scan + write
    EXPECT_EQ(steps([&] { (void)s.scan(1); }), 24u);
  }
  {
    snapshot::DoubleCollectSnapshot s{12};
    EXPECT_EQ(steps([&] { s.update(0, 1); }), 1u);
    EXPECT_EQ(steps([&] { (void)s.scan(1); }), 24u);
  }
}

TEST(GoldenSteps, FArrayNoChangeSkipsCas) {
  // Writing the value a slot already holds leaves every path node's
  // aggregate unchanged, so conditional refresh skips all CASes: 1 leaf
  // write + the root's node load + its 8 child loads, no CAS.
  farray::SumFArray a{8, 0};  // 8 leaves under one root
  a.update(0, 5);
  EXPECT_EQ(steps([&] { a.update(0, 5); }), 10u);
}

TEST(GoldenSteps, SoftwareMcas) {
  kcas::McasArray a{4, 0, 2};
  // 2-word MCAS, uncontended: status load + 2 x (RDCSS cas + complete's
  // control load + complete's cas) + status cas + status load + 2 release
  // CASes = 11 cell/status events.
  EXPECT_EQ(steps([&] {
              (void)a.mcas(0, {kcas::McasWord{0, 0, 1},
                               kcas::McasWord{2, 0, 1}});
            }),
            11u);
  EXPECT_EQ(steps([&] { (void)a.read(0, 1); }), 1u);
}

}  // namespace
}  // namespace ruco
