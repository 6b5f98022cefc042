// Self-test of the benchmark's own arithmetic and oracle.  Exits 0 when
// every check passes; prints each failure.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../src/oracle.h"
#include "../src/stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

void expect_eq(double got, double want, const std::string& what) {
  expect(got == want, what + ": got " + std::to_string(got) + ", want " +
                          std::to_string(want));
}

void percentiles() {
  std::vector<int> one_to_hundred;
  for (int i = 100; i >= 1; --i) one_to_hundred.push_back(i);
  expect_eq(perfbench::percentile(one_to_hundred, 50), 50, "p50 of 1..100");
  expect_eq(perfbench::percentile(one_to_hundred, 99), 99, "p99 of 1..100");
  expect_eq(perfbench::percentile(one_to_hundred, 100), 100, "p100 of 1..100");
  std::vector<int> four{4, 1, 3, 2};
  expect_eq(perfbench::percentile(four, 50), 2, "nearest-rank p50 of 1..4");
  std::vector<int> single{7};
  expect_eq(perfbench::percentile(single, 99), 7, "p99 of one sample");
  std::vector<int> none;
  expect_eq(perfbench::percentile(none, 50), 0, "percentile of nothing");
  std::vector<std::int64_t> skewed(1000, 100);
  for (int i = 0; i < 10; ++i) skewed[static_cast<std::size_t>(i)] = 5000;
  expect_eq(perfbench::percentile(skewed, 99), 100,
            "p99 ignores a 1% tail");
  skewed[10] = 5000;
  expect_eq(perfbench::percentile(skewed, 99), 5000,
            "p99 sees a tail just over 1%");
}

void medians_and_ratios() {
  expect_eq(perfbench::median({3, 1, 2}), 2, "median of odd count");
  expect_eq(perfbench::median({4, 1, 3, 2}), 2.5, "median of even count");
  expect_eq(perfbench::median({}), 0, "median of nothing");
  expect_eq(perfbench::ratio(3, 4), 0.75, "ratio");
  expect_eq(perfbench::ratio(5, 0), 0, "ratio with no attempts");
}

void oracle_flags_regressed_max() {
  perfbench::ClientOracle ok{1, {0}};
  ok.wrote_max(5);
  ok.read_max(5);
  ok.read_max(9);
  expect_eq(static_cast<double>(ok.failures()), 0, "rising reads pass");

  perfbench::ClientOracle regressed{1, {0}};
  regressed.read_max(9);
  regressed.read_max(5);
  expect_eq(static_cast<double>(regressed.failures()), 1,
            "a regressed max read is flagged");

  perfbench::ClientOracle lost_write{1, {0}};
  lost_write.wrote_max(7);
  lost_write.read_max(6);
  expect_eq(static_cast<double>(lost_write.failures()), 1,
            "a read below the thread's own write is flagged");

  perfbench::FinalState s;
  s.read_max = 41;
  s.max_written = 42;
  expect_eq(static_cast<double>(perfbench::final_failures(s)), 1,
            "a final max below the maximum written is flagged");
}

void oracle_flags_lost_increment() {
  perfbench::ClientOracle c{1, {0}};
  c.incremented();
  c.incremented();
  c.read_counter(1);
  expect_eq(static_cast<double>(c.failures()), 1,
            "a counter read below own increments is flagged");

  perfbench::FinalState s;
  s.counter = 999;
  s.increments = 1000;
  expect_eq(static_cast<double>(perfbench::final_failures(s)), 1,
            "a lost increment is flagged");
  s.counter = 1000;
  expect_eq(static_cast<double>(perfbench::final_failures(s)), 0,
            "a matching final state passes");
}

void oracle_flags_snapshot_and_cells() {
  perfbench::ClientOracle c{3, {1}};
  c.updated_segment(1, 4);
  c.scanned({0, 4, 2});
  expect_eq(static_cast<double>(c.failures()), 0, "a consistent scan passes");
  c.scanned({0, 3, 2});
  expect_eq(static_cast<double>(c.failures()), 1,
            "a scan missing the own last update is flagged");
  c.scanned({0, 4, 1});
  expect_eq(static_cast<double>(c.failures()), 2,
            "a scan going back on another segment is flagged");
  c.read_fixed_cell(10, 11);
  expect_eq(static_cast<double>(c.failures()), 3, "a changed cell is flagged");

  perfbench::FinalState s;
  s.scan = {1, 2};
  s.last_updates = {1, 3};
  s.cell_sum = 8;
  s.initial_cell_sum = 9;
  expect_eq(static_cast<double>(perfbench::final_failures(s)), 2,
            "a stale final scan and a broken cell sum are flagged");
}

void oracle_flags_wrong_verdict() {
  std::istringstream expected_text{
      "# job verdict\n"
      "mc_tree_k3 ok\n"
      "paper_gap_printed violation   # the printed algorithm is wrong\n"
      "\n"
      "certify_lock_k4 not_certified\n"};
  const auto expected = perfbench::parse_verdicts(expected_text);
  expect_eq(static_cast<double>(expected.size()), 3, "parsed three verdicts");

  perfbench::Verdicts actual{{"mc_tree_k3", "ok"},
                             {"paper_gap_printed", "violation"},
                             {"certify_lock_k4", "not_certified"}};
  expect(perfbench::wrong_verdicts(expected, actual).empty(),
         "matching verdicts pass");
  actual["paper_gap_printed"] = "ok";
  const auto wrong = perfbench::wrong_verdicts(expected, actual);
  expect(wrong.size() == 1 && wrong[0] == "paper_gap_printed",
         "a wrong verdict is flagged");
  actual.erase("mc_tree_k3");
  actual["extra_job"] = "ok";
  expect_eq(static_cast<double>(
                perfbench::wrong_verdicts(expected, actual).size()),
            3, "missing and unexpected jobs are flagged");

  std::istringstream malformed{"mc_tree_k3 ok extra\n"};
  bool threw = false;
  try {
    (void)perfbench::parse_verdicts(malformed);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  expect(threw, "a malformed verdict line is rejected");
}

}  // namespace

int main() {
  percentiles();
  medians_and_ratios();
  oracle_flags_regressed_max();
  oracle_flags_lost_increment();
  oracle_flags_snapshot_and_cells();
  oracle_flags_wrong_verdict();
  std::cout << (g_failures == 0 ? "perfbench self-test: ok\n"
                                : "perfbench self-test: FAILED\n");
  return g_failures == 0 ? 0 : 1;
}
