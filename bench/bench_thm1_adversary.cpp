// Experiment T1-adv (Theorem 1's construction, end to end): the adversary
// starves N-1 concurrent CounterIncrements with Lemma 1 rounds; no correct
// counter can finish them all before round log_3(N / f(N)).
//
// Series printed, per N and per counter family:
//   rounds r until all increments completed   vs   the bound log_3(N/f)
//   (f = the reader's measured steps),
//   the slowest increment's step count,
//   the Lemma 3 probe: reader's answer, steps, awareness (must reach N).
#include <cmath>
#include <cstdint>
#include <iostream>

#include "ruco/adversary/counter_adversary.h"
#include "ruco/core/table.h"
#include "ruco/simalgos/programs.h"

namespace {

void report_row(ruco::Table& t, const char* name,
                const ruco::adversary::CounterAdversaryReport& r) {
  const double f = static_cast<double>(r.reader_steps);
  const double bound =
      std::log(static_cast<double>(r.n) / std::max(f, 1.0)) / std::log(3.0);
  t.add(r.n, name, r.rounds, r.max_increment_steps, f, std::max(bound, 0.0),
        r.knowledge_bound_held ? "yes" : "NO",
        r.reader_correct ? "yes" : "NO", r.reader_awareness);
}

}  // namespace

int main() {
  std::cout << "# T1-adv: Theorem 1 adversary vs counters\n\n";
  ruco::Table t{{"N", "counter", "rounds r", "max inc steps",
                 "f (reader steps)", "log3(N/f)", "M<=3^j", "reader ok",
                 "|AW(reader)|"}};
  for (const std::uint32_t n : {9u, 27u, 81u, 243u, 729u, 2187u}) {
    report_row(t, "f-array",
               ruco::adversary::run_counter_adversary(
                   ruco::simalgos::make_farray_counter_program(n)));
  }
  for (const std::uint32_t n : {9u, 27u, 81u, 243u}) {
    report_row(t, "AAC maxreg",
               ruco::adversary::run_counter_adversary(
                   ruco::simalgos::make_maxreg_counter_program(
                       n, static_cast<ruco::Value>(n))));
  }
  for (const std::uint32_t n : {9u, 27u, 81u, 243u}) {
    report_row(t, "2-CAS (outside model)",
               ruco::adversary::run_counter_adversary(
                   ruco::simalgos::make_kcas_counter_program(n)));
  }
  t.print();
  std::cout
      << "\nShape check: rounds r >= log3(N/f) everywhere (the lower "
         "bound); for the f-array r is the longest increment the "
         "adversary forces, between its solo cost (1 + ~10 log8 N steps "
         "on the 8-ary tree) and twice that (two refresh rounds per "
         "level), i.e. the bound is loose by the constant the paper "
         "predicts; reader awareness = N confirms Lemma 3's information "
         "requirement.  The 2-CAS counter (stronger primitive, outside "
         "Theorem 1's model) is solo-cheap but only lock-free: the "
         "adversary stretches it to Theta(N) rounds -- one k-CAS winner "
         "per wave.\n";
  return 0;
}
