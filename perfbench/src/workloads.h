// The three workloads.  read_mostly and update_storm drive the production
// objects from closed-loop client threads; verify runs a fixed batch of
// simulator, checker, weak-memory and adversary jobs.
#pragma once

#include <cstdint>

#include "report.h"

namespace perfbench {

[[nodiscard]] RunResult run_read_mostly(const RunConfig& cfg);
[[nodiscard]] RunResult run_update_storm(const RunConfig& cfg);
[[nodiscard]] RunResult run_verify(const RunConfig& cfg);

/// Client threads: never more than the machine's processors, at most 4.
[[nodiscard]] unsigned client_threads();

/// splitmix64: the benchmark's input generator, independent of the code
/// under test.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_{seed} {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
