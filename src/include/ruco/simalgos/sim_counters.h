// Simulation-layer counters: the Theorem 1 adversary's targets.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/farray/wide_propagate.h"
#include "ruco/maxreg/refresh_policy.h"
#include "ruco/sim/op.h"
#include "ruco/sim/system.h"
#include "ruco/simalgos/sim_max_registers.h"
#include "ruco/util/tree_shape.h"

namespace ruco::simalgos {

/// Jayanti f-array counter over simulated memory (CAS variant): read O(1),
/// increment O(log N), over the same 8-ary levels and root rule as
/// counter::FArrayCounter (farray::wide_levels).  Unlike the production
/// twin, the increment re-reads its own leaf (one extra step) because
/// simulated operations may not carry state between operations (replay
/// after erasure re-runs coroutines from scratch).
///
/// `policy` selects the propagation (see simalgos::propagate_wide):
/// kConditional mirrors production, kAlwaysTwice is the paper-literal
/// double refresh.
class SimFArrayCounter {
 public:
  SimFArrayCounter(
      sim::Program& program, std::uint32_t num_processes,
      maxreg::RefreshPolicy policy = maxreg::RefreshPolicy::kConditional);

  [[nodiscard]] sim::Op read(sim::Ctx& ctx) const;
  [[nodiscard]] sim::Op increment(sim::Ctx& ctx) const;

  [[nodiscard]] std::uint32_t num_processes() const noexcept { return n_; }
  [[nodiscard]] sim::ObjectId root_object() const {
    return objects_[levels_.back().offset];
  }

 private:
  std::uint32_t n_;
  std::vector<farray::Level> levels_;
  std::vector<sim::ObjectId> objects_;  // by cell; padding cells unused
  maxreg::RefreshPolicy policy_;
};

/// Aspnes-Attiya-Censor-Hillel counter over simulated memory: read
/// O(log U), increment O(log N log U), reads and writes only.  See
/// counter::MaxRegCounter.
class SimMaxRegCounter {
 public:
  SimMaxRegCounter(sim::Program& program, std::uint32_t num_processes,
                   Value max_increments);

  [[nodiscard]] sim::Op read(sim::Ctx& ctx) const;
  [[nodiscard]] sim::Op increment(sim::Ctx& ctx) const;

  [[nodiscard]] std::uint32_t num_processes() const noexcept { return n_; }

 private:
  [[nodiscard]] sim::Op node_value(sim::Ctx& ctx,
                                   util::TreeShape::NodeId node) const;

  std::uint32_t n_;
  Value bound_;
  util::TreeShape shape_;
  std::vector<std::unique_ptr<SimAacMaxRegister>> nodes_;  // internal only
  std::vector<sim::ObjectId> leaf_counts_;
};

/// Counter from 2-CAS (the k-CAS primitive of Attiya & Hendler, the
/// paper's reference [6] -- *outside* the read/write/CAS model of
/// Theorems 1-2): increment retries a double-word CAS over (own leaf,
/// shared root); read is one root load.
///
/// Solo this sits below Theorem 1's frontier -- (read 1, increment 3) --
/// which is legal only because 2-CAS is a stronger primitive.  It is
/// lock-free but NOT wait-free: under the Theorem 1 adversary one process
/// wins per round and the rest retry, so increments stretch to Theta(N)
/// rounds (the adversary bench shows it), versus the f-array's wait-free
/// Theta(log N).  Strength of primitive and worst-case step complexity are
/// different axes -- the comparison this object exists to make.
class SimKcasCounter {
 public:
  SimKcasCounter(sim::Program& program, std::uint32_t num_processes);

  [[nodiscard]] sim::Op read(sim::Ctx& ctx) const;
  [[nodiscard]] sim::Op increment(sim::Ctx& ctx) const;

  [[nodiscard]] sim::ObjectId root_object() const noexcept { return root_; }

 private:
  std::uint32_t n_;
  sim::ObjectId root_;
  std::vector<sim::ObjectId> leaves_;
};

}  // namespace ruco::simalgos
