// Simulation-layer twins of the max register implementations: the same
// algorithms expressed as sim::Op coroutines over sim base objects, so the
// adversary constructions and the model checker can drive them step by
// step.  All cross-operation state lives in base objects (a requirement for
// replay after erasure); solo step counts match the production layer and
// the tests assert it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/farray/wide_propagate.h"
#include "ruco/maxreg/refresh_policy.h"
#include "ruco/maxreg/tree_max_register.h"  // Faithfulness
#include "ruco/sim/op.h"
#include "ruco/sim/system.h"
#include "ruco/util/tree_shape.h"

namespace ruco::simalgos {

/// The loop of ruco/farray/wide_propagate.h over simulated memory, for
/// both walkers (farray::WideWalk, farray::TreeWalk): for every family
/// `walk` yields, up to `rounds` rounds of (read the node, read each
/// child, CAS in the `combine` fold of the children).  `objects[i]` backs
/// cell i.  kConditional mirrors production: a fold equal to the node
/// value skips the CAS and a won CAS ends the level.  kAlwaysTwice runs
/// every round.
template <typename Walk>
[[nodiscard]] sim::Op propagate_wide(sim::Ctx& ctx, Walk walk,
                                     const std::vector<sim::ObjectId>& objects,
                                     Value (*combine)(Value, Value),
                                     maxreg::RefreshPolicy policy,
                                     int rounds = 2);

/// Algorithm A over simulated memory.  See maxreg::TreeMaxRegister.
///
/// `propagate_attempts` is an ablation knob: the paper performs the
/// compute-max-and-CAS *twice* per level (lines 6-9) and proves that is
/// enough; with 1 attempt a failed CAS abandons the level and a completed
/// WriteMax can be missed by later reads (the ablation bench and tests
/// exhibit the violation), with 2 (the default) the algorithm is correct.
///
/// `policy` mirrors the production conditional-refresh pruning (see
/// ruco/farray/wide_propagate.h): kConditional skips the second round when
/// the first CAS wins and skips the CAS entirely when the recomputed max
/// equals the node's current value; kAlwaysTwice is the paper-literal
/// shape.  The model checker verifies both reach the same linearizations
/// (hotpath_test).
class SimTreeMaxRegister {
 public:
  SimTreeMaxRegister(
      sim::Program& program, std::uint32_t num_processes,
      maxreg::Faithfulness mode, int propagate_attempts = 2,
      maxreg::RefreshPolicy policy = maxreg::RefreshPolicy::kConditional);

  [[nodiscard]] sim::Op read_max(sim::Ctx& ctx) const;
  [[nodiscard]] sim::Op write_max(sim::Ctx& ctx, Value v) const;

  [[nodiscard]] std::uint32_t num_processes() const noexcept { return n_; }
  /// Base object backing the tree root (the one ReadMax reads).
  [[nodiscard]] sim::ObjectId root_object() const {
    return objects_[shape_.root()];
  }

 private:
  std::uint32_t n_;
  util::TreeShape shape_;  // util::algorithm_a_shape(n_)
  std::vector<sim::ObjectId> objects_;  // one base object per tree node
  maxreg::Faithfulness mode_;
  int propagate_attempts_;
  maxreg::RefreshPolicy policy_;
};

/// Single-word CAS-retry max register over simulated memory.  The model's
/// CAS returns only success/failure (Section 2), so each failed attempt
/// costs one extra read to refresh the expected value.
class SimCasMaxRegister {
 public:
  explicit SimCasMaxRegister(sim::Program& program);

  [[nodiscard]] sim::Op read_max(sim::Ctx& ctx) const;
  [[nodiscard]] sim::Op write_max(sim::Ctx& ctx, Value v) const;

  [[nodiscard]] sim::ObjectId cell() const noexcept { return cell_; }

 private:
  sim::ObjectId cell_;
};

/// AAC bounded max register over simulated memory (read/write only).  See
/// maxreg::AacMaxRegister.
class SimAacMaxRegister {
 public:
  SimAacMaxRegister(sim::Program& program, Value bound);

  [[nodiscard]] sim::Op read_max(sim::Ctx& ctx) const;
  [[nodiscard]] sim::Op write_max(sim::Ctx& ctx, Value v) const;

  [[nodiscard]] Value bound() const noexcept { return bound_; }

 private:
  Value bound_;
  std::uint32_t levels_;
  std::vector<sim::ObjectId> switches_;  // heap-ordered; index 0 unused
  sim::ObjectId any_write_;
};

/// Spinlock-protected max register over simulated memory: the *blocking*
/// baseline (maxreg::LockMaxRegister's sim twin, the mutex modeled as a
/// CAS-acquired test-and-set lock).  Deliberately NOT wait-free: if the
/// lock holder crashes mid-operation the lock is never released and every
/// other process spins forever -- the negative control that
/// certify_wait_freedom must fail.
class SimLockMaxRegister {
 public:
  explicit SimLockMaxRegister(sim::Program& program);

  [[nodiscard]] sim::Op read_max(sim::Ctx& ctx) const;
  [[nodiscard]] sim::Op write_max(sim::Ctx& ctx, Value v) const;

  [[nodiscard]] sim::ObjectId lock_object() const noexcept { return lock_; }

 private:
  sim::ObjectId lock_;  // 0 free, 1 held
  sim::ObjectId cell_;
};

/// Unbounded rw-only max register over simulated memory (AAC composition
/// along a Bentley-Yao spine).  See maxreg::UnboundedAacMaxRegister.
/// Groups are allocated eagerly up to max_groups (sim programs have a fixed
/// object set), so keep max_groups modest (values < 2^max_groups - 1).
class SimUnboundedAacMaxRegister {
 public:
  SimUnboundedAacMaxRegister(sim::Program& program, std::uint32_t max_groups);

  [[nodiscard]] sim::Op read_max(sim::Ctx& ctx) const;
  [[nodiscard]] sim::Op write_max(sim::Ctx& ctx, Value v) const;

 private:
  std::uint32_t max_groups_;
  std::vector<sim::ObjectId> spine_;
  std::vector<std::unique_ptr<SimAacMaxRegister>> groups_;
};

}  // namespace ruco::simalgos
