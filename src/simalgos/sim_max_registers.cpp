#include "ruco/simalgos/sim_max_registers.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "ruco/util/bits.h"

namespace ruco::simalgos {

// ------------------------------------------------- the propagation loop

template <typename Walk>
sim::Op propagate_wide(sim::Ctx& ctx, Walk walk,
                       const std::vector<sim::ObjectId>& objects,
                       Value (*combine)(Value, Value),
                       maxreg::RefreshPolicy policy, int rounds) {
  // Paper Algorithm A, lines 3-9; the pruning argument is in
  // ruco/farray/wide_propagate.h.
  const bool conditional = policy == maxreg::RefreshPolicy::kConditional;
  for (farray::Family family{}; walk.next(family);) {
    const sim::ObjectId node = objects[family.node];
    for (int round = 0; round < rounds; ++round) {
      const Value old_value = co_await ctx.read(node);
      std::uint32_t child = family.first;
      Value merged = co_await ctx.read(objects[child]);
      for (std::uint32_t c = 1; c < family.count; ++c) {
        child += family.stride;
        const Value value = co_await ctx.read(objects[child]);
        merged = combine(merged, value);
      }
      if (conditional && merged == old_value) break;
      const Value ok = co_await ctx.cas(node, old_value, merged);
      if (conditional && ok != 0) break;
    }
  }
  co_return 0;
}

template sim::Op propagate_wide(sim::Ctx&, farray::WideWalk,
                                const std::vector<sim::ObjectId>&,
                                Value (*)(Value, Value), maxreg::RefreshPolicy,
                                int);
template sim::Op propagate_wide(sim::Ctx&, farray::TreeWalk,
                                const std::vector<sim::ObjectId>&,
                                Value (*)(Value, Value), maxreg::RefreshPolicy,
                                int);

// ---------------------------------------------------------------- Algorithm A

namespace {
Value combine_max(Value l, Value r) { return std::max(l, r); }
}  // namespace

SimTreeMaxRegister::SimTreeMaxRegister(sim::Program& program,
                                       std::uint32_t num_processes,
                                       maxreg::Faithfulness mode,
                                       int propagate_attempts,
                                       maxreg::RefreshPolicy policy)
    : n_{num_processes},
      shape_{util::algorithm_a_shape(num_processes)},
      mode_{mode},
      propagate_attempts_{propagate_attempts},
      policy_{policy} {
  objects_.reserve(shape_.node_count());
  for (std::size_t i = 0; i < shape_.node_count(); ++i) {
    objects_.push_back(program.add_object(kNoValue));
  }
}

sim::Op SimTreeMaxRegister::read_max(sim::Ctx& ctx) const {
  co_return co_await ctx.read(objects_[shape_.root()]);
}

sim::Op SimTreeMaxRegister::write_max(sim::Ctx& ctx, Value v) const {
  assert(v >= 0);
  if (mode_ == maxreg::Faithfulness::kHelpOnDuplicate &&
      policy_ == maxreg::RefreshPolicy::kConditional) {
    // Root-check fast path (mirrors production): a root already >= v means
    // every later ReadMax returns >= v, so linearize right away.  Gated on
    // kConditional so kAlwaysTwice stays fully paper-shaped.
    if (co_await ctx.read(objects_[shape_.root()]) >= v) co_return 0;
  }
  const auto leaf = shape_.leaf(util::algorithm_a_leaf(n_, ctx.id(), v));
  const Value old_value = co_await ctx.read(objects_[leaf]);
  if (v <= old_value) {
    if (mode_ == maxreg::Faithfulness::kAsPrinted) co_return 0;
  } else {
    co_await ctx.write(objects_[leaf], v);
  }
  co_await propagate_wide(ctx, farray::TreeWalk{shape_, leaf}, objects_,
                          combine_max, policy_, propagate_attempts_);
  co_return 0;
}

// ------------------------------------------------------------ CAS retry loop

SimCasMaxRegister::SimCasMaxRegister(sim::Program& program)
    : cell_{program.add_object(kNoValue)} {}

sim::Op SimCasMaxRegister::read_max(sim::Ctx& ctx) const {
  co_return co_await ctx.read(cell_);
}

sim::Op SimCasMaxRegister::write_max(sim::Ctx& ctx, Value v) const {
  assert(v >= 0);
  Value current = co_await ctx.read(cell_);
  while (current < v) {
    const Value ok = co_await ctx.cas(cell_, current, v);
    if (ok != 0) break;
    current = co_await ctx.read(cell_);
  }
  co_return 0;
}

// --------------------------------------------------------- AAC max register

SimAacMaxRegister::SimAacMaxRegister(sim::Program& program, Value bound)
    : bound_{bound} {
  if (bound < 1) throw std::invalid_argument{"SimAacMaxRegister: bound < 1"};
  const std::uint64_t capacity =
      util::next_pow2(static_cast<std::uint64_t>(bound));
  levels_ = util::floor_log2(capacity);
  switches_.reserve(capacity);
  for (std::uint64_t i = 0; i < capacity; ++i) {
    switches_.push_back(program.add_object(0));
  }
  any_write_ = program.add_object(0);
}

sim::Op SimAacMaxRegister::read_max(sim::Ctx& ctx) const {
  if (co_await ctx.read(any_write_) == 0) co_return kNoValue;
  std::uint64_t node = 1;
  Value acc = 0;
  Value half = levels_ > 0 ? Value{1} << (levels_ - 1) : 0;
  for (std::uint32_t d = 0; d < levels_; ++d, half >>= 1) {
    if (co_await ctx.read(switches_[node]) != 0) {
      acc += half;
      node = 2 * node + 1;
    } else {
      node = 2 * node;
    }
  }
  co_return acc;
}

sim::Op SimAacMaxRegister::write_max(sim::Ctx& ctx, Value v) const {
  assert(v >= 0 && v < bound_);
  std::uint64_t node = 1;
  Value half = levels_ > 0 ? Value{1} << (levels_ - 1) : 0;
  std::uint64_t right_turns[64];
  std::size_t num_right_turns = 0;
  Value rest = v;
  for (std::uint32_t d = 0; d < levels_; ++d, half >>= 1) {
    if (rest < half) {
      if (co_await ctx.read(switches_[node]) != 0) break;  // dominated
      node = 2 * node;
    } else {
      right_turns[num_right_turns++] = node;
      rest -= half;
      node = 2 * node + 1;
    }
  }
  for (std::size_t i = num_right_turns; i-- > 0;) {
    co_await ctx.write(switches_[right_turns[i]], 1);
  }
  co_await ctx.write(any_write_, 1);
  co_return 0;
}

// ------------------------------------------------------- spinlock baseline

SimLockMaxRegister::SimLockMaxRegister(sim::Program& program)
    : lock_{program.add_object(0)}, cell_{program.add_object(kNoValue)} {}

sim::Op SimLockMaxRegister::read_max(sim::Ctx& ctx) const {
  while (co_await ctx.cas(lock_, 0, 1) == 0) {
  }
  const Value v = co_await ctx.read(cell_);
  co_await ctx.write(lock_, 0);
  co_return v;
}

sim::Op SimLockMaxRegister::write_max(sim::Ctx& ctx, Value v) const {
  assert(v >= 0);
  while (co_await ctx.cas(lock_, 0, 1) == 0) {
  }
  const Value current = co_await ctx.read(cell_);
  if (v > current) co_await ctx.write(cell_, v);
  co_await ctx.write(lock_, 0);
  co_return 0;
}

// ------------------------------------------ unbounded AAC (B1 spine)

SimUnboundedAacMaxRegister::SimUnboundedAacMaxRegister(
    sim::Program& program, std::uint32_t max_groups)
    : max_groups_{max_groups} {
  if (max_groups < 1 || max_groups > 26) {
    throw std::invalid_argument{
        "SimUnboundedAacMaxRegister: max_groups out of [1, 26]"};
  }
  spine_.reserve(max_groups_);
  groups_.reserve(max_groups_);
  for (std::uint32_t g = 0; g < max_groups_; ++g) {
    spine_.push_back(program.add_object(0));
    groups_.push_back(
        std::make_unique<SimAacMaxRegister>(program, Value{1} << g));
  }
}

sim::Op SimUnboundedAacMaxRegister::read_max(sim::Ctx& ctx) const {
  std::uint32_t g = 0;
  while (g + 1 < max_groups_) {
    if (co_await ctx.read(spine_[g]) == 0) break;
    ++g;
  }
  const Value inner = co_await groups_[g]->read_max(ctx);
  if (inner == kNoValue) co_return kNoValue;
  co_return ((Value{1} << g) - 1) + inner;
}

sim::Op SimUnboundedAacMaxRegister::write_max(sim::Ctx& ctx, Value v) const {
  assert(v >= 0);
  const std::uint32_t g =
      util::floor_log2(static_cast<std::uint64_t>(v) + 1);
  if (g >= max_groups_) {
    throw std::out_of_range{
        "SimUnboundedAacMaxRegister: operand exceeds the group envelope"};
  }
  if (co_await ctx.read(spine_[g]) == 0) {
    co_await groups_[g]->write_max(ctx, v - ((Value{1} << g) - 1));
  }
  for (std::uint32_t s = g; s-- > 0;) {
    co_await ctx.write(spine_[s], 1);
  }
  co_return 0;
}

}  // namespace ruco::simalgos
