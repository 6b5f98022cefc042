#include "ruco/simalgos/sim_counters.h"

#include <cassert>
#include <stdexcept>

namespace ruco::simalgos {

// ------------------------------------------------------------ f-array (sum)

SimFArrayCounter::SimFArrayCounter(sim::Program& program,
                                   std::uint32_t num_processes,
                                   maxreg::RefreshPolicy policy)
    : n_{num_processes},
      levels_{farray::wide_levels(num_processes)},
      objects_(farray::wide_cell_count(levels_), sim::ObjectId{0}),
      policy_{policy} {
  for (const farray::Level& level : levels_) {
    for (std::uint32_t i = 0; i < level.count; ++i) {
      objects_[level.offset + i] = program.add_object(0);
    }
  }
}

sim::Op SimFArrayCounter::read(sim::Ctx& ctx) const {
  co_return co_await ctx.read(root_object());
}

namespace {
Value combine_sum(Value l, Value r) { return l + r; }
}  // namespace

sim::Op SimFArrayCounter::increment(sim::Ctx& ctx) const {
  const std::uint32_t leaf = ctx.id();
  const Value mine = co_await ctx.read(objects_[leaf]);
  co_await ctx.write(objects_[leaf], mine + 1);
  co_await propagate_wide(ctx, farray::WideWalk{levels_, leaf}, objects_,
                          combine_sum, policy_);
  co_return 0;
}

// ------------------------------------------------- AAC counter (rw-only)

SimMaxRegCounter::SimMaxRegCounter(sim::Program& program,
                                   std::uint32_t num_processes,
                                   Value max_increments)
    : n_{num_processes},
      bound_{max_increments + 1},
      shape_{util::complete_shape(num_processes)},
      nodes_(shape_.node_count()) {
  if (max_increments < 1) {
    throw std::invalid_argument{"SimMaxRegCounter: max_increments < 1"};
  }
  leaf_counts_.reserve(num_processes);
  for (std::uint32_t i = 0; i < num_processes; ++i) {
    leaf_counts_.push_back(program.add_object(0));
  }
  for (util::TreeShape::NodeId id = 0; id < shape_.node_count(); ++id) {
    if (!shape_.is_leaf(id)) {
      nodes_[id] = std::make_unique<SimAacMaxRegister>(program, bound_);
    }
  }
}

sim::Op SimMaxRegCounter::node_value(sim::Ctx& ctx,
                                     util::TreeShape::NodeId node) const {
  if (shape_.is_leaf(node)) {
    co_return co_await ctx.read(leaf_counts_[shape_.leaf_index(node)]);
  }
  const Value v = co_await nodes_[node]->read_max(ctx);
  co_return v == kNoValue ? 0 : v;
}

sim::Op SimMaxRegCounter::read(sim::Ctx& ctx) const {
  co_return co_await node_value(ctx, shape_.root());
}

sim::Op SimMaxRegCounter::increment(sim::Ctx& ctx) const {
  assert(ctx.id() < n_);
  const auto leaf = shape_.leaf(ctx.id());
  const Value mine = co_await ctx.read(leaf_counts_[ctx.id()]) + 1;
  if (mine >= bound_) {
    throw std::length_error{"SimMaxRegCounter: restricted-use bound exceeded"};
  }
  co_await ctx.write(leaf_counts_[ctx.id()], mine);
  for (auto node = shape_.parent(leaf); node != util::TreeShape::kNil;
       node = shape_.parent(node)) {
    const Value left_sum = co_await node_value(ctx, shape_.left(node));
    const Value right_sum = co_await node_value(ctx, shape_.right(node));
    const Value sum = left_sum + right_sum;
    if (sum >= bound_) {
      throw std::length_error{
          "SimMaxRegCounter: restricted-use bound exceeded"};
    }
    co_await nodes_[node]->write_max(ctx, sum);
  }
  co_return 0;
}

// ------------------------------------------------- 2-CAS counter ([6])

SimKcasCounter::SimKcasCounter(sim::Program& program,
                               std::uint32_t num_processes)
    : n_{num_processes}, root_{program.add_object(0)} {
  leaves_.reserve(num_processes);
  for (std::uint32_t i = 0; i < num_processes; ++i) {
    leaves_.push_back(program.add_object(0));
  }
}

sim::Op SimKcasCounter::read(sim::Ctx& ctx) const {
  co_return co_await ctx.read(root_);
}

sim::Op SimKcasCounter::increment(sim::Ctx& ctx) const {
  const sim::ObjectId leaf = leaves_[ctx.id()];
  for (;;) {
    const Value mine = co_await ctx.read(leaf);
    const Value total = co_await ctx.read(root_);
    // Built without an initializer_list: GCC 12 cannot materialize one
    // inside a coroutine frame.
    std::vector<sim::KcasEntry> words(2);
    words[0] = sim::KcasEntry{leaf, mine, mine + 1};
    words[1] = sim::KcasEntry{root_, total, total + 1};
    const Value ok = co_await ctx.kcas(std::move(words));
    if (ok != 0) co_return 0;
  }
}

}  // namespace ruco::simalgos
