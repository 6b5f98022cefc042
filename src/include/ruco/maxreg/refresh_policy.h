// Refresh policy of the simulation-layer and weak-memory models of the
// Jayanti-style double-refresh propagation loop.  Production code
// (farray::propagate_wide, ruco/farray/wide_propagate.h) always runs
// kConditional.
#pragma once

#include <cstdint>

namespace ruco::maxreg {

/// How many refresh rounds a propagation performs per tree level.
///
/// The classic protocol is "refresh; if it failed, refresh again": the
/// second round exists only to cover the CAS the first round *lost*.  When
/// the first CAS succeeds its combine inputs were read after our child
/// update, so the node already covers us -- the second round is pure
/// overhead.  kConditional prunes it (and skips the CAS entirely when the
/// combine produces the value the node already holds); kAlwaysTwice is the
/// unconditional variant the seed shipped, kept as the differential oracle
/// the model-checker equivalence tests and ablation benches compare
/// against.  See wide_propagate.h for the soundness argument.
enum class RefreshPolicy : std::uint8_t {
  kConditional,  // skip round 2 after a won CAS; skip no-change CASes
  kAlwaysTwice,  // unconditional two CAS rounds per level (oracle)
};

}  // namespace ruco::maxreg
