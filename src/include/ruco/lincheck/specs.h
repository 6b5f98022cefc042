// Sequential specifications of the object families, consumed by the
// Wing-Gong checker.  A Spec provides:
//   State            -- value-semantic, hashable via Spec::hash, comparable;
//   initial()        -- the state before any operation;
//   apply(state, op) -- nullopt if the op's *recorded response* is
//                       impossible from `state`; otherwise the next state.
// Pending (unreturned) operations have unconstrained responses: apply
// validates only the state transition for them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "ruco/lincheck/history.h"

namespace ruco::lincheck {

/// Max register: WriteMax(v) raises the maximum; ReadMax returns it
/// (kNoValue before any write) -- Section 2 of the paper.
struct MaxRegisterSpec {
  using State = Value;

  [[nodiscard]] State initial() const { return kNoValue; }

  [[nodiscard]] std::optional<State> apply(const State& s,
                                           const OpRecord& op) const {
    if (op.op == "WriteMax") return std::max(s, op.arg);
    if (op.op == "ReadMax") {
      if (!op.pending() && op.ret != s) return std::nullopt;
      return s;
    }
    return std::nullopt;  // unknown operation
  }

  [[nodiscard]] static std::size_t hash(const State& s) {
    return std::hash<Value>{}(s);
  }
};

/// Counter: CounterRead returns the number of preceding increments.
struct CounterSpec {
  using State = Value;

  [[nodiscard]] State initial() const { return 0; }

  [[nodiscard]] std::optional<State> apply(const State& s,
                                           const OpRecord& op) const {
    if (op.op == "CounterIncrement") return s + 1;
    if (op.op == "CounterRead") {
      if (!op.pending() && op.ret != s) return std::nullopt;
      return s;
    }
    return std::nullopt;
  }

  [[nodiscard]] static std::size_t hash(const State& s) {
    return std::hash<Value>{}(s);
  }
};

/// Single-writer snapshot: Update(proc, v) sets segment proc; Scan returns
/// the whole array.  Segments start at 0.
struct SnapshotSpec {
  using State = std::vector<Value>;

  explicit SnapshotSpec(std::size_t num_segments) : n_{num_segments} {}

  [[nodiscard]] State initial() const { return State(n_, 0); }

  [[nodiscard]] std::optional<State> apply(const State& s,
                                           const OpRecord& op) const {
    if (op.op == "Update") {
      State next = s;
      next[op.proc] = op.arg;
      return next;
    }
    if (op.op == "Scan") {
      if (!op.pending() && op.ret_vec != s) return std::nullopt;
      return s;
    }
    return std::nullopt;
  }

  [[nodiscard]] static std::size_t hash(const State& s) {
    std::size_t h = 1469598103934665603ull;
    for (const Value v : s) {
      h ^= std::hash<Value>{}(v);
      h *= 1099511628211ull;
    }
    return h;
  }

 private:
  std::size_t n_;
};

/// McasArray cells under Read(i) and Dcas transfers of one unit from cell
/// a to cell b, recorded with their parameters {a, b, expected_a,
/// expected_b, succeeded} in ret_vec.  Every cell starts at `init`.
struct CellsSpec {
  using State = std::vector<Value>;

  std::size_t cells = 0;
  Value init = 0;

  [[nodiscard]] State initial() const { return State(cells, init); }

  [[nodiscard]] std::optional<State> apply(const State& s,
                                           const OpRecord& op) const {
    if (op.op == "Read") {
      if (s[static_cast<std::size_t>(op.arg)] != op.ret) return std::nullopt;
      return s;
    }
    if (op.op == "Dcas") {
      const auto& r = op.ret_vec;
      const auto a = static_cast<std::size_t>(r[0]);
      const auto b = static_cast<std::size_t>(r[1]);
      const bool match = s[a] == r[2] && s[b] == r[3];
      if (match != (r[4] != 0)) return std::nullopt;
      if (!match) return s;
      State next = s;
      next[a] -= 1;
      next[b] += 1;
      return next;
    }
    return std::nullopt;
  }

  [[nodiscard]] static std::size_t hash(const State& s) {
    return SnapshotSpec::hash(s);
  }
};

}  // namespace ruco::lincheck
