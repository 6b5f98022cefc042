// Dense process-id set over a fixed universe [0, N): the representation of
// the paper's awareness sets AW(p, E) and familiarity sets F(o, E)
// (Definitions 3-4).  A flat bitset: union and intersection are word-wise,
// which keeps the System's knowledge cache cheap even at N = 4096.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ruco/core/types.h"

namespace ruco::sim {

class ProcSet {
 public:
  /// Sentinel returned by next() when no member >= `from` exists.
  static constexpr ProcId kNone = UINT32_MAX;

  ProcSet() = default;
  explicit ProcSet(std::size_t universe)
      : universe_{universe}, words_((universe + 63) / 64, 0) {}

  void add(ProcId p) { words_[p >> 6] |= std::uint64_t{1} << (p & 63); }
  void remove(ProcId p) { words_[p >> 6] &= ~(std::uint64_t{1} << (p & 63)); }
  [[nodiscard]] bool contains(ProcId p) const {
    return (words_[p >> 6] >> (p & 63)) & 1;
  }

  void unite(const ProcSet& other) {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
  }
  void clear() {
    for (auto& w : words_) w = 0;
  }

  /// First member >= `from`, or kNone.  Allocation-free iteration:
  ///   for (ProcId p = s.next(0); p != ProcSet::kNone; p = s.next(p + 1))
  /// Word-wise scan with a countr_zero on the first non-empty word, so a
  /// full sweep costs O(N/64) even when the set is sparse -- this is what
  /// the model checker's per-node ready scans use.
  [[nodiscard]] ProcId next(ProcId from) const noexcept {
    std::size_t w = from >> 6;
    if (w >= words_.size()) return kNone;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from & 63));
    while (true) {
      if (bits != 0) {
        return static_cast<ProcId>((w << 6) + std::countr_zero(bits));
      }
      if (++w >= words_.size()) return kNone;
      bits = words_[w];
    }
  }

  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] bool empty() const;
  [[nodiscard]] bool intersects(const ProcSet& other) const;
  /// Members of this-set intersected with `other`, ascending.
  [[nodiscard]] std::vector<ProcId> intersection(const ProcSet& other) const;
  [[nodiscard]] std::vector<ProcId> members() const;
  [[nodiscard]] std::size_t universe() const noexcept { return universe_; }

  friend bool operator==(const ProcSet&, const ProcSet&) = default;

 private:
  std::size_t universe_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ruco::sim
