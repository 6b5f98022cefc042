// Jayanti f-array single-writer snapshot (PODC'02, reference [14]; the
// paper's Section 3 notes the construction "can be made to work also using
// CAS instead" of LL/SC -- this is that CAS variant):
//
//   Scan   : O(1) steps  -- read one root pointer to an immutable view.
//   Update : O(log N) steps -- write own leaf, double-CAS-merge the path.
//
// Together with Corollary 1 this object witnesses that the snapshot
// tradeoff is tight at the f(N) = O(1) end: Scan O(1) forces Update
// Omega(log N), and the f-array meets it.
//
// Every node stores a pointer to an immutable View of its subtree's
// (value, seq) pairs: one allocation, header and entries inline.  Merging
// allocates a fresh View; views are componentwise seq-monotone, so the
// double-CAS propagation argument of Algorithm A (Lemmas 8-9) applies
// verbatim.
//
// Memory is reclaimed by epochs (ruco/reclaim/ebr.h).  scan and update pin
// for their whole duration; the CAS winner at a node retires the view it
// replaced, the owner retires its old leaf view, and a merged view whose
// CAS lost was never published and is freed at once.  A retired view stays
// allocated while any thread that could have loaded it is pinned, so no
// address a propagation loaded can be reused under it: CAS stays ABA-free,
// and the live memory of the object is bounded by its current views (one
// per node) plus the views awaiting their grace period, whatever the
// number of updates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ruco/core/types.h"
#include "ruco/runtime/padded.h"
#include "ruco/util/tree_shape.h"

namespace ruco::snapshot {

class FArraySnapshot {
 public:
  explicit FArraySnapshot(std::uint32_t num_processes);
  ~FArraySnapshot();
  FArraySnapshot(const FArraySnapshot&) = delete;
  FArraySnapshot& operator=(const FArraySnapshot&) = delete;

  /// Atomically sets segment `proc` to v >= 0.  O(log N) steps.
  void update(ProcId proc, Value v);

  /// All N segments at one instant.  One shared-memory step.
  [[nodiscard]] std::vector<Value> scan(ProcId proc) const;

  /// Scan returning (value, seq) pairs -- used by the monotonicity
  /// property tests.
  [[nodiscard]] std::vector<std::pair<Value, std::uint64_t>> scan_versions(
      ProcId proc) const;

  [[nodiscard]] std::uint32_t num_processes() const noexcept { return n_; }

 private:
  struct Entry {
    Value value = 0;
    std::uint64_t seq = 0;
  };
  // Immutable once published.  `size` entries follow the header in the
  // same allocation, one per leaf of the node's subtree, ordered by leaf
  // index.
  struct View {
    std::size_t size;

    [[nodiscard]] Entry* entries() noexcept {
      return reinterpret_cast<Entry*>(this + 1);
    }
    [[nodiscard]] const Entry* entries() const noexcept {
      return reinterpret_cast<const Entry*>(this + 1);
    }
    [[nodiscard]] static std::size_t bytes(std::size_t size) noexcept;
    [[nodiscard]] static View* make(std::size_t size);
    static void destroy(void* view) noexcept;
  };
  static_assert(sizeof(View) % alignof(Entry) == 0);

  struct RetireViews;

  [[nodiscard]] static const View* merge(const View* l, const View* r);

  std::uint32_t n_;
  util::TreeShape shape_;
  std::vector<runtime::PaddedAtomic<const View*>> nodes_;
  std::vector<runtime::PaddedAtomic<std::uint64_t>> seq_;  // per-writer
};

}  // namespace ruco::snapshot
