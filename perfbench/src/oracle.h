// The benchmark's correctness oracle.  Every check is made by the benchmark
// itself from the results its clients saw; nothing here asks the code under
// test whether it is right.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <vector>

#include "ruco/core/types.h"

namespace perfbench {

using ruco::Value;

/// Checks one client thread makes on the results of its own calls.  Each
/// failed check counts one failed operation.
class ClientOracle {
 public:
  /// `owned` lists the snapshot segments (logical processes) this client
  /// alone updates; all segments start at 0.
  ClientOracle(std::size_t num_segments, const std::vector<std::size_t>& owned);

  void wrote_max(Value v);
  /// Reads are monotone per thread and cover the thread's own last write.
  void read_max(Value v);
  void incremented() { ++own_increments_; }
  /// Monotone per thread and at least the thread's own increments.
  void read_counter(Value v);
  void updated_segment(std::size_t segment, Value v);
  /// Every segment is monotone per thread; owned segments equal this
  /// client's last update.
  void scanned(const std::vector<Value>& view);
  /// A cell no client transfers into or out of keeps its initial value.
  void read_fixed_cell(Value v, Value expected);

  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }
  [[nodiscard]] Value max_written() const noexcept { return max_written_; }
  [[nodiscard]] Value increments() const noexcept { return own_increments_; }
  /// This client's last update of an owned segment (0 before the first).
  [[nodiscard]] Value last_update(std::size_t segment) const {
    return own_last_.at(segment);
  }

 private:
  void check(bool ok) noexcept { failures_ += ok ? 0 : 1; }

  Value last_max_read_ = ruco::kNoValue;
  Value max_written_ = ruco::kNoValue;
  Value last_counter_read_ = 0;
  Value own_increments_ = 0;
  std::vector<Value> last_scan_;
  std::vector<Value> own_last_;  // kNotOwned for other clients' segments
  std::uint64_t failures_ = 0;

  static constexpr Value kNotOwned = -1;
};

/// Object state after every client finished, and what the clients did.
struct FinalState {
  Value read_max = ruco::kNoValue;
  Value max_written = ruco::kNoValue;
  Value counter = 0;
  Value increments = 0;
  std::vector<Value> scan;          // empty when the workload has no snapshot
  std::vector<Value> last_updates;  // per segment, 0 if never updated
  Value cell_sum = 0;
  Value initial_cell_sum = 0;
};

/// Number of end-of-round checks that fail: final read_max equals the
/// maximum written, the counter equals the increments, the scan equals each
/// process's last update, the cell sum is preserved.
[[nodiscard]] std::uint64_t final_failures(const FinalState& s);

/// job -> verdict
using Verdicts = std::map<std::string, std::string>;

/// Reads "job verdict" lines; blank lines and '#' comments are skipped.
/// Throws std::runtime_error on a malformed or duplicated line.
[[nodiscard]] Verdicts parse_verdicts(std::istream& in);

/// Jobs whose verdict differs from the expected one, including jobs
/// missing on either side.
[[nodiscard]] std::vector<std::string> wrong_verdicts(const Verdicts& expected,
                                                      const Verdicts& actual);

}  // namespace perfbench
