// The metric catalogue (the same names and units BENCHMARK.json declares)
// and the result every workload returns.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by untraced runs (--trace 0), on every workload.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// Reported by traced runs (--trace 1), on every workload; a layer the
/// workload does not call reports 0.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expected_verdicts;  // verify only
  std::string timeline;           // traced runs write their spans here
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result (sample counts,
  /// failure ratio, verdict table).
  std::vector<std::string> notes;
};

/// Prints the notes, a name/value/unit table of the mode's metrics and, as
/// the last line, the JSON result.  Throws std::logic_error when a metric
/// of the mode's catalogue is missing or an unknown one is present.
void print_result(std::ostream& out, const RunConfig& cfg,
                  const RunResult& result);

}  // namespace perfbench
