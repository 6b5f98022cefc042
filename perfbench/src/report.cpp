#include "report.h"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs{
      {"ops_per_s", "1/s"},
      {"read_p50_ns", "ns"},
      {"read_p99_ns", "ns"},
      {"update_p50_ns", "ns"},
      {"update_p99_ns", "ns"},
      {"retained_bytes_per_update", "B/update"},
      {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
      {"verdict_s", "s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs{
      {"maxreg.write_p50_ns", "ns"},
      {"maxreg.write_p99_ns", "ns"},
      {"maxreg.read_p50_ns", "ns"},
      {"maxreg.steps_per_write", "steps/write"},
      {"maxreg.cas_fail_ratio", "ratio"},
      {"maxreg.root_fastpath_ratio", "ratio"},
      {"maxreg.second_round_ratio", "ratio"},
      {"counter.inc_p50_ns", "ns"},
      {"counter.inc_p99_ns", "ns"},
      {"counter.read_p50_ns", "ns"},
      {"counter.steps_per_inc", "steps/inc"},
      {"snapshot.update_p50_ns", "ns"},
      {"snapshot.scan_p50_ns", "ns"},
      {"snapshot.scan_p99_ns", "ns"},
      {"snapshot.bytes_per_update", "B/update"},
      {"kcas.dcas_p50_ns", "ns"},
      {"kcas.dcas_p99_ns", "ns"},
      {"kcas.success_ratio", "ratio"},
      {"kcas.helps_per_op", "helps/op"},
      {"kcas.bytes_per_op", "B/op"},
      {"mc.wall_s", "s"},
      {"mc.executions", "count"},
      {"mc.nodes", "count"},
      {"mc.replayed_steps", "count"},
      {"mc.steps_per_s", "steps/s"},
      {"certify.wall_s", "s"},
      {"certify.runs", "count"},
      {"lincheck.wall_s", "s"},
      {"lincheck.histories", "count"},
      {"wmm.wall_s", "s"},
      {"wmm.executions", "count"},
      {"adversary.wall_s", "s"},
      {"adversary.iterations", "count"},
      {"samples.read", "count"},
      {"samples.update", "count"},
      {"trace_overhead_ratio", "ratio"},
  };
  return defs;
}

void print_result(std::ostream& out, const RunConfig& cfg,
                  const RunResult& result) {
  const auto& defs = cfg.trace ? per_layer_metrics() : end_to_end_metrics();
  if (result.metrics.size() != defs.size()) {
    throw std::logic_error("workload reported " +
                           std::to_string(result.metrics.size()) +
                           " metrics, the catalogue has " +
                           std::to_string(defs.size()));
  }
  for (const auto& line : result.notes) out << line << "\n";
  std::ostringstream json;
  json << std::setprecision(17);
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& def : defs) {
    const auto it = result.metrics.find(def.name);
    if (it == result.metrics.end()) {
      throw std::logic_error(std::string{"missing metric "} + def.name);
    }
    if (!std::isfinite(it->second)) {
      throw std::logic_error(std::string{"non-finite metric "} + def.name);
    }
    out << std::left << std::setw(28) << def.name << std::right
        << std::setw(18) << std::setprecision(6) << it->second << " "
        << def.unit << "\n";
    json << (first ? "" : ", ") << "\"" << def.name
         << "\": {\"value\": " << it->second << ", \"unit\": \"" << def.unit
         << "\"}";
    first = false;
  }
  json << "}}";
  out << json.str() << std::endl;
}

}  // namespace perfbench
