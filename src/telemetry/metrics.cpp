#include "ruco/telemetry/metrics.h"

namespace ruco::telemetry {

namespace detail {

ProdMetrics make_prod_metrics() {
  Registry& r = Registry::global();
  ProdMetrics m;
  m.maxreg_cas_attempts = r.counter("maxreg", "cas_attempts");
  m.maxreg_cas_failures = r.counter("maxreg", "cas_failures");
  m.propagate_cas_attempts = r.counter("maxreg", "propagate_cas_attempts");
  m.propagate_cas_failures = r.counter("maxreg", "propagate_cas_failures");
  m.propagate_levels = r.counter("maxreg", "propagate_levels");
  m.propagate_second_rounds = r.counter("maxreg", "propagate_second_rounds");
  m.propagate_cas_skips = r.counter("maxreg", "propagate_cas_skips");
  // 32 depth buckets cover every B1-tree the value-bound shapes produce
  // (depth <= log2(k) and benches stop well short of k = 2^32).
  m.tree_descent_depth = r.histogram("maxreg", "tree_descent_depth", 32);
  m.tree_duplicate_writes = r.counter("maxreg", "tree_duplicate_writes");
  m.tree_root_fastpath = r.counter("maxreg", "tree_root_fastpath");
  m.aac_write_abandons = r.counter("maxreg", "aac_write_abandons");
  m.aac_switches_set = r.counter("maxreg", "aac_switches_set");
  m.mcas_ops = r.counter("mcas", "ops");
  m.mcas_helps = r.counter("mcas", "helps");
  m.mcas_rdcss_helps = r.counter("mcas", "rdcss_helps");
  m.mcas_cas_failures = r.counter("mcas", "cas_failures");
  m.reclaim_retired = r.counter("reclaim", "retired");
  m.reclaim_freed = r.counter("reclaim", "freed");
  m.harness_runs = r.counter("runtime", "harness_runs");
  m.harness_threads = r.counter("runtime", "harness_threads");
  m.harness_wall_us = r.counter("runtime", "harness_wall_us");
  m.harness_body_us = r.counter("runtime", "harness_body_us");
  return m;
}

}  // namespace detail

}  // namespace ruco::telemetry
