// Process-wide metric handles for the production (hardware) layer.
//
// Every hot-path instrumentation site in maxreg/kcas/farray/runtime pulls
// its handle from this struct instead of registering by name inline, so
//   * registration cost is paid once, at first use, and
//   * the full metric namespace is visible in one place.
//
// All handles live in Registry::global().  With RUCO_NO_TELEMETRY the
// handle mutators are empty inline functions (ruco/telemetry/registry.h),
// so call sites need no #ifdefs of their own.
#pragma once

#include "ruco/telemetry/registry.h"

namespace ruco::telemetry {

struct ProdMetrics {
  // maxreg: CAS-loop behavior of the max register family.
  Counter maxreg_cas_attempts;   // CAS issued by CasMaxRegister::write_max
  Counter maxreg_cas_failures;   // ... that lost the race
  // propagate_*: the one propagation loop (farray::propagate_wide).
  Counter propagate_cas_attempts;  // CASes actually issued
  Counter propagate_cas_failures;
  Counter propagate_levels;        // tree levels walked
  Counter propagate_second_rounds;  // levels whose first refresh lost its CAS
  Counter propagate_cas_skips;      // pure-load levels (combine == node value)
  Histogram tree_descent_depth;    // B1-tree leaf depth per write_max
  Counter tree_duplicate_writes;   // write_max early-returns (value present)
  Counter tree_root_fastpath;      // write_max early-returns (root >= v)
  Counter aac_write_abandons;      // AAC writes abandoned by a larger writer
  Counter aac_switches_set;        // AAC switch nodes flipped

  // kcas: helping economy of HFP MCAS.
  Counter mcas_ops;            // top-level mcas() calls
  Counter mcas_helps;          // phase 1 helped another op after its wait
  Counter mcas_rdcss_helps;    // parked RDCSS an acquirer completed
  Counter mcas_cas_failures;   // failed phase-1 rdcss acquisitions

  // reclaim: epoch-based reclamation of snapshot views and descriptors.
  // retired - freed is the number of objects awaiting their grace period.
  Counter reclaim_retired;  // objects queued by reclaim::retire
  Counter reclaim_freed;    // ... whose deleter has run

  // runtime: thread-harness phase accounting.
  Counter harness_runs;      // run_threads invocations
  Counter harness_threads;   // threads launched in total
  Counter harness_wall_us;   // wall time of whole run_threads calls
  Counter harness_body_us;   // wall time inside the post-barrier body
};

namespace detail {
[[nodiscard]] ProdMetrics make_prod_metrics();
}  // namespace detail

/// The lazily-registered singleton.  First call registers everything in
/// Registry::global(); later calls cost one inlined init-guard check --
/// hot instrumentation sites call this per operation, so it must not be a
/// function call.
[[nodiscard]] inline const ProdMetrics& prod() {
  static const ProdMetrics m = detail::make_prod_metrics();
  return m;
}

}  // namespace ruco::telemetry
