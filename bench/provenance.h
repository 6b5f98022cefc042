// Build and host provenance for the bench binaries' --json output: the CPUs
// the process may run on and the build type and compiler it was built
// with, so a recorded figure says which machine and build produced it.
// RUCO_BUILD_TYPE and RUCO_COMPILER are compile definitions set in
// bench/CMakeLists.txt.
#pragma once

#include <cstddef>
#include <ostream>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

namespace ruco::bench {

/// The CPUs this process may run on, counted as nproc(1) counts them.
inline std::size_t usable_cpus() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
#endif
  return std::thread::hardware_concurrency();
}

/// Writes the top-level `"nproc"`, `"build_type"` and `"compiler"` members,
/// each line indented by two spaces and ended by a comma.
inline void write_provenance(std::ostream& out) {
  out << "  \"nproc\": " << usable_cpus() << ",\n  \"build_type\": \""
      << RUCO_BUILD_TYPE << "\",\n  \"compiler\": \"" << RUCO_COMPILER
      << "\",\n";
}

}  // namespace ruco::bench
