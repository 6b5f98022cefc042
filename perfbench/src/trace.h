// Spans the benchmark records around its calls into each layer.  Clients
// keep them in memory, one lane per thread; the traced run writes them out
// at the end as one Perfetto timeline through telemetry::TimelineWriter.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::uint32_t kNoParent = UINT32_MAX;

/// One call the benchmark timed, appended to its lane when it begins.
/// `name` indexes the caller's name table;
/// `parent` is the index, in the same lane, of the span that issued it.
/// `steps` and `heap_bytes` are the calling thread's shared-memory steps
/// (runtime::thread_steps) and net heap bytes over the call, traced runs
/// only.
struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t steps = 0;
  std::int64_t heap_bytes = 0;
};

/// Nanoseconds on the steady clock since the first call in the process.
[[nodiscard]] std::int64_t now_ns();

/// CPU time of the calling thread.  The kernel's paravirtual steal-time
/// accounting leaves out the time the hypervisor ran other guests.
[[nodiscard]] std::int64_t thread_cpu_ns();

/// Writes each lane as one named track (its first `max_spans_per_lane`
/// spans, which must be in start order, as spans appended when they begin
/// are).  Returns an empty string on success, else the error.
[[nodiscard]] std::string write_timeline(
    const std::string& path, const std::string& process_name,
    const std::vector<std::string>& span_names,
    const std::vector<std::string>& lane_names,
    const std::vector<std::vector<Span>>& lanes,
    std::size_t max_spans_per_lane);

}  // namespace perfbench
