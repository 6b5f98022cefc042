#include "trace.h"

#include <time.h>

#include <algorithm>
#include <sstream>

#include "ruco/telemetry/timeline.h"

namespace perfbench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::string write_timeline(const std::string& path,
                           const std::string& process_name,
                           const std::vector<std::string>& span_names,
                           const std::vector<std::string>& lane_names,
                           const std::vector<std::vector<Span>>& lanes,
                           std::size_t max_spans_per_lane) {
  ruco::telemetry::TimelineWriter out;
  constexpr std::uint32_t kPid = 1;
  out.set_process_name(kPid, process_name);
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const auto tid = static_cast<std::uint32_t>(lane);
    out.set_thread_name(kPid, tid, lane_names.at(lane));
    const std::size_t n = std::min(lanes[lane].size(), max_spans_per_lane);
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = lanes[lane][i];
      std::ostringstream args;
      args << "{\"span\":" << i << ",\"steps\":" << s.steps
           << ",\"heap_bytes\":" << s.heap_bytes << ",\"dur_ns\":" << s.dur_ns;
      if (s.parent != kNoParent && s.parent < lanes[lane].size()) {
        args << ",\"parent_span\":" << s.parent << ",\"parent\":\""
             << span_names.at(lanes[lane][s.parent].name) << "\"";
      }
      args << "}";
      out.complete(kPid, tid, span_names.at(s.name),
                   static_cast<std::uint64_t>(s.start_ns / 1000),
                   static_cast<std::uint64_t>(s.dur_ns / 1000), args.str());
    }
  }
  std::string err = out.validate();
  if (!err.empty()) return "invalid timeline: " + err;
  if (!out.write_file(path)) return "cannot write " + path;
  return {};
}

}  // namespace perfbench
