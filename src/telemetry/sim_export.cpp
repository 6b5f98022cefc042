#include "ruco/telemetry/sim_export.h"

#include <sstream>

#include "ruco/sim/awareness.h"

namespace ruco::telemetry {

using sim::Event;
using sim::HistoryEvent;
using sim::Prim;
using sim::Trace;

double ContentionReport::steps_per_op() const noexcept {
  std::uint64_t returned = 0;
  for (const ProcContention& p : procs) returned += p.ops_returned;
  if (returned == 0) return 0.0;
  return static_cast<double>(total_steps) / static_cast<double>(returned);
}

double ContentionReport::cas_fail_rate() const noexcept {
  std::uint64_t ok = 0;
  std::uint64_t fail = 0;
  for (const ObjectContention& o : objects) {
    ok += o.cas_ok;
    fail += o.cas_fail;
  }
  if (ok + fail == 0) return 0.0;
  return static_cast<double>(fail) / static_cast<double>(ok + fail);
}

std::string ContentionReport::to_json() const {
  std::ostringstream out;
  out << "{\"total_steps\":" << total_steps
      << ",\"steps_per_op\":" << steps_per_op()
      << ",\"cas_fail_rate\":" << cas_fail_rate() << ",\"objects\":[";
  for (std::size_t o = 0; o < objects.size(); ++o) {
    const ObjectContention& c = objects[o];
    if (o != 0) out << ',';
    out << "{\"object\":" << o << ",\"reads\":" << c.reads
        << ",\"writes\":" << c.writes << ",\"cas_ok\":" << c.cas_ok
        << ",\"cas_fail\":" << c.cas_fail << ",\"spurious\":" << c.spurious
        << ",\"kcas\":" << c.kcas << ",\"total\":" << c.total() << '}';
  }
  out << "],\"processes\":[";
  for (std::size_t p = 0; p < procs.size(); ++p) {
    const ProcContention& c = procs[p];
    if (p != 0) out << ',';
    out << "{\"process\":" << p << ",\"steps\":" << c.steps
        << ",\"ops_invoked\":" << c.ops_invoked
        << ",\"ops_returned\":" << c.ops_returned
        << ",\"cas_fail\":" << c.cas_fail
        << ",\"crashed\":" << (c.crashed ? "true" : "false") << '}';
  }
  out << "]}";
  return out.str();
}

ContentionReport contention_report(const sim::System& sys) {
  ContentionReport r;
  r.objects.resize(sys.num_objects());
  r.procs.resize(sys.num_processes());
  const Trace& trace = sys.trace();
  r.total_steps = trace.size();
  for (const Event& e : trace) {
    ObjectContention& oc = r.objects[e.obj];
    ProcContention& pc = r.procs[e.proc];
    ++pc.steps;
    switch (e.prim) {
      case Prim::kRead:
        ++oc.reads;
        break;
      case Prim::kWrite:
        ++oc.writes;
        break;
      case Prim::kCas:
        if (e.observed != 0) {
          ++oc.cas_ok;
        } else {
          ++oc.cas_fail;
          ++pc.cas_fail;
          if (e.spurious) ++oc.spurious;
        }
        break;
      case Prim::kKcas:
        ++oc.kcas;
        if (e.observed == 0) ++pc.cas_fail;
        break;
    }
  }
  for (const HistoryEvent& h : sys.history()) {
    if (h.kind == HistoryEvent::Kind::kInvoke) {
      ++r.procs[h.proc].ops_invoked;
    } else {
      ++r.procs[h.proc].ops_returned;
    }
  }
  for (ProcId p = 0; p < r.procs.size(); ++p) {
    r.procs[p].crashed = sys.crashed(p);
  }
  return r;
}

namespace {

std::string slice_name(const Event& e) {
  std::ostringstream out;
  switch (e.prim) {
    case Prim::kRead:
      out << "read o" << e.obj << " -> " << e.observed;
      break;
    case Prim::kWrite:
      out << "write o" << e.obj << " := " << e.arg;
      break;
    case Prim::kCas:
      out << "cas o" << e.obj << ' ' << e.expected << "->" << e.arg
          << (e.observed != 0 ? " ok" : e.spurious ? " spurious" : " fail");
      break;
    case Prim::kKcas:
      out << e.kcas_count << "-cas o" << e.obj
          << (e.observed != 0 ? " ok" : " fail");
      break;
  }
  return out.str();
}

}  // namespace

void sim_timeline(const sim::System& sys, TimelineWriter& out,
                  const SimTimelineOptions& opts) {
  constexpr std::uint32_t kPid = 0;
  const Trace& trace = sys.trace();
  const std::size_t n = sys.num_processes();
  out.set_process_name(kPid, "simulator");
  for (std::uint32_t p = 0; p < n; ++p) {
    std::string name = "P";  // not "P" + ...: GCC 12 -O3 -Wrestrict (105651)
    name += std::to_string(p);
    out.set_thread_name(kPid, p, name);
  }
  std::vector<std::uint64_t> last_event(n, 0);
  std::vector<bool> stepped(n, false);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Event& e = trace[i];
    std::ostringstream args;
    args << "{\"changed\":" << (e.changed ? "true" : "false")
         << ",\"observed\":" << e.observed << '}';
    out.complete(kPid, e.proc, slice_name(e), i, 1, args.str());
    if (e.spurious) {
      out.instant(kPid, e.proc, "spurious CAS failure", i);
    }
    last_event[e.proc] = i;
    stepped[e.proc] = true;
  }
  // A crash is not a trace event; mark it just after the victim's last step
  // (or at 0 if it crashed before ever stepping).
  for (std::uint32_t p = 0; p < n; ++p) {
    if (sys.crashed(p)) {
      out.instant(kPid, p, "crash", stepped[p] ? last_event[p] + 1 : 0);
    }
  }
  if (opts.awareness_edges && !trace.empty()) {
    std::uint64_t flow_id = 1;
    for (std::uint32_t target = 0; target < n; ++target) {
      const std::vector<std::uint64_t> aware = sim::first_aware_index(
          trace, n, sys.num_objects(), static_cast<ProcId>(target));
      const std::uint64_t origin = aware[target];  // target's first event
      if (origin == sim::kNeverAware) continue;
      for (std::uint32_t p = 0; p < n; ++p) {
        if (p == target || aware[p] == sim::kNeverAware) continue;
        const std::string name = "aware of P" + std::to_string(target);
        out.flow_start(kPid, target, name, origin, flow_id);
        out.flow_end(kPid, p, name, aware[p], flow_id);
        ++flow_id;
      }
    }
  }
}

}  // namespace ruco::telemetry
