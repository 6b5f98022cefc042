#include "ruco/sim/trace_render.h"

#include <algorithm>
#include <vector>

#include "ruco/sim/awareness.h"

namespace ruco::sim {

namespace {

std::string cell_text(const Event& e, bool mark_trivial) {
  std::string s;
  switch (e.prim) {
    case Prim::kRead:
      s = "read o" + std::to_string(e.obj) + " -> " +
          std::to_string(e.observed);
      break;
    case Prim::kWrite:
      s = "write o" + std::to_string(e.obj) + " := " + std::to_string(e.arg);
      break;
    case Prim::kCas:
      s = "cas o" + std::to_string(e.obj) + "(" + std::to_string(e.expected) +
          "->" + std::to_string(e.arg) + ") " +
          (e.observed != 0 ? "ok" : "fail");
      break;
    case Prim::kKcas: {
      s = "kcas";
      for (const auto& w : e.kcas) s += " o" + std::to_string(w.obj);
      s += e.observed != 0 ? " ok" : " fail";
      break;
    }
  }
  if (mark_trivial && !e.changed && e.prim != Prim::kRead) s += " .";
  return s;
}

}  // namespace

std::string render_trace(const Trace& trace, std::size_t num_processes,
                         const TraceRenderOptions& options) {
  const std::size_t limit =
      options.max_events == 0 ? trace.size()
                              : std::min(options.max_events, trace.size());
  // Column widths.
  std::vector<std::size_t> width(num_processes, 2);
  for (std::size_t p = 0; p < num_processes; ++p) {
    width[p] = std::max<std::size_t>(width[p], 1 + std::to_string(p).size());
  }
  std::vector<std::string> cells(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    cells[i] = cell_text(trace[i], options.mark_trivial);
    if (trace[i].proc < num_processes) {
      width[trace[i].proc] =
          std::max(width[trace[i].proc], cells[i].size());
    }
  }
  std::string out;
  for (std::size_t p = 0; p < num_processes; ++p) {
    std::string head = "p";  // not "p" + ...: GCC 12 -O3 -Wrestrict (105651)
    head += std::to_string(p);
    out += head + std::string(width[p] - head.size() + 2, ' ');
  }
  out += '\n';
  for (std::size_t i = 0; i < limit; ++i) {
    const ProcId p = trace[i].proc;
    for (std::size_t c = 0; c < num_processes; ++c) {
      if (c == p) {
        out += cells[i] + std::string(width[c] - cells[i].size() + 2, ' ');
      } else {
        out += std::string(width[c] + 2, ' ');
      }
    }
    while (!out.empty() && out.back() == ' ') out.pop_back();
    out += '\n';
  }
  if (limit < trace.size()) {
    out += "... (" + std::to_string(trace.size() - limit) + " more)\n";
  }
  return out;
}

std::string knowledge_dot(const Trace& trace, std::size_t num_processes,
                          std::size_t num_objects) {
  // For edge labels we track, per (learner, source), the object of the
  // event at which the learner first became aware of the source.
  struct Edge {
    ProcId from;
    ProcId to;
    ObjectId via;
  };
  std::vector<Edge> edges;
  // One first_aware_index pass per source process (O(sources * len));
  // recomputing full knowledge after every event would be quadratic in a
  // worse constant.
  for (ProcId source = 0; source < num_processes; ++source) {
    const auto first =
        first_aware_index(trace, num_processes, num_objects, source);
    for (ProcId learner = 0; learner < num_processes; ++learner) {
      if (learner == source || first[learner] == kNeverAware) continue;
      edges.push_back(
          Edge{source, learner, trace[first[learner]].obj});
    }
  }
  std::string out = "digraph knowledge {\n  rankdir=LR;\n";
  for (std::size_t p = 0; p < num_processes; ++p) {
    out += "  p" + std::to_string(p) + ";\n";
  }
  for (const Edge& e : edges) {
    out += "  p" + std::to_string(e.from) + " -> p" + std::to_string(e.to) +
           " [label=\"o" + std::to_string(e.via) + "\"];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace ruco::sim
