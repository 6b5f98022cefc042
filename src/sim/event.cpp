#include "ruco/sim/event.h"

namespace ruco::sim {

const char* to_string(Prim p) noexcept {
  switch (p) {
    case Prim::kRead:
      return "read";
    case Prim::kWrite:
      return "write";
    case Prim::kCas:
      return "cas";
    case Prim::kKcas:
      return "kcas";
  }
  return "?";
}

std::string Event::to_string() const {
  // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict on
  // "literal" + std::string&& (GCC bug 105651).
  std::string s = "p";
  s += std::to_string(proc);
  if (prim == Prim::kKcas) {
    s += " kcas";
    for (const auto& entry : kcas) {
      s += " o";
      s += std::to_string(entry.obj);
      s += '(';
      s += std::to_string(entry.expected);
      s += "->";
      s += std::to_string(entry.desired);
      s += ')';
    }
    s += " = ";
    s += observed != 0 ? "ok" : "fail";
  } else {
    s += ' ';
    s += sim::to_string(prim);
    s += " o";
    s += std::to_string(obj);
  }
  switch (prim) {
    case Prim::kRead:
      s += " -> ";
      s += std::to_string(observed);
      break;
    case Prim::kWrite:
      s += " := ";
      s += std::to_string(arg);
      break;
    case Prim::kCas:
      s += '(';
      s += std::to_string(expected);
      s += " -> ";
      s += std::to_string(arg);
      s += ") = ";
      s += observed != 0 ? "ok" : "fail";
      break;
    case Prim::kKcas:
      break;
  }
  if (spurious) s += " [spurious]";
  if (!changed) s += " [trivial]";
  return s;
}

Trace erase_processes(const Trace& trace, const std::vector<bool>& erase) {
  Trace out;
  out.reserve(trace.size());
  for (const Event& e : trace) {
    if (e.proc < erase.size() && erase[e.proc]) continue;
    out.push_back(e);
  }
  return out;
}

}  // namespace ruco::sim
