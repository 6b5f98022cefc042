#include "ruco/sim/awareness.h"

#include <functional>

namespace ruco::sim {

namespace {

constexpr std::uint64_t kNone = UINT64_MAX;

using OnEvent = std::function<void(ProcId, std::uint64_t, const ProcSet&)>;

/// Shared forward pass: replays the trace through the Definition 1-4 rules,
/// invoking `on_event(p, index, aw_of_p)` after each event is absorbed.
void knowledge_pass(const Trace& trace, std::size_t num_processes,
                    std::size_t num_objects, KnowledgeSets& sets,
                    const OnEvent& on_event) {
  struct Contribution {
    std::uint64_t event_index;
    ProcId proc;
    ProcSet aw;
  };
  struct ObjectInfo {
    std::vector<Contribution> contribs;
    ProcSet fam;
    std::uint64_t last_access = kNone;
  };

  sets.awareness.assign(num_processes, ProcSet{num_processes});
  for (ProcId p = 0; p < num_processes; ++p) sets.awareness[p].add(p);
  std::vector<std::uint64_t> last_step(num_processes, kNone);
  std::vector<ObjectInfo> objects(num_objects);
  for (auto& o : objects) o.fam = ProcSet{num_processes};

  for (std::uint64_t i = 0; i < trace.size(); ++i) {
    const Event& e = trace[i];
    ObjectInfo& o = objects[e.obj];
    ProcSet& aw = sets.awareness[e.proc];
    switch (e.prim) {
      case Prim::kRead:
        aw.unite(o.fam);
        break;
      case Prim::kWrite: {
        // Literal Definition 1: *any* write hides an immediately-preceding
        // event on the same object whose issuer has not stepped since and
        // that nothing else accessed in between.
        if (!o.contribs.empty()) {
          const Contribution& top = o.contribs.back();
          if (top.event_index == o.last_access &&
              last_step[top.proc] == top.event_index) {
            o.contribs.pop_back();
            o.fam.clear();
            for (const auto& c : o.contribs) o.fam.unite(c.aw);
          }
        }
        if (e.changed) {
          o.contribs.push_back(Contribution{i, e.proc, aw});
          o.fam.unite(aw);
        }
        break;
      }
      case Prim::kCas:
        aw.unite(o.fam);
        if (e.changed) {
          o.contribs.push_back(Contribution{i, e.proc, aw});
          o.fam.unite(aw);
        }
        break;
      case Prim::kKcas:
        // Observes (and grows aware through) every touched object; on
        // success it is visible on every object whose value changed --
        // which, since all expected values matched, is exactly the entries
        // with desired != expected.
        for (const auto& entry : trace.words(e)) {
          aw.unite(objects[entry.obj].fam);
        }
        if (e.observed != 0) {
          for (const auto& entry : trace.words(e)) {
            if (entry.desired == entry.expected) continue;
            ObjectInfo& target = objects[entry.obj];
            target.contribs.push_back(Contribution{i, e.proc, aw});
            target.fam.unite(aw);
          }
        }
        for (const auto& entry : trace.words(e)) {
          objects[entry.obj].last_access = i;
        }
        break;
    }
    o.last_access = i;
    last_step[e.proc] = i;
    on_event(e.proc, i, aw);
  }

  sets.familiarity.assign(num_objects, ProcSet{num_processes});
  for (std::size_t o = 0; o < num_objects; ++o) {
    sets.familiarity[o] = std::move(objects[o].fam);
  }
}

}  // namespace

KnowledgeSets recompute_knowledge(const Trace& trace,
                                  std::size_t num_processes,
                                  std::size_t num_objects) {
  KnowledgeSets sets;
  knowledge_pass(trace, num_processes, num_objects, sets,
                 [](ProcId, std::uint64_t, const ProcSet&) {});
  return sets;
}

std::vector<std::uint64_t> first_aware_index(const Trace& trace,
                                             std::size_t num_processes,
                                             std::size_t num_objects,
                                             ProcId target) {
  std::vector<std::uint64_t> first(num_processes, kNeverAware);
  KnowledgeSets sets;
  knowledge_pass(trace, num_processes, num_objects, sets,
                 [&](ProcId p, std::uint64_t i, const ProcSet& aw) {
                   if (first[p] == kNeverAware && aw.contains(target)) {
                     first[p] = i;
                   }
                 });
  return first;
}

Trace erase_aware_of(const Trace& trace, std::size_t num_processes,
                     std::size_t num_objects, ProcId target) {
  const auto first =
      first_aware_index(trace, num_processes, num_objects, target);
  Trace out;
  out.reserve(trace.size());
  for (std::uint64_t i = 0; i < trace.size(); ++i) {
    const Event& e = trace[i];
    if (e.proc == target) continue;
    if (first[e.proc] != kNeverAware && i >= first[e.proc]) continue;
    out.push_back(e, trace.words(e));
  }
  return out;
}

}  // namespace ruco::sim
