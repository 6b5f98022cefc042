// read_mostly and update_storm: closed-loop clients calling the production
// objects (maxreg, counter, snapshot, kcas) through their public functions.
//
// A run is a warm-up round followed by measured rounds until --seconds have
// passed.  Each round constructs fresh objects and client threads (set-up),
// releases the clients together, lets each run its pre-generated op list,
// then checks the final state (verdict) and destroys the objects, so the
// no-reclamation objects cannot grow without bound.  A client times every
// kSampleStride-th call; a steady_clock read costs ~50 ns on the reference
// VM (README), so timing every call would distort calls of ~100 ns.  Traced runs alternate
// untraced and traced rounds; only traced rounds record steps, heap bytes,
// nested spans and registry deltas.
//
// Set-up is the main thread's CPU time.  Throughput and verdict time use
// the clock the workload's progress is bound by.  The reference host
// (README) is a VM whose hypervisor steals a varying share (~20% under load) of the vCPUs.  In
// read_mostly the clients run independently and never block, so stolen
// time only stretches the wall clock: client CPU time (steal excluded)
// spread ~4% over runs, wall time ~10%.  In update_storm progress is bound
// by the hot cache lines, which keep moving while any client runs; a
// stolen client just contends less, so wall time spread ~3% and client CPU
// time ~20%.  The other clock's throughput is printed as a note.
#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "memory.h"
#include "oracle.h"
#include "ruco/counter/farray_counter.h"
#include "ruco/kcas/mcas.h"
#include "ruco/maxreg/tree_max_register.h"
#include "ruco/runtime/stepcount.h"
#include "ruco/snapshot/farray_snapshot.h"
#include "ruco/telemetry/registry.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ruco::ProcId;

enum Call : std::uint8_t {
  kReadMax,
  kCounterRead,
  kScan,
  kCellRead,
  kWriteMax,
  kIncrement,
  kSegmentUpdate,
  kTransfer,
  kDcas,  // one dcas call inside a transfer (traced rounds only)
  kRound,
  kNumCalls,
};

const std::vector<std::string> kCallNames{
    "maxreg.read_max",   "counter.read",      "snapshot.scan",
    "kcas.read",         "maxreg.write_max",  "counter.increment",
    "snapshot.update",   "kcas.transfer",     "kcas.dcas",
    "round"};

bool is_read(Call c) { return c <= kCellRead; }
bool is_update(Call c) { return c >= kWriteMax && c <= kTransfer; }

constexpr std::size_t kSampleStride = 32;
constexpr int kMaxTransferAttempts = 1 << 16;

struct Op {
  Call call = kReadMax;
  std::uint16_t proc = 0;
  std::uint16_t cell_a = 0;
  std::uint16_t cell_b = 0;
  Value value = 0;
};

struct Shape {
  std::uint32_t processes = 0;  // declared N
  std::uint32_t cells = 0;
  Value cell_init = 0;
  std::size_t ops_per_client = 0;
  bool snapshot = false;
  bool transfers = false;
  // Clock of ops_per_s and verdict_s (file comment).
  bool wall_clock = false;
};

using Inputs = std::vector<std::vector<Op>>;  // one op list per client

std::vector<std::size_t> owned_processes(unsigned client, unsigned clients,
                                         std::uint32_t n) {
  std::vector<std::size_t> owned;
  for (std::size_t p = client; p < n; p += clients) owned.push_back(p);
  return owned;
}

// ~90% reads over N logical processes.  Updates are 30% watermark writes,
// 45% increments and 25% snapshot updates, so the update median falls
// inside the increments' latency range rather than on the boundary between
// two kinds of call.  The watermark rises by one every
// 64 ops of a client, plus jitter, so most writes are already covered by
// the root; snapshot updates set the writer's own segment to its next
// sequence number.
Inputs read_mostly_inputs(const Shape& shape, unsigned clients,
                          std::uint64_t seed) {
  Inputs inputs(clients);
  std::vector<Value> segment_seq(shape.processes, 0);
  for (unsigned t = 0; t < clients; ++t) {
    Rng rng{seed * 1000003 + t};
    const auto owned = owned_processes(t, clients, shape.processes);
    auto& ops = inputs[t];
    ops.resize(shape.ops_per_client);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      Op& op = ops[i];
      op.proc = static_cast<std::uint16_t>(owned[i % owned.size()]);
      const auto r = rng.below(1000);
      if (r < 300) {
        op.call = kReadMax;
      } else if (r < 500) {
        op.call = kCounterRead;
      } else if (r < 700) {
        op.call = kScan;
      } else if (r < 900) {
        op.call = kCellRead;
        op.cell_a = static_cast<std::uint16_t>(rng.below(shape.cells));
      } else if (r < 930) {
        op.call = kWriteMax;
        op.value = static_cast<Value>(i / 64 + rng.below(8));
      } else if (r < 975) {
        op.call = kIncrement;
      } else {
        op.call = kSegmentUpdate;
        op.value = ++segment_seq[op.proc];
      }
    }
  }
  return inputs;
}

// ~97% updates, one process per client: 40% writes, 37% increments, 20%
// transfers (again keeping the update median inside one kind of call).
// Writes are fresh maxima interleaved across clients (seq * T + t);
// transfers move 1..7 units between two distinct cells with a dcas.
Inputs update_storm_inputs(const Shape& shape, unsigned clients,
                           std::uint64_t seed) {
  Inputs inputs(clients);
  for (unsigned t = 0; t < clients; ++t) {
    Rng rng{seed * 1000003 + t};
    auto& ops = inputs[t];
    ops.resize(shape.ops_per_client);
    Value write_seq = 0;
    for (Op& op : ops) {
      op.proc = static_cast<std::uint16_t>(t);
      const auto r = rng.below(1000);
      if (r < 400) {
        op.call = kWriteMax;
        op.value = write_seq++ * clients + t;
      } else if (r < 770) {
        op.call = kIncrement;
      } else if (r < 970) {
        op.call = kTransfer;
        op.cell_a = static_cast<std::uint16_t>(rng.below(shape.cells));
        op.cell_b = static_cast<std::uint16_t>(
            (op.cell_a + 1 + rng.below(shape.cells - 1)) % shape.cells);
        op.value = static_cast<Value>(1 + rng.below(7));
      } else if (r < 980) {
        op.call = kReadMax;
      } else if (r < 990) {
        op.call = kCounterRead;
      } else {
        op.call = kCellRead;
        op.cell_a = static_cast<std::uint16_t>(rng.below(shape.cells));
      }
    }
  }
  return inputs;
}

struct Objects {
  Objects(const Shape& shape, std::uint32_t n)
      : maxreg{n},
        counter{n},
        snapshot{shape.snapshot
                     ? std::make_unique<ruco::snapshot::FArraySnapshot>(n)
                     : nullptr},
        cells{shape.cells, shape.cell_init, n} {}

  ruco::maxreg::TreeMaxRegister maxreg;
  ruco::counter::FArrayCounter counter;
  std::unique_ptr<ruco::snapshot::FArraySnapshot> snapshot;
  ruco::kcas::McasArray cells;
};

struct Client {
  Client(std::uint32_t n, const std::vector<std::size_t>& owned)
      : oracle{n, owned} {}

  ClientOracle oracle;
  std::vector<Span> spans;
  std::uint64_t updates = 0;
  std::uint64_t writes = 0;
  std::uint64_t dcas_calls = 0;
  std::uint64_t dcas_ok = 0;
  std::uint64_t failed = 0;
  std::int64_t finish_ns = 0;
  std::int64_t cpu_ns = 0;
  std::string error;
};

class ClientRun {
 public:
  ClientRun(const Shape& shape, Objects& objects, Client& client, bool traced)
      : shape_{shape}, o_{objects}, c_{client}, traced_{traced} {}

  void run(const std::vector<Op>& ops) {
    c_.spans.reserve(ops.size() / kSampleStride * 2 + 8);
    const std::int64_t cpu_start = thread_cpu_ns();
    const std::uint32_t round_span = begin_span(kRound, kNoParent);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      if (is_update(op.call)) ++c_.updates;
      if (i % kSampleStride != 0) {
        execute(op, false, kNoParent);
        continue;
      }
      const std::uint32_t span = begin_span(op.call, round_span);
      end_span(span, execute(op, true, span));
    }
    c_.finish_ns = now_ns();
    c_.cpu_ns = thread_cpu_ns() - cpu_start;
    end_span(round_span, c_.finish_ns);
  }

 private:
  // Spans are appended when they begin, so a parent precedes its children;
  // until end_span, steps/heap_bytes hold the counters at the start.
  // The push comes first so that growing the lane is not counted in the
  // span's heap bytes.
  std::uint32_t begin_span(Call call, std::uint32_t parent) {
    Span& s = c_.spans.emplace_back();
    s.name = call;
    s.parent = parent;
    if (traced_) {
      s.steps = ruco::runtime::thread_steps();
      s.heap_bytes = thread_heap_bytes();
    }
    s.start_ns = now_ns();
    return static_cast<std::uint32_t>(c_.spans.size() - 1);
  }

  void end_span(std::uint32_t index, std::int64_t end_ns) {
    Span& s = c_.spans[index];
    s.dur_ns = end_ns - s.start_ns;
    if (traced_) {
      s.steps = ruco::runtime::thread_steps() - s.steps;
      s.heap_bytes = thread_heap_bytes() - s.heap_bytes;
    }
  }

  // Runs one op and checks its result; returns when the call returned if
  // `timed` (the check is not timed), else 0.
  std::int64_t execute(const Op& op, bool timed, std::uint32_t span) {
    const ProcId p = op.proc;
    std::int64_t end = 0;
    const auto stop = [&] {
      if (timed) end = now_ns();
    };
    switch (op.call) {
      case kReadMax: {
        const Value v = o_.maxreg.read_max(p);
        stop();
        c_.oracle.read_max(v);
        break;
      }
      case kCounterRead: {
        const Value v = o_.counter.read(p);
        stop();
        c_.oracle.read_counter(v);
        break;
      }
      case kScan: {
        const std::vector<Value> view = o_.snapshot->scan(p);
        stop();
        c_.oracle.scanned(view);
        break;
      }
      case kCellRead: {
        const Value v = o_.cells.read(p, op.cell_a);
        stop();
        if (!shape_.transfers) c_.oracle.read_fixed_cell(v, shape_.cell_init);
        break;
      }
      case kWriteMax:
        o_.maxreg.write_max(p, op.value);
        stop();
        c_.oracle.wrote_max(op.value);
        ++c_.writes;
        break;
      case kIncrement:
        o_.counter.increment(p);
        stop();
        c_.oracle.incremented();
        break;
      case kSegmentUpdate:
        o_.snapshot->update(p, op.value);
        stop();
        c_.oracle.updated_segment(p, op.value);
        break;
      case kTransfer:
        transfer(op, timed && traced_, span);
        stop();
        break;
      default:
        throw std::logic_error("unexpected op");
    }
    return end;
  }

  void transfer(const Op& op, bool nested_spans, std::uint32_t parent) {
    const ProcId p = op.proc;
    for (int attempt = 0; attempt < kMaxTransferAttempts; ++attempt) {
      const Value a = o_.cells.read(p, op.cell_a);
      const Value b = o_.cells.read(p, op.cell_b);
      const std::uint32_t span =
          nested_spans ? begin_span(kDcas, parent) : kNoParent;
      const bool ok =
          o_.cells.dcas(p, {op.cell_a, a, a - op.value},
                        {op.cell_b, b, b + op.value});
      if (nested_spans) end_span(span, now_ns());
      ++c_.dcas_calls;
      if (ok) {
        ++c_.dcas_ok;
        return;
      }
    }
    ++c_.failed;  // the transfer never went through
  }

  const Shape& shape_;
  Objects& o_;
  Client& c_;
  bool traced_;
};

std::uint64_t registry_counter(const ruco::telemetry::Snapshot& s,
                               const char* domain, const char* name) {
  const auto* m = s.find(domain, name);
  return m == nullptr ? 0 : m->value;
}

struct RegistryDelta {
  std::uint64_t propagate_cas_attempts = 0;
  std::uint64_t propagate_cas_failures = 0;
  std::uint64_t propagate_levels = 0;
  std::uint64_t propagate_second_rounds = 0;
  std::uint64_t tree_root_fastpath = 0;
  std::uint64_t mcas_ops = 0;
  std::uint64_t mcas_helps = 0;

  void add(const ruco::telemetry::Snapshot& before,
           const ruco::telemetry::Snapshot& after) {
    const auto d = [&](const char* domain, const char* name) {
      return registry_counter(after, domain, name) -
             registry_counter(before, domain, name);
    };
    propagate_cas_attempts += d("maxreg", "propagate_cas_attempts");
    propagate_cas_failures += d("maxreg", "propagate_cas_failures");
    propagate_levels += d("maxreg", "propagate_levels");
    propagate_second_rounds += d("maxreg", "propagate_second_rounds");
    tree_root_fastpath += d("maxreg", "tree_root_fastpath");
    mcas_ops += d("mcas", "ops");
    mcas_helps += d("mcas", "helps");
  }
};

struct Round {
  double setup_s = 0;
  double ops_per_s = 0;
  double other_clock_ops_per_s = 0;
  double verdict_s = 0;
  double rss_mb = 0;
  double retained_bytes_per_update = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t writes = 0;
  std::uint64_t dcas_calls = 0;
  std::uint64_t dcas_ok = 0;
  std::vector<std::vector<Span>> lanes;  // one per client
  std::string error;
};

// Releases and joins the client threads however the round ends.
class ClientThreads {
 public:
  explicit ClientThreads(unsigned clients) : ready{clients} {}
  ClientThreads(const ClientThreads&) = delete;
  ClientThreads& operator=(const ClientThreads&) = delete;
  ~ClientThreads() { release_and_join(); }

  std::vector<std::thread> threads;
  std::latch ready;
  std::atomic<bool> go{false};

  void release_and_join() {
    go.store(true, std::memory_order_release);
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

// A traced round adds its registry counter deltas to `registry`.
Round run_round(const Shape& shape, std::uint32_t n, const Inputs& inputs,
                bool traced, RegistryDelta* registry) {
  const auto clients_n = static_cast<unsigned>(inputs.size());
  count_heap_bytes(traced);
  ruco::telemetry::Snapshot before;
  if (traced) before = ruco::telemetry::Registry::global().snapshot();

  Round round;
  const std::int64_t cpu_begin = thread_cpu_ns();
  auto objects = std::make_unique<Objects>(shape, n);
  std::vector<Client> clients;
  clients.reserve(clients_n);
  for (unsigned t = 0; t < clients_n; ++t) {
    clients.emplace_back(n, owned_processes(t, clients_n, n));
  }
  std::uint64_t heap_before = 0;
  std::int64_t t_go = 0;
  {
    ClientThreads pool{clients_n};
    for (unsigned t = 0; t < clients_n; ++t) {
      pool.threads.emplace_back([&, t] {
        pool.ready.count_down();
        while (!pool.go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        try {
          ClientRun{shape, *objects, clients[t], traced}.run(inputs[t]);
        } catch (const std::exception& e) {
          clients[t].error = e.what();
          clients[t].finish_ns = now_ns();
        }
      });
    }
    pool.ready.wait();
    round.setup_s = static_cast<double>(thread_cpu_ns() - cpu_begin) / 1e9;
    heap_before = heap_in_use_bytes();
    t_go = now_ns();
    pool.release_and_join();
  }
  const std::int64_t cpu_check = thread_cpu_ns();
  const std::uint64_t heap_after = heap_in_use_bytes();
  round.rss_mb = static_cast<double>(rss_bytes()) / 1e6;

  std::int64_t t_end = t_go;
  std::int64_t cpu_ns = 0;
  std::int64_t slowest_client_cpu = 0;
  FinalState fs;
  std::uint64_t updates = 0;
  if (shape.snapshot) fs.last_updates.assign(n, 0);
  for (unsigned t = 0; t < clients_n; ++t) {
    Client& c = clients[t];
    t_end = std::max(t_end, c.finish_ns);
    cpu_ns += c.cpu_ns;
    slowest_client_cpu = std::max(slowest_client_cpu, c.cpu_ns);
    if (!c.error.empty()) {
      round.error = c.error;
      ++round.failed;
    }
    round.failed += c.failed + c.oracle.failures();
    round.writes += c.writes;
    round.dcas_calls += c.dcas_calls;
    round.dcas_ok += c.dcas_ok;
    updates += c.updates;
    round.ops += inputs[t].size();
    fs.max_written = std::max(fs.max_written, c.oracle.max_written());
    fs.increments += c.oracle.increments();
    if (shape.snapshot) {
      for (const std::size_t p : owned_processes(t, clients_n, n)) {
        fs.last_updates[p] = c.oracle.last_update(p);
      }
    }
  }
  fs.read_max = objects->maxreg.read_max(0);
  fs.counter = objects->counter.read(0);
  if (shape.snapshot) fs.scan = objects->snapshot->scan(0);
  for (std::uint32_t i = 0; i < shape.cells; ++i) {
    fs.cell_sum += objects->cells.read(0, i);
  }
  fs.initial_cell_sum = shape.cell_init * static_cast<Value>(shape.cells);
  round.failed += final_failures(fs);
  const double cpu_ops_per_s = static_cast<double>(round.ops) /
                               (static_cast<double>(cpu_ns) / 1e9 / clients_n);
  const double wall_ops_per_s =
      static_cast<double>(round.ops) / (static_cast<double>(t_end - t_go) / 1e9);
  if (shape.wall_clock) {
    round.ops_per_s = wall_ops_per_s;
    round.other_clock_ops_per_s = cpu_ops_per_s;
    round.verdict_s = static_cast<double>(now_ns() - t_go) / 1e9;
  } else {
    round.ops_per_s = cpu_ops_per_s;
    round.other_clock_ops_per_s = wall_ops_per_s;
    round.verdict_s = static_cast<double>(slowest_client_cpu +
                                          thread_cpu_ns() - cpu_check) /
                      1e9;
  }
  round.retained_bytes_per_update = ratio(
      static_cast<double>(heap_after) - static_cast<double>(heap_before),
      static_cast<double>(updates));
  if (traced) {
    registry->add(before, ruco::telemetry::Registry::global().snapshot());
  }
  for (Client& c : clients) round.lanes.push_back(std::move(c.spans));

  objects.reset();
  release_free_memory();
  count_heap_bytes(false);
  return round;
}

struct LayerSamples {
  std::vector<std::int64_t> ns;
  std::uint64_t steps = 0;
  std::int64_t heap_bytes = 0;
};

RunResult run_objects(const std::string& name, const Shape& shape,
                      const Inputs& inputs, const RunConfig& cfg) {
  const std::uint32_t n = shape.processes;
  RunResult result;
  std::vector<double> untraced_ops;
  std::vector<double> traced_ops;
  std::vector<double> other_clock_ops;
  std::vector<double> rss;
  std::vector<double> setup;
  std::vector<double> verdict;
  std::vector<double> retained;
  std::vector<std::int64_t> read_ns;
  std::vector<std::int64_t> update_ns;
  std::vector<LayerSamples> layer(kNumCalls);
  RegistryDelta registry;
  std::uint64_t writes = 0;
  std::uint64_t dcas_calls = 0;
  std::uint64_t dcas_ok = 0;
  std::vector<std::vector<Span>> timeline_lanes;

  const auto account = [&](const Round& r) {
    result.attempted += r.ops;
    result.failed += r.failed;
    if (!r.error.empty()) result.notes.push_back("client error: " + r.error);
  };
  account(run_round(shape, n, inputs, false, nullptr));  // warm-up, not measured

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  for (int r = 0; now_ns() < deadline || r < (cfg.trace ? 2 : 1); ++r) {
    const bool traced = cfg.trace && r % 2 == 1;
    Round round = run_round(shape, n, inputs, traced, &registry);
    account(round);
    if (!traced) {
      untraced_ops.push_back(round.ops_per_s);
      other_clock_ops.push_back(round.other_clock_ops_per_s);
      rss.push_back(round.rss_mb);
      setup.push_back(round.setup_s);
      verdict.push_back(round.verdict_s);
      retained.push_back(round.retained_bytes_per_update);
      for (const auto& lane : round.lanes) {
        for (const Span& s : lane) {
          const auto c = static_cast<Call>(s.name);
          if (is_read(c)) read_ns.push_back(s.dur_ns);
          if (is_update(c)) update_ns.push_back(s.dur_ns);
        }
      }
      continue;
    }
    traced_ops.push_back(round.ops_per_s);
    writes += round.writes;
    dcas_calls += round.dcas_calls;
    dcas_ok += round.dcas_ok;
    for (const auto& lane : round.lanes) {
      for (const Span& s : lane) {
        LayerSamples& l = layer[s.name];
        l.ns.push_back(s.dur_ns);
        l.steps += s.steps;
        l.heap_bytes += s.heap_bytes;
      }
    }
    if (timeline_lanes.empty()) timeline_lanes = std::move(round.lanes);
  }
  result.correct = result.failed == 0;

  std::ostringstream head;
  head << name << ": " << inputs.size() << " closed-loop clients, N = " << n
       << " processes, " << inputs.front().size() << " ops per client per round, "
       << untraced_ops.size() + traced_ops.size() << " measured rounds"
       << (cfg.trace ? " (alternating untraced/traced)" : "");
  result.notes.push_back(head.str());
  std::ostringstream fail;
  fail << "failed_op_ratio " << ratio(static_cast<double>(result.failed),
                                      static_cast<double>(result.attempted))
       << " (" << result.failed << " of " << result.attempted << " ops)";
  result.notes.push_back(fail.str());

  auto& m = result.metrics;
  if (!cfg.trace) {
    std::ostringstream samples;
    samples << "latency samples: " << read_ns.size() << " reads, "
            << update_ns.size() << " updates (one call in " << kSampleStride
            << ")";
    result.notes.push_back(samples.str());
    std::ostringstream other;
    other << "ops_per_s on the other clock ("
          << (shape.wall_clock ? "client CPU time" : "wall time") << "): "
          << median(other_clock_ops);
    result.notes.push_back(other.str());
    m["ops_per_s"] = median(untraced_ops);
    m["read_p50_ns"] = percentile(read_ns, 50);
    m["read_p99_ns"] = percentile(read_ns, 99);
    m["update_p50_ns"] = percentile(update_ns, 50);
    m["update_p99_ns"] = percentile(update_ns, 99);
    m["retained_bytes_per_update"] = median(retained);
    m["peak_rss_mb"] = median(rss);
    m["setup_s"] = median(setup);
    m["verdict_s"] = median(verdict);
    return result;
  }

  for (const auto& def : per_layer_metrics()) m[def.name] = 0.0;
  const auto mean_steps = [&](Call c) {
    return ratio(static_cast<double>(layer[c].steps),
                 static_cast<double>(layer[c].ns.size()));
  };
  const auto mean_bytes = [&](Call c) {
    return ratio(static_cast<double>(layer[c].heap_bytes),
                 static_cast<double>(layer[c].ns.size()));
  };
  m["maxreg.write_p50_ns"] = percentile(layer[kWriteMax].ns, 50);
  m["maxreg.write_p99_ns"] = percentile(layer[kWriteMax].ns, 99);
  m["maxreg.read_p50_ns"] = percentile(layer[kReadMax].ns, 50);
  m["maxreg.steps_per_write"] = mean_steps(kWriteMax);
  m["maxreg.cas_fail_ratio"] =
      ratio(static_cast<double>(registry.propagate_cas_failures),
            static_cast<double>(registry.propagate_cas_attempts));
  m["maxreg.root_fastpath_ratio"] =
      ratio(static_cast<double>(registry.tree_root_fastpath),
            static_cast<double>(writes));
  m["maxreg.second_round_ratio"] =
      ratio(static_cast<double>(registry.propagate_second_rounds),
            static_cast<double>(registry.propagate_levels));
  m["counter.inc_p50_ns"] = percentile(layer[kIncrement].ns, 50);
  m["counter.inc_p99_ns"] = percentile(layer[kIncrement].ns, 99);
  m["counter.read_p50_ns"] = percentile(layer[kCounterRead].ns, 50);
  m["counter.steps_per_inc"] = mean_steps(kIncrement);
  m["snapshot.update_p50_ns"] = percentile(layer[kSegmentUpdate].ns, 50);
  m["snapshot.scan_p50_ns"] = percentile(layer[kScan].ns, 50);
  m["snapshot.scan_p99_ns"] = percentile(layer[kScan].ns, 99);
  m["snapshot.bytes_per_update"] = mean_bytes(kSegmentUpdate);
  m["kcas.dcas_p50_ns"] = percentile(layer[kDcas].ns, 50);
  m["kcas.dcas_p99_ns"] = percentile(layer[kDcas].ns, 99);
  m["kcas.success_ratio"] = ratio(static_cast<double>(dcas_ok),
                                  static_cast<double>(dcas_calls));
  m["kcas.helps_per_op"] = ratio(static_cast<double>(registry.mcas_helps),
                                 static_cast<double>(registry.mcas_ops));
  m["kcas.bytes_per_op"] = mean_bytes(kDcas);
  std::size_t reads = 0;
  std::size_t updates = 0;
  for (int c = 0; c < kNumCalls; ++c) {
    if (is_read(static_cast<Call>(c))) reads += layer[c].ns.size();
    if (is_update(static_cast<Call>(c))) updates += layer[c].ns.size();
  }
  m["samples.read"] = static_cast<double>(reads);
  m["samples.update"] = static_cast<double>(updates);
  m["trace_overhead_ratio"] = ratio(median(untraced_ops), median(traced_ops));

  std::vector<std::string> lane_names;
  for (std::size_t t = 0; t < timeline_lanes.size(); ++t) {
    lane_names.push_back("client " + std::to_string(t));
  }
  const std::string err =
      write_timeline(cfg.timeline, name, kCallNames, lane_names,
                     timeline_lanes, 20'000);
  if (!err.empty()) throw std::runtime_error(err);
  result.notes.push_back("timeline: " + cfg.timeline);
  return result;
}

}  // namespace

unsigned client_threads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw);
}

RunResult run_read_mostly(const RunConfig& cfg) {
  Shape shape;
  shape.processes = 64;
  shape.cells = 64;
  shape.cell_init = 1000;
  shape.ops_per_client = 250'000;
  shape.snapshot = true;
  shape.transfers = false;
  const unsigned clients = client_threads();
  const Inputs inputs = read_mostly_inputs(shape, clients, cfg.seed);
  return run_objects("read_mostly", shape, inputs, cfg);
}

RunResult run_update_storm(const RunConfig& cfg) {
  Shape shape;
  shape.cells = 8;
  shape.cell_init = 1'000'000;
  shape.ops_per_client = 250'000;
  shape.snapshot = false;
  shape.transfers = true;
  shape.wall_clock = true;
  const unsigned clients = client_threads();
  shape.processes = clients;
  const Inputs inputs = update_storm_inputs(shape, clients, cfg.seed);
  return run_objects("update_storm", shape, inputs, cfg);
}

}  // namespace perfbench
