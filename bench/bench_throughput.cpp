// Experiment THR: real-hardware sanity pass.  The paper's measure is steps,
// not nanoseconds; this google-benchmark binary confirms the step story
// translates to wall-clock on real atomics: Algorithm A's O(1) reads are
// flat across N, AAC reads scale with log M, and f-array counter reads
// beat AAC-counter reads.  The *_Contended rows make no scaling claim: on
// a multi-core host every update CASes the same root line, and total
// throughput falls as threads are added (bench_hw_throughput --sweep
// measures that; a 1-core host only interleaves the threads and hides it).
#include <benchmark/benchmark.h>

#include "ruco/counter/farray_counter.h"
#include "ruco/counter/fetch_add_counter.h"
#include "ruco/counter/maxreg_counter.h"
#include "ruco/maxreg/aac_max_register.h"
#include "ruco/maxreg/cas_max_register.h"
#include "ruco/maxreg/lock_max_register.h"
#include "ruco/maxreg/tree_max_register.h"
#include "ruco/snapshot/afek_snapshot.h"
#include "ruco/snapshot/double_collect_snapshot.h"
#include "ruco/snapshot/farray_snapshot.h"
#include "ruco/util/rng.h"

namespace {

using ruco::ProcId;
using ruco::Value;

// ----------------------------------------------------- max registers

void BM_TreeMaxRegister_Read(benchmark::State& state) {
  ruco::maxreg::TreeMaxRegister reg{
      static_cast<std::uint32_t>(state.range(0))};
  reg.write_max(0, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.read_max(0));
  }
}
BENCHMARK(BM_TreeMaxRegister_Read)->Arg(8)->Arg(256)->Arg(4096);

void BM_AacMaxRegister_Read(benchmark::State& state) {
  ruco::maxreg::AacMaxRegister reg{state.range(0)};
  reg.write_max(0, state.range(0) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.read_max(0));
  }
}
BENCHMARK(BM_AacMaxRegister_Read)->Arg(8)->Arg(256)->Arg(4096)->Arg(1 << 20);

void BM_TreeMaxRegister_WriteAscending(benchmark::State& state) {
  ruco::maxreg::TreeMaxRegister reg{
      static_cast<std::uint32_t>(state.range(0))};
  Value v = 0;
  for (auto _ : state) {
    reg.write_max(0, ++v);
  }
}
BENCHMARK(BM_TreeMaxRegister_WriteAscending)->Arg(8)->Arg(256)->Arg(4096);

void BM_AacMaxRegister_WriteAscending(benchmark::State& state) {
  ruco::maxreg::AacMaxRegister reg{1 << 20};
  Value v = 0;
  for (auto _ : state) {
    reg.write_max(0, (++v) % (1 << 20));
  }
}
BENCHMARK(BM_AacMaxRegister_WriteAscending);

void BM_CasMaxRegister_WriteAscending(benchmark::State& state) {
  ruco::maxreg::CasMaxRegister reg;
  Value v = 0;
  for (auto _ : state) {
    reg.write_max(0, ++v);
  }
}
BENCHMARK(BM_CasMaxRegister_WriteAscending);

void BM_LockMaxRegister_WriteAscending(benchmark::State& state) {
  ruco::maxreg::LockMaxRegister reg;
  Value v = 0;
  for (auto _ : state) {
    reg.write_max(0, ++v);
  }
}
BENCHMARK(BM_LockMaxRegister_WriteAscending);

// Contended mixed workload via benchmark's threading support.
ruco::maxreg::TreeMaxRegister g_tree_reg{16};

void BM_TreeMaxRegister_Contended(benchmark::State& state) {
  const auto proc = static_cast<ProcId>(state.thread_index());
  ruco::util::SplitMix64 rng{proc + 1u};
  for (auto _ : state) {
    if (rng.chance(1, 4)) {
      g_tree_reg.write_max(proc, static_cast<Value>(rng.below(1 << 20)));
    } else {
      benchmark::DoNotOptimize(g_tree_reg.read_max(proc));
    }
  }
}
BENCHMARK(BM_TreeMaxRegister_Contended)->Threads(1)->Threads(2)->MinTime(0.02);

// ---------------------------------------------------------- counters

void BM_FArrayCounter_Increment(benchmark::State& state) {
  ruco::counter::FArrayCounter c{static_cast<std::uint32_t>(state.range(0))};
  for (auto _ : state) {
    c.increment(0);
  }
}
BENCHMARK(BM_FArrayCounter_Increment)->Arg(8)->Arg(256)->Arg(4096);

void BM_FArrayCounter_Read(benchmark::State& state) {
  ruco::counter::FArrayCounter c{static_cast<std::uint32_t>(state.range(0))};
  c.increment(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.read(0));
  }
}
BENCHMARK(BM_FArrayCounter_Read)->Arg(8)->Arg(4096);

void BM_MaxRegCounter_Increment(benchmark::State& state) {
  ruco::counter::MaxRegCounter c{static_cast<std::uint32_t>(state.range(0)),
                                 1 << 16};
  for (auto _ : state) {
    c.increment(0);
  }
}
BENCHMARK(BM_MaxRegCounter_Increment)->Arg(8)->Arg(256)->Iterations(30000);

void BM_MaxRegCounter_Read(benchmark::State& state) {
  ruco::counter::MaxRegCounter c{static_cast<std::uint32_t>(state.range(0)),
                                 1 << 16};
  c.increment(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.read(0));
  }
}
BENCHMARK(BM_MaxRegCounter_Read)->Arg(8)->Arg(256);

void BM_FetchAddCounter_Increment(benchmark::State& state) {
  ruco::counter::FetchAddCounter c;
  for (auto _ : state) {
    c.increment(0);
  }
}
BENCHMARK(BM_FetchAddCounter_Increment);

ruco::counter::FArrayCounter g_counter{16};

void BM_FArrayCounter_Contended(benchmark::State& state) {
  const auto proc = static_cast<ProcId>(state.thread_index());
  for (auto _ : state) {
    g_counter.increment(proc);
  }
}
BENCHMARK(BM_FArrayCounter_Contended)->Threads(1)->Threads(2)->MinTime(0.02);

// --------------------------------------------------------- snapshots

void BM_FArraySnapshot_Scan(benchmark::State& state) {
  ruco::snapshot::FArraySnapshot snap{
      static_cast<std::uint32_t>(state.range(0))};
  snap.update(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap.scan(0));
  }
}
BENCHMARK(BM_FArraySnapshot_Scan)->Arg(8)->Arg(128);

void BM_FArraySnapshot_Update(benchmark::State& state) {
  ruco::snapshot::FArraySnapshot snap{
      static_cast<std::uint32_t>(state.range(0))};
  Value v = 0;
  for (auto _ : state) {
    snap.update(0, ++v);
  }
}
BENCHMARK(BM_FArraySnapshot_Update)->Arg(8)->Arg(128);

void BM_DoubleCollect_Scan(benchmark::State& state) {
  ruco::snapshot::DoubleCollectSnapshot snap{
      static_cast<std::uint32_t>(state.range(0))};
  snap.update(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap.scan(0));
  }
}
BENCHMARK(BM_DoubleCollect_Scan)->Arg(8)->Arg(128);

void BM_Afek_Update(benchmark::State& state) {
  ruco::snapshot::AfekSnapshot snap{
      static_cast<std::uint32_t>(state.range(0))};
  Value v = 0;
  for (auto _ : state) {
    snap.update(0, ++v);
  }
}
// Iteration-capped: every update appends a record with an embedded scan
// to the writer's arena, which lives as long as the object, so an
// open-ended timing loop grows memory without bound.
BENCHMARK(BM_Afek_Update)->Arg(8)->Arg(64)->Iterations(20000);

}  // namespace

BENCHMARK_MAIN();
