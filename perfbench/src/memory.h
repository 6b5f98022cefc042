// Memory accounting seen from outside the library: peak resident set size
// from /proc, heap bytes in use from the allocator, and per-thread heap
// bytes through the benchmark's own replacement of the global operator
// new / delete.
#pragma once

#include <cstdint>

namespace perfbench {

/// Current resident set size of the process.
[[nodiscard]] std::uint64_t rss_bytes();

/// Peak resident set size of the process so far (VmHWM).
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Heap bytes in use across all malloc arenas (mallinfo2: small chunks
/// plus mmapped ones).
[[nodiscard]] std::uint64_t heap_in_use_bytes();

/// Returns freed heap pages to the system between rounds, so that the
/// peak RSS is that of one round rather than of the allocator's cache.
void release_free_memory();

/// Turns per-thread heap counting on or off for every thread.  Only
/// flipped between phases, while no client thread runs.
void count_heap_bytes(bool on);

/// Heap bytes the calling thread allocated minus those it freed while
/// counting was on (usable sizes, so allocator rounding is included).
[[nodiscard]] std::int64_t thread_heap_bytes();

}  // namespace perfbench
