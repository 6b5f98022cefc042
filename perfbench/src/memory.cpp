#include "memory.h"

#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
thread_local std::int64_t tls_heap_bytes = 0;

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  if (g_counting.load(std::memory_order_relaxed)) {
    tls_heap_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed)) {
    tls_heap_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}

}  // namespace

std::uint64_t rss_bytes() {
  std::ifstream statm{"/proc/self/statm"};
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t peak_rss_bytes() {
  std::ifstream status{"/proc/self/status"};
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib * 1024;
    }
    status.ignore(4096, '\n');
  }
  return 0;
}

std::uint64_t heap_in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

void release_free_memory() { malloc_trim(0); }

void count_heap_bytes(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::int64_t thread_heap_bytes() { return tls_heap_bytes; }

}  // namespace perfbench

// Replacements of the unaligned global allocation functions (the aligned
// forms keep the library's defaults, which allocate and free on their own
// path and are used only when objects are constructed).
void* operator new(std::size_t size) { return perfbench::counted_alloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::counted_alloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { perfbench::counted_free(p); }
void operator delete[](void* p) noexcept { perfbench::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  perfbench::counted_free(p);
}
