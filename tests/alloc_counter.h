#ifndef CSXA_TESTS_ALLOC_COUNTER_H_
#define CSXA_TESTS_ALLOC_COUNTER_H_

// Counts heap allocations and their bytes by replacing the global
// operator new. The
// replacement is process-wide: include this header from exactly one
// translation unit of a test binary. Counting is off unless a test turns
// it on, so the rest of the binary runs as usual.

#include <cstddef>
#include <cstdlib>
#include <new>

inline bool g_counting = false;
inline size_t g_allocations = 0;
inline size_t g_allocated_bytes = 0;

// The replacements pair malloc with free on purpose; GCC's mismatch
// heuristic does not know the pair is replaced as a whole.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  if (g_counting) {
    ++g_allocations;
    g_allocated_bytes += n;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Heap allocations made while `fn` runs.
template <typename Fn>
size_t CountAllocations(Fn&& fn) {
  size_t before = g_allocations;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations - before;
}

// Heap bytes requested while `fn` runs (blocks freed meanwhile count too).
template <typename Fn>
size_t CountAllocatedBytes(Fn&& fn) {
  size_t before = g_allocated_bytes;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocated_bytes - before;
}

#endif  // CSXA_TESTS_ALLOC_COUNTER_H_
