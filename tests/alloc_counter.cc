// The counting global operator new behind alloc_counter.h. It lives in its
// own translation unit so no new-expression is compiled against it inline.
#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {
thread_local size_t t_allocations = 0;
}  // namespace

namespace stark {
namespace test {
size_t AllocationsOnThisThread() { return t_allocations; }
}  // namespace test
}  // namespace stark

#ifndef STARK_TEST_SANITIZED
void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif
