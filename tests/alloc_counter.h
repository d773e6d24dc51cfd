/// \file alloc_counter.h
/// Counts the global operator new calls made by the calling thread. The
/// test binary replaces the global operator new (alloc_counter.cc) unless a
/// sanitizer runtime owns it, in which case kAllocCounterLive is false and
/// the count stays 0.
#ifndef STARK_TESTS_ALLOC_COUNTER_H_
#define STARK_TESTS_ALLOC_COUNTER_H_

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define STARK_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define STARK_TEST_SANITIZED 1
#endif
#endif

namespace stark {
namespace test {

#ifdef STARK_TEST_SANITIZED
inline constexpr bool kAllocCounterLive = false;
#else
inline constexpr bool kAllocCounterLive = true;
#endif

/// operator new calls made so far on this thread.
size_t AllocationsOnThisThread();

}  // namespace test
}  // namespace stark

#endif  // STARK_TESTS_ALLOC_COUNTER_H_
