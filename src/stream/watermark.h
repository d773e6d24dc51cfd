/// \file watermark.h
/// Event-time watermarks with bounded out-of-orderness, one tracker per
/// source. The watermark W is the promise "no future event has time < W":
/// with a disorder bound B, W = (max event time observed) - B. Observing is
/// a lock-free atomic max, so concurrent source threads can feed one
/// tracker and W never regresses (monotonicity is a test invariant).
#ifndef STARK_STREAM_WATERMARK_H_
#define STARK_STREAM_WATERMARK_H_

#include <atomic>
#include <cstdint>
#include <limits>

#include "temporal/interval.h"

namespace stark {
namespace stream {

/// Watermark value before any event has been observed.
inline constexpr Instant kMinWatermark = std::numeric_limits<Instant>::min();

/// \brief Per-source watermark generator (bounded out-of-orderness).
class WatermarkTracker {
 public:
  /// \p bound is the source's maximum disorder: an event may arrive up to
  /// `bound` ticks of event time behind the furthest event seen so far
  /// without being late.
  explicit WatermarkTracker(int64_t bound = 0) : bound_(bound < 0 ? 0 : bound) {}

  /// Folds one event time into the watermark (atomic max; thread-safe).
  void Observe(Instant event_time) {
    Instant seen = max_seen_.load(std::memory_order_relaxed);
    while (event_time > seen &&
           !max_seen_.compare_exchange_weak(seen, event_time,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
    }
  }

  /// Current watermark: max observed event time minus the disorder bound,
  /// or kMinWatermark before the first event. Monotone non-decreasing.
  Instant Current() const { return WatermarkAt(MaxSeen()); }

  /// The watermark this tracker would report had \p max_seen been the
  /// highest event time observed.
  Instant WatermarkAt(Instant max_seen) const {
    if (max_seen == kMinWatermark) return kMinWatermark;
    return max_seen - bound_;
  }

  /// Highest event time observed so far (kMinWatermark when none), the
  /// numerator of the stream.watermark_lag_ms gauge.
  Instant MaxSeen() const { return max_seen_.load(std::memory_order_acquire); }

  int64_t bound() const { return bound_; }

 private:
  int64_t bound_;
  std::atomic<Instant> max_seen_{kMinWatermark};
};

}  // namespace stream
}  // namespace stark

#endif  // STARK_STREAM_WATERMARK_H_
