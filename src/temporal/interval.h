/// \file interval.h
/// Temporal component of an STObject: an instant or a closed interval on a
/// discrete time axis (int64 ticks, e.g. epoch milliseconds).
#ifndef STARK_TEMPORAL_INTERVAL_H_
#define STARK_TEMPORAL_INTERVAL_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/macros.h"

namespace stark {

/// Point on the time axis. STARK's Scala API takes Long values; we mirror
/// that with int64 ticks whose unit is up to the application.
using Instant = int64_t;

/// \brief A closed time interval [start, end]; an instant is the degenerate
/// interval [t, t].
class TemporalInterval {
 public:
  /// Degenerate interval for a single instant.
  explicit TemporalInterval(Instant at) : start_(at), end_(at) {}

  /// Closed interval; requires start <= end.
  TemporalInterval(Instant start, Instant end) : start_(start), end_(end) {
    STARK_DCHECK(start <= end);
  }

  Instant start() const { return start_; }
  Instant end() const { return end_; }
  bool IsInstant() const { return start_ == end_; }

  /// Duration in ticks (0 for an instant).
  int64_t Length() const { return end_ - start_; }

  /// Midpoint of the interval (used for temporal partitioning centroids).
  Instant Center() const { return start_ + (end_ - start_) / 2; }

  /// True iff the intervals share at least one instant.
  bool Intersects(const TemporalInterval& o) const {
    return start_ <= o.end_ && o.start_ <= end_;
  }

  /// True iff \p o lies entirely within this interval (boundaries count).
  bool Contains(const TemporalInterval& o) const {
    return start_ <= o.start_ && o.end_ <= end_;
  }

  /// True iff the instant \p t falls inside the interval.
  bool Contains(Instant t) const { return start_ <= t && t <= end_; }

  /// Smallest gap between the intervals; 0 when they intersect.
  int64_t Distance(const TemporalInterval& o) const {
    if (Intersects(o)) return 0;
    return start_ > o.end_ ? start_ - o.end_ : o.start_ - end_;
  }

  /// Hull covering both intervals.
  TemporalInterval Union(const TemporalInterval& o) const {
    return TemporalInterval(std::min(start_, o.start_),
                            std::max(end_, o.end_));
  }

  bool operator==(const TemporalInterval& o) const {
    return start_ == o.start_ && end_ == o.end_;
  }

  std::string ToString() const {
    std::string out(IsInstant() ? "@" : "[");
    out += std::to_string(start_);
    if (IsInstant()) return out;
    out += ", ";
    out += std::to_string(end_);
    out += ']';
    return out;
  }

 private:
  Instant start_;
  Instant end_;
};

/// Temporal predicate function type, mirroring the paper's tau_t.
enum class TemporalPredicate {
  kIntersects,
  kContains,
  kContainedBy,
};

/// Evaluates \p pred on two temporal intervals.
inline bool EvalTemporalPredicate(TemporalPredicate pred,
                                  const TemporalInterval& a,
                                  const TemporalInterval& b) {
  switch (pred) {
    case TemporalPredicate::kIntersects: return a.Intersects(b);
    case TemporalPredicate::kContains: return a.Contains(b);
    case TemporalPredicate::kContainedBy: return b.Contains(a);
  }
  return false;
}

}  // namespace stark

#endif  // STARK_TEMPORAL_INTERVAL_H_
