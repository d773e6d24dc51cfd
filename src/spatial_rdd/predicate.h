/// \file predicate.h
/// Spatio-temporal predicate selector shared by filters and joins.
#ifndef STARK_SPATIAL_RDD_PREDICATE_H_
#define STARK_SPATIAL_RDD_PREDICATE_H_

#include <limits>
#include <optional>
#include <string>

#include "core/distance.h"
#include "core/stobject.h"
#include "geometry/prepared.h"

namespace stark {

/// The predicates STARK supports on RDDs (§2.3): intersects, contains,
/// containedBy, and withinDistance.
enum class PredicateType {
  kIntersects,
  kContains,
  kContainedBy,
  kWithinDistance,
};

/// Returns the lower-case API name of \p pred (as used in the DSL).
inline const char* PredicateName(PredicateType pred) {
  switch (pred) {
    case PredicateType::kIntersects: return "intersects";
    case PredicateType::kContains: return "contains";
    case PredicateType::kContainedBy: return "containedBy";
    case PredicateType::kWithinDistance: return "withinDistance";
  }
  return "?";
}

/// \brief Bundles a predicate type with the extra withinDistance parameters.
///
/// The distance function defaults to the minimum Euclidean distance between
/// the spatial components; users may pass their own (paper §2.3). Envelope
/// pruning (partition extents, R-tree candidates) is only sound for
/// functions that are lower-bounded by the Euclidean envelope distance, so
/// custom functions disable pruning unless the caller promises otherwise
/// via euclidean_compatible.
struct JoinPredicate {
  PredicateType type = PredicateType::kIntersects;
  double max_distance = 0.0;
  DistanceFunction distance = nullptr;
  bool euclidean_compatible = true;

  static JoinPredicate Intersects() { return {PredicateType::kIntersects}; }
  static JoinPredicate Contains() { return {PredicateType::kContains}; }
  static JoinPredicate ContainedBy() {
    return {PredicateType::kContainedBy};
  }
  static JoinPredicate WithinDistance(double max_distance,
                                      DistanceFunction fn = nullptr,
                                      bool euclidean_compatible_fn = false) {
    JoinPredicate p;
    p.type = PredicateType::kWithinDistance;
    p.max_distance = max_distance;
    p.euclidean_compatible = fn == nullptr || euclidean_compatible_fn;
    p.distance = std::move(fn);
    return p;
  }

  /// Exact predicate evaluation: left op right, including the paper's
  /// combined temporal semantics for the relational predicates.
  bool Eval(const STObject& left, const STObject& right) const {
    switch (type) {
      case PredicateType::kIntersects:
        return left.Intersects(right);
      case PredicateType::kContains:
        return left.Contains(right);
      case PredicateType::kContainedBy:
        return left.ContainedBy(right);
      case PredicateType::kWithinDistance: {
        if (distance) return distance(left, right) <= max_distance;
        return EuclideanDistance(left, right) <= max_distance;
      }
    }
    return false;
  }

  /// Margin to add around envelopes for candidate generation; sound for a
  /// finite d because geometries within distance d have envelopes within
  /// distance d. At d = +inf it is not: Distance folds NaN to +inf, so a
  /// NaN point, whose envelope is empty, is within +inf of everything.
  double EnvelopeMargin() const {
    return type == PredicateType::kWithinDistance ? max_distance : 0.0;
  }

  /// Whether envelope-based pruning may be applied at all. Not within a
  /// distance of +inf: every pair is within it, so pruning could only drop
  /// answers (the NaN rows, each site differently).
  bool Prunable() const {
    if (type != PredicateType::kWithinDistance) return true;
    return euclidean_compatible &&
           max_distance != std::numeric_limits<double>::infinity();
  }

  /// Whether Eval(a, b) == Eval(b, a): intersects, and withinDistance with
  /// the built-in Euclidean distance. A custom distance function may be
  /// asymmetric, and the containment predicates are.
  bool Symmetric() const {
    return type == PredicateType::kIntersects ||
           (type == PredicateType::kWithinDistance && distance == nullptr);
  }
};

namespace predicate_internal {

/// The paper's combined spatio-temporal rule (formula (1)-(3)), factored
/// out so prepared evaluation can reuse it: spatial AND (both times
/// undefined, or both defined and the temporal predicate holds).
inline bool CombinedST(bool spatial_holds,
                       const std::optional<TemporalInterval>& a,
                       const std::optional<TemporalInterval>& b,
                       TemporalPredicate temporal_pred) {
  if (!spatial_holds) return false;
  if (!a.has_value() && !b.has_value()) return true;
  if (a.has_value() && b.has_value()) {
    return EvalTemporalPredicate(temporal_pred, *a, *b);
  }
  return false;
}

}  // namespace predicate_internal

/// Evaluates `pred.Eval(left, right)` with the *right* geometry prepared.
/// \p prepared_right must be built from right.geo(). Results are identical
/// to the unprepared call (PreparedGeometry's exactness guarantee).
inline bool EvalWithPreparedRight(const JoinPredicate& pred,
                                  const STObject& left, const STObject& right,
                                  const PreparedGeometry& prepared_right) {
  using predicate_internal::CombinedST;
  switch (pred.type) {
    case PredicateType::kIntersects:
      return CombinedST(prepared_right.IntersectedBy(left.geo()), left.time(),
                        right.time(), TemporalPredicate::kIntersects);
    case PredicateType::kContains:
      // left.Contains(right): Contains(left.geo, right.geo).
      return CombinedST(prepared_right.ContainedBy(left.geo()), left.time(),
                        right.time(), TemporalPredicate::kContains);
    case PredicateType::kContainedBy:
      // right.Contains(left): Contains(right.geo, left.geo).
      return CombinedST(prepared_right.Contains(left.geo()), right.time(),
                        left.time(), TemporalPredicate::kContains);
    case PredicateType::kWithinDistance:
      if (pred.distance) {
        return pred.distance(left, right) <= pred.max_distance;
      }
      // EuclideanDistance(left, right) == Distance(left.geo, right.geo).
      return prepared_right.DistanceFrom(left.geo()) <= pred.max_distance;
  }
  return false;
}

/// Evaluates `pred.Eval(left, right)` with the *left* geometry prepared.
/// \p prepared_left must be built from left.geo().
inline bool EvalWithPreparedLeft(const JoinPredicate& pred,
                                 const STObject& left, const STObject& right,
                                 const PreparedGeometry& prepared_left) {
  using predicate_internal::CombinedST;
  switch (pred.type) {
    case PredicateType::kIntersects:
      // Intersects is value-symmetric across the kernels, so the prepared
      // side may serve either operand.
      return CombinedST(prepared_left.IntersectedBy(right.geo()), left.time(),
                        right.time(), TemporalPredicate::kIntersects);
    case PredicateType::kContains:
      return CombinedST(prepared_left.Contains(right.geo()), left.time(),
                        right.time(), TemporalPredicate::kContains);
    case PredicateType::kContainedBy:
      return CombinedST(prepared_left.ContainedBy(right.geo()), right.time(),
                        left.time(), TemporalPredicate::kContains);
    case PredicateType::kWithinDistance:
      if (pred.distance) {
        return pred.distance(left, right) <= pred.max_distance;
      }
      // Distance is value-symmetric; DistanceFrom(right.geo) computes
      // Distance(right.geo, left.geo) == Distance(left.geo, right.geo).
      return prepared_left.DistanceFrom(right.geo()) <= pred.max_distance;
  }
  return false;
}

/// \brief A JoinPredicate with one operand fixed, lazily prepared.
///
/// The hot refinement loops (filter, index probe, nested scan) evaluate one
/// fixed geometry — the query, or the current probe row — against a stream
/// of candidates. BoundPredicate binds that fixed side and prepares its
/// geometry on the *first* Eval, so a bound predicate that never refines a
/// candidate costs nothing, and one that refines N candidates prepares
/// exactly once: prepared_misses() == 1, prepared_hits() == N - 1. Flush
/// those into spatial.prepared.{hits,misses} per task (IndexMetricSet).
///
/// Custom withinDistance functions bypass preparation entirely (the fixed
/// geometry is never interrogated), counting neither hits nor misses.
///
/// Holds a pointer to the fixed STObject; it must outlive the predicate.
class BoundPredicate {
 public:
  /// Which operand slot the *candidate* fills at Eval time.
  enum class Side {
    kCandidateLeft,   // Eval(c) == pred.Eval(c, fixed)
    kCandidateRight,  // Eval(c) == pred.Eval(fixed, c)
  };

  BoundPredicate(const JoinPredicate& pred, const STObject& fixed, Side side)
      : pred_(&pred), fixed_(&fixed), side_(side) {}

  /// Exact predicate evaluation against the bound operand; identical
  /// results to the corresponding JoinPredicate::Eval call.
  bool Eval(const STObject& candidate) const {
    if (pred_->type == PredicateType::kWithinDistance && pred_->distance) {
      return side_ == Side::kCandidateLeft
                 ? pred_->Eval(candidate, *fixed_)
                 : pred_->Eval(*fixed_, candidate);
    }
    if (!prepared_.has_value()) {
      prepared_.emplace(fixed_->geo());
      ++misses_;
    } else {
      ++hits_;
    }
    return side_ == Side::kCandidateLeft
               ? EvalWithPreparedRight(*pred_, candidate, *fixed_, *prepared_)
               : EvalWithPreparedLeft(*pred_, *fixed_, candidate, *prepared_);
  }

  /// Preparations performed (0 or 1) and repeat uses; see class comment.
  size_t prepared_misses() const { return misses_; }
  size_t prepared_hits() const { return hits_; }

 private:
  const JoinPredicate* pred_;
  const STObject* fixed_;
  Side side_;
  mutable std::optional<PreparedGeometry> prepared_;
  mutable size_t misses_ = 0;
  mutable size_t hits_ = 0;
};

}  // namespace stark

#endif  // STARK_SPATIAL_RDD_PREDICATE_H_
