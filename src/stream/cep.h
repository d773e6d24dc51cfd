/// \file cep.h
/// Complex-event-processing operators over fired window contents: sequence
/// (A then B within Δt), absence, and count/aggregate-over-window. Every
/// step predicate is a spatio-temporal filter — category equality plus an
/// optional region constraint evaluated through the same BoundPredicate
/// refinement (and, for large windows, PackedRTree candidate pruning) as
/// the batch filter path, so streaming matches are bit-for-bit identical to
/// a batch recomputation of the window.
#ifndef STARK_STREAM_CEP_H_
#define STARK_STREAM_CEP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/context.h"
#include "spatial_rdd/predicate.h"
#include "stream/window.h"

namespace stark {
namespace stream {

/// \brief One pattern step: "an event of this category, in this region".
///
/// An empty category matches any event. A region without a temporal
/// component constrains space only (the event's time is ignored); a region
/// with one uses the combined spatio-temporal predicate semantics of the
/// paper (formula (1)-(3)).
struct StepPredicate {
  std::string category;
  std::optional<STObject> region;
  JoinPredicate pred = JoinPredicate::Intersects();

  /// Scalar evaluation (the reference semantics; the parallel path in
  /// MatchStepIndices must agree exactly).
  bool Matches(const StreamEvent& event) const {
    if (!category.empty() && event.category != category) return false;
    if (!region.has_value()) return true;
    if (!region->HasTime()) {
      return pred.Eval(STObject(event.obj.geo()), *region);
    }
    return pred.Eval(event.obj, *region);
  }
};

enum class PatternKind { kSequence, kAbsence, kCount };

/// Comparison applied to the matched-event count of a COUNT pattern.
enum class CountCmp { kGe, kGt, kLe, kLt, kEq };

inline bool EvalCountCmp(int64_t count, CountCmp cmp, int64_t threshold) {
  switch (cmp) {
    case CountCmp::kGe: return count >= threshold;
    case CountCmp::kGt: return count > threshold;
    case CountCmp::kLe: return count <= threshold;
    case CountCmp::kLt: return count < threshold;
    case CountCmp::kEq: return count == threshold;
  }
  return false;
}

/// \brief A CEP pattern over one window.
///
/// kSequence: steps.size() >= 2; a match is one event per step with
/// strictly increasing event times, all inside the window, spanning at most
/// `within` ticks from first to last (within == 0 means unbounded).
/// kAbsence: one step; the pattern fires iff NO window event matches it.
/// kCount: one step; fires iff EvalCountCmp(matches, cmp, threshold).
struct PatternSpec {
  PatternKind kind = PatternKind::kCount;
  std::vector<StepPredicate> steps;
  int64_t within = 0;
  CountCmp cmp = CountCmp::kGe;
  int64_t threshold = 1;
};

/// One pattern firing. For kSequence, `events` is the matched tuple (one
/// event per step, time-ordered); for kCount, the matched events in
/// canonical order; for kAbsence, empty. `count` is the step-0 match count
/// (kCount/kAbsence) or the tuple size (kSequence).
struct PatternMatch {
  int64_t window_start = 0;
  int64_t window_end = 0;
  std::vector<StreamEvent> events;
  int64_t count = 0;
};

/// Events one window-job task is sized for. Matching a small window inline
/// costs less than dispatching it, so a window job fans out only when its
/// window holds more events than this (docs/PERFORMANCE.md has the sweep).
constexpr size_t kEventsPerWindowTask = 4096;

/// Tasks for one window job over \p events events: an explicit
/// \p tasks_per_window wins (capped at one task per event); otherwise
/// ceil(events / kEventsPerWindowTask), clamped to [1, parallelism].
size_t WindowJobTasks(size_t events, size_t tasks_per_window,
                      size_t parallelism);

/// \brief Indices (into \p events, ascending) of the events matching
/// \p step, computed as one engine job of WindowJobTasks(events.size(),
/// \p tasks_per_window, parallelism) partition-tasks.
///
/// Each task evaluates a contiguous index range: category prefilter, then
/// either a PackedRTree candidate pass over the range (prunable region
/// predicates on enough events) refined with BoundPredicate, or a direct
/// BoundPredicate scan. Both paths are exact, so the result equals the
/// scalar `step.Matches` applied to every event — the task decomposition
/// and index structure are invisible in the answer. \p events is read in
/// place: the job settles before this returns, so no task outlives it.
Result<std::vector<size_t>> MatchStepIndices(
    Context* ctx, const std::vector<StreamEvent>& events,
    const StepPredicate& step, size_t tasks_per_window);

/// Evaluates \p spec over one fired window, running each step's matching as
/// an engine job on \p ctx (deadlines, retries, speculation and the flight
/// recorder all apply). Deterministic: matches depend only on the window
/// contents, which are canonically ordered.
Result<std::vector<PatternMatch>> EvaluatePattern(Context* ctx,
                                                  const PatternSpec& spec,
                                                  const FiredWindow& window,
                                                  size_t tasks_per_window);

}  // namespace stream
}  // namespace stark

#endif  // STARK_STREAM_CEP_H_
