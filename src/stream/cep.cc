#include "stream/cep.h"

#include <algorithm>
#include <utility>

#include "index/packed_rtree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace stark {
namespace stream {

namespace {

/// Below this many range events a linear BoundPredicate scan beats building
/// a throwaway tree (same break-even shape as the live-index filter path).
constexpr size_t kTreeThreshold = 32;

/// Matched indices within [begin, end), ascending. Exactness contract: the
/// result must equal {i : step.Matches(events[i])} — the tree is only a
/// candidate generator, every candidate is refined with BoundPredicate.
std::vector<size_t> MatchRange(const std::vector<StreamEvent>& events,
                               const StepPredicate& step, size_t begin,
                               size_t end) {
  static obs::Counter* const tree_probes =
      obs::DefaultMetrics().GetCounter("stream.cep.tree_probes");
  std::vector<size_t> matched;
  if (!step.region.has_value()) {
    for (size_t i = begin; i < end; ++i) {
      if (step.category.empty() || events[i].category == step.category) {
        matched.push_back(i);
      }
    }
    return matched;
  }
  // Category prefilter feeds the spatial stage.
  std::vector<size_t> pool;
  for (size_t i = begin; i < end; ++i) {
    if (step.category.empty() || events[i].category == step.category) {
      pool.push_back(i);
    }
  }
  const BoundPredicate::Side side = BoundPredicate::Side::kCandidateLeft;
  BoundPredicate bound(step.pred, *step.region, side);
  const bool spatial_only = !step.region->HasTime();
  auto refine = [&](size_t i) {
    const STObject& obj = events[i].obj;
    return spatial_only ? bound.Eval(STObject(obj.geo())) : bound.Eval(obj);
  };
  size_t candidates = 0;
  if (step.pred.Prunable() && pool.size() >= kTreeThreshold) {
    std::vector<std::pair<Envelope, size_t>> entries;
    entries.reserve(pool.size());
    for (size_t i : pool) entries.emplace_back(events[i].obj.envelope(), i);
    PackedRTree<size_t> tree(16, std::move(entries));
    const Envelope query =
        step.region->envelope().Expanded(step.pred.EnvelopeMargin());
    tree.Query(query, [&](const Envelope&, const size_t& i) {
      ++candidates;
      if (refine(i)) matched.push_back(i);
    });
    tree_probes->Increment();
    std::sort(matched.begin(), matched.end());
  } else {
    candidates = pool.size();
    for (size_t i : pool) {
      if (refine(i)) matched.push_back(i);
    }
  }
  if (obs::TaskSpan* span = obs::CurrentTaskSpan()) {
    span->records_in += end - begin;
    span->candidates += candidates;
    span->refined += matched.size();
    span->records_out += matched.size();
  }
  return matched;
}

/// Depth-first enumeration of sequence tuples: one matched index per step,
/// strictly increasing event time between consecutive steps, total span
/// within the bound. Step index lists are ascending, so emitted tuples are
/// in lexicographic (and therefore deterministic) order.
void EnumerateSequences(const std::vector<StreamEvent>& events,
                        const std::vector<std::vector<size_t>>& step_indices,
                        int64_t within, size_t step, Instant first_time,
                        Instant prev_time, std::vector<size_t>* tuple,
                        std::vector<std::vector<size_t>>* out) {
  if (step == step_indices.size()) {
    out->push_back(*tuple);
    return;
  }
  for (size_t i : step_indices[step]) {
    const Instant t = events[i].event_time();
    if (step > 0) {
      if (t <= prev_time) continue;
      if (within > 0 && t - first_time > within) continue;
    }
    tuple->push_back(i);
    EnumerateSequences(events, step_indices, within, step + 1,
                       step == 0 ? t : first_time, t, tuple, out);
    tuple->pop_back();
  }
}

}  // namespace

size_t WindowJobTasks(size_t events, size_t tasks_per_window,
                      size_t parallelism) {
  const size_t wanted =
      tasks_per_window != 0
          ? tasks_per_window
          : std::min(parallelism, (events + kEventsPerWindowTask - 1) /
                                      kEventsPerWindowTask);
  return std::max<size_t>(1, std::min(wanted, events));
}

Result<std::vector<size_t>> MatchStepIndices(
    Context* ctx, const std::vector<StreamEvent>& events,
    const StepPredicate& step, size_t tasks_per_window) {
  const size_t n = events.size();
  const size_t tasks =
      WindowJobTasks(n, tasks_per_window, ctx->default_parallelism());
  std::vector<std::vector<size_t>> slots(tasks);
  const size_t chunk = (n + tasks - 1) / tasks;
  STARK_RETURN_NOT_OK(
      ctx->TryRunTasks("stream.window.match", tasks, [&](size_t p) {
        const size_t begin = std::min(p * chunk, n);
        const size_t end = std::min(begin + chunk, n);
        // A retried or speculative copy rebuilds its slot from scratch;
        // the claim protocol guarantees a single writer per slot.
        slots[p] = MatchRange(events, step, begin, end);
      }));
  std::vector<size_t> matched;
  for (std::vector<size_t>& slot : slots) {
    matched.insert(matched.end(), slot.begin(), slot.end());
  }
  return matched;  // ranges are disjoint and ordered, so this is ascending
}

Result<std::vector<PatternMatch>> EvaluatePattern(Context* ctx,
                                                  const PatternSpec& spec,
                                                  const FiredWindow& window,
                                                  size_t tasks_per_window) {
  static obs::Counter* const matches_counter =
      obs::DefaultMetrics().GetCounter("stream.matches");
  if (spec.steps.empty()) {
    return Status::InvalidArgument("stream: pattern has no steps");
  }
  const std::vector<StreamEvent>& events = window.events;
  std::vector<std::vector<size_t>> step_indices;
  step_indices.reserve(spec.steps.size());
  for (const StepPredicate& step : spec.steps) {
    STARK_ASSIGN_OR_RETURN(
        std::vector<size_t> indices,
        MatchStepIndices(ctx, events, step, tasks_per_window));
    step_indices.push_back(std::move(indices));
  }

  std::vector<PatternMatch> matches;
  switch (spec.kind) {
    case PatternKind::kCount: {
      const int64_t count = static_cast<int64_t>(step_indices[0].size());
      if (EvalCountCmp(count, spec.cmp, spec.threshold)) {
        PatternMatch match;
        match.window_start = window.start;
        match.window_end = window.end;
        match.count = count;
        for (size_t i : step_indices[0]) {
          match.events.push_back(events[i]);
        }
        matches.push_back(std::move(match));
      }
      break;
    }
    case PatternKind::kAbsence: {
      if (step_indices[0].empty()) {
        PatternMatch match;
        match.window_start = window.start;
        match.window_end = window.end;
        match.count = 0;
        matches.push_back(std::move(match));
      }
      break;
    }
    case PatternKind::kSequence: {
      if (spec.steps.size() < 2) {
        return Status::InvalidArgument(
            "stream: SEQ pattern needs at least two steps");
      }
      std::vector<std::vector<size_t>> tuples;
      std::vector<size_t> tuple;
      EnumerateSequences(events, step_indices, spec.within, 0, 0, 0, &tuple,
                         &tuples);
      for (const std::vector<size_t>& t : tuples) {
        PatternMatch match;
        match.window_start = window.start;
        match.window_end = window.end;
        match.count = static_cast<int64_t>(t.size());
        for (size_t i : t) match.events.push_back(events[i]);
        matches.push_back(std::move(match));
      }
      break;
    }
  }
  matches_counter->Add(matches.size());
  return matches;
}

}  // namespace stream
}  // namespace stark
