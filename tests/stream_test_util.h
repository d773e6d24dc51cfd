// Deterministic stream-replay harness.
//
// Everything here is driven by *event time*, so the "clock" of a replay is
// entirely virtual: a test scripts an arrival schedule (any permutation of
// the events, with duplicates and late stragglers), replays it through a
// StreamContext, and compares the fired windows byte-for-byte against a
// batch recomputation by the oracle below. The oracle is deliberately
// scalar and brute-force — no watermark tracker, no window manager, no
// tree-accelerated matching — so an agreement between the two is evidence,
// not tautology.
#ifndef STARK_TESTS_STREAM_TEST_UTIL_H_
#define STARK_TESTS_STREAM_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geometry/geometry.h"
#include "stream/cep.h"
#include "stream/event.h"
#include "stream/source.h"
#include "stream/stream_context.h"
#include "stream/watermark.h"
#include "stream/window.h"

namespace stark {
namespace test {

using stream::FiredWindow;
using stream::StreamEvent;
using stream::WindowSpec;

inline StreamEvent MakeEvent(int64_t id, Instant t,
                             const std::string& category, double x,
                             double y) {
  StreamEvent e;
  e.id = id;
  e.category = category;
  e.obj = STObject(Geometry::MakePoint({x, y}), t);
  return e;
}

/// A source that replays a scripted arrival schedule verbatim — the knob
/// that lets tests feed any out-of-order / late / duplicate interleaving.
class ScriptedSource final : public stream::StreamSource {
 public:
  explicit ScriptedSource(std::vector<StreamEvent> arrivals,
                          std::string name = "scripted")
      : name_(std::move(name)), arrivals_(std::move(arrivals)) {}

  const std::string& name() const override { return name_; }

  std::vector<StreamEvent> Poll(size_t max_events) override {
    std::vector<StreamEvent> batch;
    while (cursor_ < arrivals_.size() && batch.size() < max_events) {
      batch.push_back(arrivals_[cursor_++]);
    }
    return batch;
  }

  bool Exhausted() const override { return cursor_ >= arrivals_.size(); }
  void Reset() override { cursor_ = 0; }

 private:
  std::string name_;
  std::vector<StreamEvent> arrivals_;
  size_t cursor_ = 0;
};

/// A seeded arrival schedule: events shuffled by at most `disorder` ticks
/// of displacement, with `duplicates` extra deliveries of random events
/// appended at random later positions.
inline std::vector<StreamEvent> ShuffledArrivals(
    const std::vector<StreamEvent>& events, uint64_t seed, int64_t disorder,
    size_t duplicates = 0) {
  Rng rng(seed);
  std::vector<std::pair<int64_t, size_t>> order;
  order.reserve(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    const int64_t jitter =
        disorder > 0 ? static_cast<int64_t>(rng.UniformInt(0, disorder)) : 0;
    order.emplace_back(events[i].event_time() + jitter, i);
  }
  std::sort(order.begin(), order.end());
  std::vector<StreamEvent> arrivals;
  arrivals.reserve(events.size() + duplicates);
  for (const auto& [key, i] : order) arrivals.push_back(events[i]);
  for (size_t d = 0; d < duplicates && !arrivals.empty(); ++d) {
    const size_t src = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(arrivals.size()) - 1));
    const size_t pos = src + static_cast<size_t>(rng.UniformInt(
                                 0, static_cast<int64_t>(arrivals.size()) -
                                        static_cast<int64_t>(src) - 1));
    arrivals.insert(arrivals.begin() + static_cast<int64_t>(pos) + 1,
                    arrivals[src]);
  }
  return arrivals;
}

// ---------------------------------------------------------------------------
// Batch-reference oracle.
// ---------------------------------------------------------------------------

/// What a scalar replay of \p arrivals decides about each delivery. This
/// re-derives the accept/late/duplicate split with plain sequential code:
/// watermark = max event time seen so far minus the bound, evaluated
/// *before* the event it judges.
struct ReferenceReplay {
  std::vector<StreamEvent> accepted;  // arrival order, deduplicated
  std::vector<StreamEvent> late;      // arrival order
  size_t duplicates = 0;
};

inline ReferenceReplay ReplayArrivals(const std::vector<StreamEvent>& arrivals,
                                      int64_t bound) {
  ReferenceReplay out;
  std::set<int64_t> seen;
  Instant max_seen = std::numeric_limits<Instant>::min();
  bool any = false;
  for (const StreamEvent& e : arrivals) {
    if (!seen.insert(e.id).second) {
      ++out.duplicates;
      continue;
    }
    const Instant t = e.event_time();
    if (any && t < max_seen - bound) {
      out.late.push_back(e);
    } else {
      out.accepted.push_back(e);
    }
    if (!any || t > max_seen) {
      max_seen = t;
      any = true;
    }
  }
  return out;
}

/// Batch window enumeration over a complete event set: every aligned window
/// start from the earliest window containing the earliest event through the
/// last window containing the latest event, empty windows included. Window
/// membership is a plain scalar time filter; contents are in canonical
/// (event_time, id) order.
inline std::vector<FiredWindow> BatchWindows(
    const std::vector<StreamEvent>& events, const WindowSpec& spec) {
  std::vector<FiredWindow> out;
  if (events.empty()) return out;
  Instant min_t = events[0].event_time();
  Instant max_t = min_t;
  for (const StreamEvent& e : events) {
    min_t = std::min(min_t, e.event_time());
    max_t = std::max(max_t, e.event_time());
  }
  const int64_t slide = spec.EffectiveSlide();
  const int64_t first = stream::FirstWindowStart(min_t, spec);
  const int64_t last = stream::LastWindowStart(max_t, spec);
  for (int64_t s = first; s <= last; s += slide) {
    FiredWindow w;
    w.start = s;
    w.end = s + spec.size;
    for (const StreamEvent& e : events) {
      if (e.event_time() >= s && e.event_time() < w.end) w.events.push_back(e);
    }
    std::sort(w.events.begin(), w.events.end(), stream::CanonicalLess);
    out.push_back(std::move(w));
  }
  return out;
}

/// Brute-force scalar pattern evaluation over one window, using only
/// StepPredicate::Matches — no engine job, no tree, no chunking. Must agree
/// with stream::EvaluatePattern on every window.
inline std::vector<stream::PatternMatch> ReferencePattern(
    const stream::PatternSpec& spec, const FiredWindow& window) {
  std::vector<std::vector<size_t>> step_indices(spec.steps.size());
  for (size_t s = 0; s < spec.steps.size(); ++s) {
    for (size_t i = 0; i < window.events.size(); ++i) {
      if (spec.steps[s].Matches(window.events[i])) {
        step_indices[s].push_back(i);
      }
    }
  }
  std::vector<stream::PatternMatch> matches;
  auto make_match = [&window](int64_t count) {
    stream::PatternMatch m;
    m.window_start = window.start;
    m.window_end = window.end;
    m.count = count;
    return m;
  };
  switch (spec.kind) {
    case stream::PatternKind::kCount: {
      const int64_t count = static_cast<int64_t>(step_indices[0].size());
      if (stream::EvalCountCmp(count, spec.cmp, spec.threshold)) {
        stream::PatternMatch m = make_match(count);
        for (size_t i : step_indices[0]) m.events.push_back(window.events[i]);
        matches.push_back(std::move(m));
      }
      break;
    }
    case stream::PatternKind::kAbsence: {
      if (step_indices[0].empty()) matches.push_back(make_match(0));
      break;
    }
    case stream::PatternKind::kSequence: {
      // Iterative odometer over one index per step, filtered for strictly
      // increasing times and the WITHIN span; emits tuples in lexicographic
      // order like a nested loop would.
      std::vector<size_t> pos(spec.steps.size(), 0);
      std::vector<size_t> tuple;
      struct Frame { size_t step; size_t cursor; };
      std::vector<Frame> stack;
      stack.push_back({0, 0});
      while (!stack.empty()) {
        Frame& f = stack.back();
        if (f.step == spec.steps.size()) {
          stream::PatternMatch m =
              make_match(static_cast<int64_t>(tuple.size()));
          for (size_t i : tuple) m.events.push_back(window.events[i]);
          matches.push_back(std::move(m));
          stack.pop_back();
          if (!tuple.empty()) tuple.pop_back();
          continue;
        }
        bool advanced = false;
        while (f.cursor < step_indices[f.step].size()) {
          const size_t i = step_indices[f.step][f.cursor++];
          const Instant t = window.events[i].event_time();
          if (!tuple.empty()) {
            const Instant prev =
                window.events[tuple.back()].event_time();
            const Instant first =
                window.events[tuple.front()].event_time();
            if (t <= prev) continue;
            if (spec.within > 0 && t - first > spec.within) continue;
          }
          tuple.push_back(i);
          stack.push_back({f.step + 1, 0});
          advanced = true;
          break;
        }
        if (!advanced) {
          stack.pop_back();
          if (!tuple.empty()) tuple.pop_back();
        }
      }
      break;
    }
  }
  return matches;
}

// ---------------------------------------------------------------------------
// Byte-comparable serializations: the differential assertions compare these
// strings, so "equal" means equal in every field and in order.
// ---------------------------------------------------------------------------

/// The whole event: id, time, category and geometry, so a moved-from or
/// otherwise damaged event cannot pass for the original on its id alone.
inline std::string FormatEventRef(const StreamEvent& e) {
  return std::to_string(e.id) + "@" + std::to_string(e.event_time()) + ":" +
         e.category + ":" + e.obj.geo().ToWkt();
}

inline std::string FormatWindow(const FiredWindow& w) {
  std::string out = "[";
  out += std::to_string(w.start);
  out += ',';
  out += std::to_string(w.end);
  out += ')';
  for (const StreamEvent& e : w.events) {
    out += ' ';
    out += FormatEventRef(e);
  }
  return out;
}

inline std::string FormatWindows(const std::vector<FiredWindow>& windows) {
  std::string out;
  for (const FiredWindow& w : windows) out += FormatWindow(w) + "\n";
  return out;
}

inline std::string FormatMatch(const stream::PatternMatch& m) {
  std::string out = "[" + std::to_string(m.window_start) + "," +
                    std::to_string(m.window_end) +
                    ") count=" + std::to_string(m.count);
  for (const StreamEvent& e : m.events) out += " " + FormatEventRef(e);
  return out;
}

inline std::string FormatMatches(
    const std::vector<stream::PatternMatch>& matches) {
  std::string out;
  for (const stream::PatternMatch& m : matches) out += FormatMatch(m) + "\n";
  return out;
}

/// Runs one scripted replay end to end and collects every sink delivery.
struct ReplayRun {
  std::vector<stream::WindowResult> results;
  stream::StreamStats stats;
  std::vector<StreamEvent> side_output;
  /// The exactly-once ledger: window starts in sink-delivery order.
  std::vector<int64_t> delivered_starts;
  Status status = Status::OK();

  std::vector<FiredWindow> Windows() const {
    std::vector<FiredWindow> out;
    for (const stream::WindowResult& r : results) out.push_back(r.window);
    return out;
  }
  std::vector<stream::PatternMatch> Matches() const {
    std::vector<stream::PatternMatch> out;
    for (const stream::WindowResult& r : results) {
      out.insert(out.end(), r.matches.begin(), r.matches.end());
    }
    return out;
  }
};

inline ReplayRun Replay(Context* ctx, std::vector<StreamEvent> arrivals,
                        int64_t bound, stream::StreamContext::Options options) {
  ReplayRun run;
  stream::StreamContext sc(ctx, std::move(options));
  sc.AddSource(std::make_unique<ScriptedSource>(std::move(arrivals)), bound);
  sc.SetSink([&run](const stream::WindowResult& result) {
    run.results.push_back(result);
  });
  run.status = sc.RunToCompletion();
  run.stats = sc.stats();
  run.side_output = sc.TakeSideOutput();
  run.delivered_starts = sc.delivered_window_starts();
  return run;
}

}  // namespace test
}  // namespace stark

#endif  // STARK_TESTS_STREAM_TEST_UTIL_H_
