/// \file window.h
/// Event-time windows over StreamEvent time: tumbling and sliding windows
/// that fire on watermark advance, with late-event policy and duplicate
/// suppression. Windows are half-open [start, start + size) intervals whose
/// starts are aligned to multiples of the slide, so assignment is pure
/// arithmetic and identical for the streaming path and the batch oracle.
#ifndef STARK_STREAM_WINDOW_H_
#define STARK_STREAM_WINDOW_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "stream/event.h"
#include "stream/watermark.h"

namespace stark {
namespace stream {

/// What happens to an event that arrives behind the watermark.
enum class LatePolicy {
  kDrop,        // count it and discard
  kSideOutput,  // count it and append to the side-output channel
};

/// Window shape. slide == 0 (or slide == size) is a tumbling window; a
/// smaller slide yields overlapping sliding windows.
struct WindowSpec {
  int64_t size = 1;
  int64_t slide = 0;

  int64_t EffectiveSlide() const { return slide > 0 ? slide : size; }
};

/// Floor division (round toward -inf), so window alignment is correct for
/// negative event times too.
inline int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if (a % b != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}

/// Start of the last (highest-start) window containing event time \p t.
inline int64_t LastWindowStart(Instant t, const WindowSpec& spec) {
  return FloorDiv(t, spec.EffectiveSlide()) * spec.EffectiveSlide();
}

/// Start of the first (lowest-start) window containing event time \p t.
/// The windows containing t start at FirstWindowStart, FirstWindowStart +
/// slide, ..., LastWindowStart: exactly one for a tumbling window, none
/// (FirstWindowStart > LastWindowStart) when slide > size leaves t in a gap.
inline int64_t FirstWindowStart(Instant t, const WindowSpec& spec) {
  const int64_t slide = spec.EffectiveSlide();
  const int64_t last = LastWindowStart(t, spec);
  // Earlier starts last - k * slide qualify while they stay above
  // t - size; last - t lies in (-slide, 0], so the numerator is >= -slide
  // and a gap yields k = -1, one slide past the last start.
  return last - FloorDiv(last - t + spec.size - 1, slide) * slide;
}

/// One complete window, ready for pattern evaluation. Events are in
/// canonical (event_time, id) order regardless of arrival order.
struct FiredWindow {
  int64_t start = 0;
  int64_t end = 0;  // exclusive
  std::vector<StreamEvent> events;
};

/// \brief Buffers in-flight windows and fires them when the watermark
/// passes their end.
///
/// Protocol (enforced by StreamContext): for each arriving event, compute
/// the combined watermark W *before* observing the event, then call
/// Ingest(event, W). The event is late iff its time is < W; a non-late
/// event's windows all end after W, so no window an accepted event joins
/// can already have fired — every event is atomically in all of its windows
/// or in none (late). Windows fire, in start order and with no gaps, once
/// W >= end; empty windows between occupied ones fire too, so the window
/// sequence is dense over the covered time range (matching the batch
/// oracle's enumeration exactly).
///
/// Duplicate suppression: the first arrival of each id wins; later arrivals
/// are reported as duplicates and never buffered, which is what makes
/// exactly-once sinks safe under at-least-once sources. State note: the ids
/// set grows with the unique-event count — real deployments would TTL it
/// past the watermark; the replay harness runs bounded streams.
///
/// Thread-safe: concurrent sources may ingest while the driver collects.
class WindowManager {
 public:
  WindowManager(const WindowSpec& spec, LatePolicy policy)
      : spec_(spec), policy_(policy) {}

  struct IngestResult {
    bool accepted = false;
    bool late = false;
    bool duplicate = false;
  };

  /// Routes one event given the combined watermark at its arrival. The
  /// event moves into its last window and is copied only into the earlier
  /// windows of a sliding spec (or moves to the side output when late).
  IngestResult Ingest(StreamEvent event, Instant watermark);

  /// Fires every window with end <= \p watermark, in start order. Includes
  /// empty windows between the first-ever occupied window and the frontier.
  std::vector<FiredWindow> CollectRipe(Instant watermark);

  /// End-of-stream: fires all remaining buffered windows (and the empty
  /// ones between them), in start order.
  std::vector<FiredWindow> Flush();

  /// Late events captured under LatePolicy::kSideOutput, in arrival order.
  std::vector<StreamEvent> TakeSideOutput();

  const WindowSpec& spec() const { return spec_; }

 private:
  /// Pops the window starting at next_start_ (occupied or empty), puts its
  /// events in canonical order, advances the frontier, and appends it to
  /// \p out. Caller holds mu_.
  void FireFrontierLocked(std::vector<FiredWindow>* out);

  WindowSpec spec_;
  LatePolicy policy_;

  mutable std::mutex mu_;
  /// Buffered events per window start; keys are aligned starts >= frontier.
  std::map<int64_t, std::vector<StreamEvent>> buffered_;
  /// Next window start to fire; unset until the first event is accepted.
  /// Until the first firing it may still extend downward as out-of-order
  /// events reveal earlier windows; afterwards it only advances.
  std::optional<int64_t> next_start_;
  bool fired_any_ = false;
  std::unordered_set<int64_t> seen_ids_;
  std::vector<StreamEvent> side_output_;
};

}  // namespace stream
}  // namespace stark

#endif  // STARK_STREAM_WINDOW_H_
