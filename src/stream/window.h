/// \file window.h
/// Event-time windows over StreamEvent time: tumbling and sliding windows
/// that fire on watermark advance, with late-event policy and duplicate
/// suppression. Windows are half-open [start, start + size) intervals whose
/// starts are aligned to multiples of the slide, so assignment is pure
/// arithmetic and identical for the streaming path and the batch oracle.
#ifndef STARK_STREAM_WINDOW_H_
#define STARK_STREAM_WINDOW_H_

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
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

/// \brief Set of event ids by open addressing: linear probing over a
/// power-of-two table kept at most half full, with backward-shift deletion
/// (no tombstones). An insert or erase allocates only when the table
/// doubles, never per id.
class IdSet {
 public:
  /// Adds \p id; false when it was already present.
  bool Insert(int64_t id);
  bool Contains(int64_t id) const;
  void Erase(int64_t id);
  size_t size() const { return size_; }

 private:
  /// Marks a free slot; the id equal to it is kept in has_empty_key_.
  static constexpr int64_t kEmpty = std::numeric_limits<int64_t>::min();

  size_t Home(int64_t id) const;
  void Grow();

  std::vector<int64_t> slots_;
  int shift_ = 64;  // 64 - log2(slots_.size())
  size_t size_ = 0;
  bool has_empty_key_ = false;
};

/// \brief Buffers in-flight windows and fires them when the watermark
/// passes their end.
///
/// Protocol (enforced by StreamContext): for each arriving event, compute
/// the combined watermark W *before* observing the event, then call
/// Ingest(event, W) (or IngestBatch with one W per event). The event is
/// late iff its time is < W; a non-late event's windows all end after W,
/// so no window an accepted event joins can already have fired — every
/// event is atomically in all of its windows or in none (late). The
/// manager judges against the highest W any call has passed it, so
/// concurrent callers whose W was read earlier cannot move an event back
/// from late to on time. Windows fire, in start order and with no gaps,
/// once W >= end; empty windows between occupied ones fire too, so the
/// window sequence is dense over the covered time range (matching the
/// batch oracle's enumeration exactly).
///
/// Duplicate suppression: the first arrival of each id wins; later arrivals
/// are reported as duplicates and never buffered, which is what makes
/// exactly-once sinks safe under at-least-once sources. An id names one
/// logical event, so every delivery of it carries the same time t, and
/// LastWindowStart(t) alone says where an earlier delivery was recorded:
///  - open tier: the ids of accepted events whose last window has not
///    fired, in an IdSet. An id leaves it when that window fires, so its
///    size is bounded by the events in open windows.
///  - fired-id archive: when a window fires, the (event_time, id) pairs of
///    the events whose last window it is are appended in canonical order,
///    16 bytes each. It grows with the accepted events: bounding it would
///    turn a redelivery after all its windows fired from a duplicate into a
///    late event.
///  - misc set: the ids of late deliveries and of on-time events that fall
///    in a gap between windows (slide > size).
/// An on-time delivery can only repeat an open-tier id (its last window has
/// not fired, and a watermark that never regresses made no earlier
/// delivery of its time late), so the hot path touches only the open tier.
/// The archive and the misc set are read only where a delivery ends late
/// or in a gap. A source that reuses an id at a different time breaks the
/// one-id-one-time rule. The reuse is looked up only in the tier its own
/// time points at; it is a duplicate only if that tier holds the id, and
/// is otherwise routed as a new event (windowed or late).
///
/// Buffers: a polled batch is routed under one lock (IngestBatch), and a
/// fired window's buffer is cleared and reused for the next window opened,
/// so in steady state no window buffer regrows.
///
/// Thread-safe: concurrent sources may ingest while the driver collects.
class WindowManager {
 public:
  WindowManager(const WindowSpec& spec, LatePolicy policy)
      : spec_(spec), policy_(policy) {}

  /// Outcome tallies of the deliveries one call routed.
  struct IngestCounts {
    uint64_t accepted = 0;
    uint64_t late = 0;
    uint64_t duplicates = 0;
  };

  /// Routes one event given the combined watermark at its arrival. The
  /// event moves into its last window and is copied only into the earlier
  /// windows of a sliding spec (or moves to the side output when late).
  IngestCounts Ingest(StreamEvent event, Instant watermark);

  /// Routes a polled batch under one lock, in order, exactly as one
  /// Ingest per event would: \p watermarks[i] is the watermark at
  /// \p events[i]'s arrival.
  IngestCounts IngestBatch(std::vector<StreamEvent> events,
                           const std::vector<Instant>& watermarks);

  /// Fires every window with end <= \p watermark, in start order. Includes
  /// empty windows between the first-ever occupied window and the frontier.
  std::vector<FiredWindow> CollectRipe(Instant watermark);

  /// End-of-stream: fires all remaining buffered windows (and the empty
  /// ones between them), in start order.
  std::vector<FiredWindow> Flush();

  /// Late events captured under LatePolicy::kSideOutput, in arrival order.
  std::vector<StreamEvent> TakeSideOutput();

  /// Entries held by each dedupe tier and by the open window buffers.
  struct StateSize {
    size_t open_ids = 0;
    size_t archived_ids = 0;
    size_t buffered_events = 0;  // summed over open windows
  };
  StateSize state_size() const;

  const WindowSpec& spec() const { return spec_; }

 private:
  void IngestLocked(StreamEvent& event, Instant watermark,
                    IngestCounts* counts);
  /// Late or gap delivery: a duplicate when any tier holds its id, else
  /// recorded in the misc set and counted \p late or accepted.
  void IngestColdLocked(StreamEvent& event, int64_t last, bool late,
                        IngestCounts* counts);
  /// Whether an earlier delivery of (\p id, \p t) was recorded, reading
  /// the one tier LastWindowStart(t) == \p last points at, plus misc.
  bool SeenLocked(int64_t id, Instant t, int64_t last) const;
  /// The buffer of the window starting at \p start, opened on first use
  /// with a recycled buffer when one is spare.
  std::vector<StreamEvent>& BufferLocked(int64_t start);
  /// Pops the window starting at next_start_ (occupied or empty), puts its
  /// events in canonical order, moves the ids whose last window it is from
  /// the open tier to the archive, advances the frontier, and appends it to
  /// \p out. Caller holds mu_.
  void FireFrontierLocked(std::vector<FiredWindow>* out);

  WindowSpec spec_;
  LatePolicy policy_;

  mutable std::mutex mu_;
  /// Buffered events per window start; keys are aligned starts >= frontier.
  std::map<int64_t, std::vector<StreamEvent>> buffered_;
  /// Cleared buffers of fired windows, reused by the next windows opened.
  std::vector<std::vector<StreamEvent>> spare_buffers_;
  /// Next window start to fire; unset until the first event is accepted.
  /// Until the first firing it may still extend downward as out-of-order
  /// events reveal earlier windows; afterwards it only advances.
  std::optional<int64_t> next_start_;
  bool fired_any_ = false;
  /// Highest watermark any ingest has passed.
  Instant high_watermark_ = kMinWatermark;

  IdSet open_ids_;
  /// Keys of the events whose last window has fired. Sorted: a window
  /// archives only events with t in [start, start + slide), windows fire in
  /// start order, and each window's events are appended in canonical order.
  std::vector<CanonicalKey> archive_;
  IdSet misc_ids_;

  /// Keys of the firing window's events with their buffer slots, kept to
  /// reuse their storage.
  struct SortKey {
    CanonicalKey key;
    size_t slot;
  };
  std::vector<SortKey> sort_keys_;

  std::vector<StreamEvent> side_output_;
};

}  // namespace stream
}  // namespace stark

#endif  // STARK_STREAM_WINDOW_H_
