/// \file event.h
/// The unit of the streaming layer: one timestamped spatio-temporal event.
/// Mirrors the batch layer's EventRecord (id, category, time, wkt) after
/// spatial parsing — sources emit StreamEvents, windows buffer them, and
/// CEP predicates evaluate their STObject exactly like a batch filter.
#ifndef STARK_STREAM_EVENT_H_
#define STARK_STREAM_EVENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/stobject.h"
#include "io/csv.h"

namespace stark {
namespace stream {

/// \brief One event on the stream.
///
/// `id` identifies the *logical* event: at-least-once sources may deliver
/// the same id twice, and the window layer deduplicates on it (exactly-once
/// window contents). Event time is the STObject's temporal component; every
/// StreamEvent must carry one (sources guarantee this).
struct StreamEvent {
  int64_t id = 0;
  std::string category;
  STObject obj;

  StreamEvent() : obj(Geometry::MakePoint({0.0, 0.0}), Instant{0}) {}
  StreamEvent(int64_t id_in, std::string category_in, STObject obj_in)
      : id(id_in), category(std::move(category_in)), obj(std::move(obj_in)) {}

  /// Event time on the stream's time axis: the start of the STObject's
  /// interval (instants are degenerate intervals, so start == the instant).
  Instant event_time() const { return obj.time()->start(); }
};

/// An event's place in the canonical window ordering: (event time, id).
struct CanonicalKey {
  Instant time;
  int64_t id;

  friend auto operator<=>(const CanonicalKey&, const CanonicalKey&) = default;
};

inline CanonicalKey KeyOf(const StreamEvent& e) {
  return {e.event_time(), e.id};
}

/// Canonical window ordering. Sorting fired-window contents this way makes
/// every downstream answer independent of arrival order — the heart of the
/// streaming == batch determinism guarantee.
inline bool CanonicalLess(const StreamEvent& a, const StreamEvent& b) {
  return KeyOf(a) < KeyOf(b);
}

/// Parses a raw CSV row into a StreamEvent (WKT + instant time), the same
/// preprocessing the batch pipeline applies in EventsToPairs.
inline Result<StreamEvent> EventFromRecord(const EventRecord& record) {
  STARK_ASSIGN_OR_RETURN(STObject obj,
                         STObject::FromWkt(record.wkt, record.time));
  return StreamEvent(record.id, record.category, std::move(obj));
}

}  // namespace stream
}  // namespace stark

#endif  // STARK_STREAM_EVENT_H_
