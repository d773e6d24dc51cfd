#include "stream/source.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "geometry/wkt.h"
#include "io/csv.h"
#include "obs/metrics.h"

namespace {
// Registry mirror of the per-source parse_errors_ member, so dropped input
// is visible in OpenMetrics exports (stark_stream_source_parse_errors_total)
// and not only to callers holding the source object.
stark::obs::Counter* ParseErrorCounter() {
  static stark::obs::Counter* const c =
      stark::obs::DefaultMetrics().GetCounter("stream.source.parse_errors");
  return c;
}
}  // namespace

namespace stark {
namespace stream {

GeneratorSource::GeneratorSource(const GeneratorOptions& options)
    : name_("generator(seed=" + std::to_string(options.seed) + ")") {
  Rng rng(options.seed);
  const size_t n_categories = std::max<size_t>(options.categories.size(), 1);
  // Events in event-time order first...
  std::vector<StreamEvent> in_order;
  in_order.reserve(options.count);
  for (size_t i = 0; i < options.count; ++i) {
    const Coordinate c{
        rng.Uniform(options.universe.min_x(), options.universe.max_x()),
        rng.Uniform(options.universe.min_y(), options.universe.max_y())};
    const std::string& category =
        options.categories.empty()
            ? name_
            : options.categories[i % n_categories];
    in_order.emplace_back(
        static_cast<int64_t>(i), category,
        STObject(Geometry::MakePoint(c),
                 static_cast<Instant>(i) * options.time_step));
  }
  // ...then shuffled into an arrival order with bounded displacement: sort
  // by (event_time + jitter in [0, disorder]). Any event that arrives
  // before e has time <= e.time + disorder, so with a watermark bound
  // >= disorder no generated event is ever late.
  std::vector<std::pair<int64_t, size_t>> arrival;
  arrival.reserve(in_order.size());
  for (size_t i = 0; i < in_order.size(); ++i) {
    const int64_t jitter =
        options.disorder > 0 ? rng.UniformInt(0, options.disorder) : 0;
    arrival.emplace_back(in_order[i].event_time() + jitter, i);
  }
  std::sort(arrival.begin(), arrival.end());
  schedule_.reserve(in_order.size());
  for (const auto& [key, i] : arrival) {
    schedule_.push_back(std::move(in_order[i]));
    if (options.duplicate_probability > 0 &&
        rng.Bernoulli(options.duplicate_probability)) {
      schedule_.push_back(schedule_.back());  // at-least-once redelivery
    }
  }
}

std::vector<StreamEvent> GeneratorSource::Poll(size_t max_events) {
  std::vector<StreamEvent> batch;
  const size_t end = std::min(schedule_.size(), cursor_ + max_events);
  batch.reserve(end - cursor_);
  for (; cursor_ < end; ++cursor_) batch.push_back(schedule_[cursor_]);
  return batch;
}

CsvTailSource::CsvTailSource(std::string path, bool stop_at_eof)
    : name_("tail(" + path + ")"), path_(std::move(path)),
      stop_at_eof_(stop_at_eof) {}

void CsvTailSource::Reset() {
  offset_ = 0;
  pending_.clear();
  ready_.clear();
  ready_cursor_ = 0;
  exhausted_ = false;
  parse_errors_ = 0;
}

std::vector<StreamEvent> CsvTailSource::Poll(size_t max_events) {
  // Refill from the file when the parsed backlog is drained.
  if (ready_cursor_ >= ready_.size() && !exhausted_) {
    ready_.clear();
    ready_cursor_ = 0;
    std::string appended;
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    if (f != nullptr) {
      std::fseek(f, static_cast<long>(offset_), SEEK_SET);
      char buf[4096];
      size_t got;
      while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        appended.append(buf, got);
        offset_ += got;
      }
      std::fclose(f);
    }
    if (appended.empty()) {
      // Nothing new since the last poll. A replay run is complete; a live
      // tail keeps following the file.
      if (stop_at_eof_) exhausted_ = true;
    } else {
      pending_ += appended;
      // Only complete lines parse; a partial trailing line stays pending.
      const size_t last_newline = pending_.rfind('\n');
      if (last_newline != std::string::npos) {
        const std::string complete = pending_.substr(0, last_newline + 1);
        pending_.erase(0, last_newline + 1);
        Result<std::vector<EventRecord>> records = ParseEventsCsv(complete);
        if (!records.ok()) {
          // A malformed chunk is skipped wholesale rather than wedging the
          // tailer; per-row WKT errors are counted below.
          ++parse_errors_;
          ParseErrorCounter()->Increment();
        } else {
          for (const EventRecord& record : records.ValueOrDie()) {
            // Point-schema fast path: the dominant `POINT (x y)` rows skip
            // the generic WKT keyword dispatch; the scanner uses the same
            // number parsing, so the event is bit-identical to the one
            // EventFromRecord builds.
            double x = 0.0;
            double y = 0.0;
            if (ParsePointWkt(record.wkt, &x, &y)) {
              ready_.emplace_back(
                  record.id, record.category,
                  STObject(Geometry::MakePoint({x, y}), record.time));
              continue;
            }
            Result<StreamEvent> event = EventFromRecord(record);
            if (!event.ok()) {
              ++parse_errors_;
              ParseErrorCounter()->Increment();
              continue;
            }
            ready_.push_back(std::move(event).ValueOrDie());
          }
        }
      }
    }
  }
  std::vector<StreamEvent> batch;
  const size_t end = std::min(ready_.size(), ready_cursor_ + max_events);
  batch.reserve(end - ready_cursor_);
  for (; ready_cursor_ < end; ++ready_cursor_) {
    batch.push_back(std::move(ready_[ready_cursor_]));
  }
  return batch;
}

}  // namespace stream
}  // namespace stark
