#include "stream/stream_context.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "engine/rdd.h"
#include "obs/metrics.h"

namespace stark {
namespace stream {

namespace {

obs::Counter* IngestedCounter() {
  static obs::Counter* const c =
      obs::DefaultMetrics().GetCounter("stream.events.ingested");
  return c;
}
obs::Counter* LateCounter() {
  static obs::Counter* const c =
      obs::DefaultMetrics().GetCounter("stream.events.late");
  return c;
}
obs::Counter* DroppedCounter() {
  static obs::Counter* const c =
      obs::DefaultMetrics().GetCounter("stream.events.dropped");
  return c;
}
obs::Counter* DuplicateCounter() {
  static obs::Counter* const c =
      obs::DefaultMetrics().GetCounter("stream.events.duplicate");
  return c;
}
obs::Counter* WindowsFiredCounter() {
  static obs::Counter* const c =
      obs::DefaultMetrics().GetCounter("stream.windows.fired");
  return c;
}

}  // namespace

StreamContext::StreamContext(Context* ctx, Options options)
    : ctx_(ctx), options_(std::move(options)),
      manager_(options_.window, options_.late_policy) {}

size_t StreamContext::AddSource(std::unique_ptr<StreamSource> source,
                                int64_t watermark_bound) {
  sources_.push_back(std::move(source));
  trackers_.push_back(std::make_unique<WatermarkTracker>(watermark_bound));
  return trackers_.size() - 1;
}

size_t StreamContext::AddExternalSource(int64_t watermark_bound) {
  sources_.push_back(nullptr);
  trackers_.push_back(std::make_unique<WatermarkTracker>(watermark_bound));
  return trackers_.size() - 1;
}

void StreamContext::SetSink(std::function<void(const WindowResult&)> sink) {
  sink_ = std::move(sink);
}

Instant StreamContext::IngestWatermark() const {
  Instant combined = std::numeric_limits<Instant>::max();
  if (trackers_.empty()) return kMinWatermark;
  for (const auto& tracker : trackers_) {
    combined = std::min(combined, tracker->Current());
  }
  return combined;
}

Instant StreamContext::CombinedWatermark() const {
  Instant combined = std::numeric_limits<Instant>::max();
  bool any_live = false;
  for (size_t i = 0; i < trackers_.size(); ++i) {
    // An exhausted source emits nothing further: its disorder bound no
    // longer holds anything back, so it contributes +inf to the min.
    if (sources_[i] != nullptr && sources_[i]->Exhausted()) continue;
    any_live = true;
    combined = std::min(combined, trackers_[i]->Current());
  }
  if (!any_live) return std::numeric_limits<Instant>::max();
  return combined;
}

void StreamContext::Ingest(size_t source_idx, StreamEvent event) {
  // Late is judged against the watermark *before* this event advances it,
  // so an in-order event is never late against itself. A non-late event's
  // windows all end after this watermark, hence after every fired window:
  // accepted events are complete in all their windows, atomically.
  const Instant watermark = IngestWatermark();
  const Instant t = event.event_time();
  const WindowManager::IngestCounts counts =
      manager_.Ingest(std::move(event), watermark);
  trackers_[source_idx]->Observe(t);
  Record(counts);
}

void StreamContext::IngestBatch(size_t source_idx,
                                std::vector<StreamEvent> events) {
  // Each event is judged against the watermark it would meet if ingested
  // alone: the other trackers' minimum, and this source's tracker as if it
  // had observed the batch up to that event. The tracker itself advances
  // only once the batch is in the manager, as in Ingest(), so no caller
  // can meet a watermark past an event before the event has landed.
  Instant others = std::numeric_limits<Instant>::max();
  for (size_t i = 0; i < trackers_.size(); ++i) {
    if (i != source_idx) others = std::min(others, trackers_[i]->Current());
  }
  WatermarkTracker& tracker = *trackers_[source_idx];
  Instant max_seen = tracker.MaxSeen();
  batch_watermarks_.clear();
  for (const StreamEvent& event : events) {
    batch_watermarks_.push_back(
        std::min(others, tracker.WatermarkAt(max_seen)));
    max_seen = std::max(max_seen, event.event_time());
  }
  Record(manager_.IngestBatch(std::move(events), batch_watermarks_));
  tracker.Observe(max_seen);
}

void StreamContext::Record(const WindowManager::IngestCounts& counts) {
  const uint64_t ingested = counts.accepted + counts.late + counts.duplicates;
  const bool side = options_.late_policy == LatePolicy::kSideOutput;
  IngestedCounter()->Add(ingested);
  DuplicateCounter()->Add(counts.duplicates);
  LateCounter()->Add(counts.late);
  if (!side) DroppedCounter()->Add(counts.late);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.ingested += ingested;
  stats_.accepted += counts.accepted;
  stats_.late += counts.late;
  stats_.duplicates += counts.duplicates;
  (side ? stats_.side_output : stats_.dropped) += counts.late;
}

void StreamContext::UpdateWatermarkLag() {
  static obs::Gauge* const lag =
      obs::DefaultMetrics().GetGauge("stream.watermark_lag_ms");
  Instant max_seen = kMinWatermark;
  for (const auto& tracker : trackers_) {
    max_seen = std::max(max_seen, tracker->MaxSeen());
  }
  const Instant combined = CombinedWatermark();
  if (max_seen == kMinWatermark ||
      combined == std::numeric_limits<Instant>::max() ||
      combined == kMinWatermark) {
    lag->Set(0);
    return;
  }
  lag->Set(max_seen - combined);
}

Result<size_t> StreamContext::Step() {
  size_t polled = 0;
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i] == nullptr || sources_[i]->Exhausted()) continue;
    std::vector<StreamEvent> batch = sources_[i]->Poll(options_.poll_batch);
    polled += batch.size();
    IngestBatch(i, std::move(batch));
  }
  STARK_RETURN_NOT_OK(FireReady());
  return polled;
}

Status StreamContext::FireReady() {
  UpdateWatermarkLag();
  for (FiredWindow& window : manager_.CollectRipe(CombinedWatermark())) {
    STARK_RETURN_NOT_OK(ExecuteWindow(std::move(window)));
  }
  return Status::OK();
}

Status StreamContext::Flush() {
  for (FiredWindow& window : manager_.Flush()) {
    STARK_RETURN_NOT_OK(ExecuteWindow(std::move(window)));
  }
  UpdateWatermarkLag();
  return Status::OK();
}

Status StreamContext::RunToCompletion() {
  while (!AllExhausted()) {
    STARK_ASSIGN_OR_RETURN(const size_t polled, Step());
    (void)polled;
  }
  // All sources drained: the combined watermark is +inf, so FireReady
  // executes everything up to the last occupied window; Flush is the
  // belt-and-braces pass for managers fed purely via Ingest().
  STARK_RETURN_NOT_OK(FireReady());
  return Flush();
}

bool StreamContext::AllExhausted() const {
  for (const auto& source : sources_) {
    if (source != nullptr && !source->Exhausted()) return false;
  }
  return true;
}

StreamStats StreamContext::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::vector<StreamEvent> StreamContext::TakeSideOutput() {
  return manager_.TakeSideOutput();
}

Status StreamContext::ExecuteWindow(FiredWindow window) {
  // Exactly-once ledger: the window manager's frontier emits starts in
  // strictly increasing order, each once; a start at or below the last one
  // executed would be an engine-level replay bug and must not reach the
  // sink twice.
  if (last_executed_start_.has_value() &&
      window.start <= *last_executed_start_) {
    return Status::UnknownError("stream: window " +
                                std::to_string(window.start) +
                                " fired twice");
  }
  last_executed_start_ = window.start;
  WindowResult result;
  if (options_.pattern.has_value()) {
    STARK_ASSIGN_OR_RETURN(
        result.matches,
        EvaluatePattern(ctx_, *options_.pattern, window,
                        options_.tasks_per_window));
  } else {
    // No pattern: still materialize the window through a real engine job,
    // so deadline/retry/speculation coverage is identical either way.
    RDD<StreamEvent> rdd = MakeRDD(
        ctx_, window.events,
        WindowJobTasks(window.events.size(), options_.tasks_per_window,
                       ctx_->default_parallelism()));
    const Result<size_t> count = rdd.TryCount();
    if (!count.ok()) return count.status();
  }
  result.window = std::move(window);
  delivered_order_.push_back(result.window.start);
  WindowsFiredCounter()->Increment();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.windows_fired;
    stats_.matches += result.matches.size();
  }
  if (sink_) sink_(result);
  return Status::OK();
}

}  // namespace stream
}  // namespace stark
