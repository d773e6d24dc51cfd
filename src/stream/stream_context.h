/// \file stream_context.h
/// Driver of a continuous query: polls sources in micro-batches, advances
/// per-source watermarks, routes events into the window manager, and
/// executes every fired window as a *normal* Context job — so job
/// deadlines, task retries, speculation, profiling and the flight recorder
/// apply to streaming exactly as they do to batch (nothing in the engine
/// knows it is running under a stream).
#ifndef STARK_STREAM_STREAM_CONTEXT_H_
#define STARK_STREAM_STREAM_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/result.h"
#include "engine/context.h"
#include "stream/cep.h"
#include "stream/source.h"
#include "stream/watermark.h"
#include "stream/window.h"

namespace stark {
namespace stream {

/// Everything a fired window produced: its (complete, canonically ordered)
/// contents and the pattern matches over them.
struct WindowResult {
  FiredWindow window;
  std::vector<PatternMatch> matches;
};

/// Per-query counters, mirrored into the global metrics registry
/// (stream.events.*, stream.windows.fired) but kept locally so tests can
/// reconcile one query's books without inter-test metric bleed.
struct StreamStats {
  uint64_t ingested = 0;    // every delivery, duplicates included
  uint64_t accepted = 0;    // entered a window buffer
  uint64_t late = 0;        // behind the watermark at arrival
  uint64_t dropped = 0;     // late under LatePolicy::kDrop
  uint64_t side_output = 0; // late under LatePolicy::kSideOutput
  uint64_t duplicates = 0;  // id already delivered
  uint64_t windows_fired = 0;
  uint64_t matches = 0;
};

/// \brief One continuous query: sources -> watermarks -> windows -> CEP ->
/// sink.
///
/// Single-driver protocol: Step()/RunToCompletion() are called from one
/// thread. Ingest() itself is thread-safe so external source threads can
/// feed the query concurrently (the watermark fuzz suite races several);
/// under concurrent ingest the late/accepted split depends on interleaving,
/// but the invariants — watermark monotonicity, counter reconciliation,
/// exactly-once window delivery — hold regardless.
class StreamContext {
 public:
  struct Options {
    WindowSpec window;
    LatePolicy late_policy = LatePolicy::kDrop;
    /// Pattern evaluated over each fired window; without one, each window
    /// is still materialized through an engine job and delivered whole.
    std::optional<PatternSpec> pattern;
    /// Events pulled per source per Step().
    size_t poll_batch = 256;
    /// Partition-tasks per window job; 0 = sized to the window: one task
    /// per kEventsPerWindowTask events, clamped to [1, the context's
    /// parallelism] (see WindowJobTasks).
    size_t tasks_per_window = 0;
  };

  StreamContext(Context* ctx, Options options);

  /// Registers a source with its out-of-orderness bound; returns the source
  /// slot for Ingest(). All sources must be added before the first Step().
  size_t AddSource(std::unique_ptr<StreamSource> source,
                   int64_t watermark_bound);

  /// Registers a bare watermark tracker without a pollable source, for
  /// callers that push events via Ingest() themselves (test harnesses,
  /// external threads). Returns the source slot.
  size_t AddExternalSource(int64_t watermark_bound);

  /// Sink invoked exactly once per fired window, in window-start order.
  void SetSink(std::function<void(const WindowResult&)> sink);

  /// Routes one event attributed to source slot \p source_idx. Thread-safe.
  /// The event moves into the window buffers; pass a copy to keep one.
  void Ingest(size_t source_idx, StreamEvent event);

  /// Minimum watermark across sources. An exhausted source no longer holds
  /// the query back (it contributes +inf); before any source has observed
  /// an event the result is kMinWatermark and nothing fires.
  Instant CombinedWatermark() const;

  /// One micro-batch round: polls every live source once, ingests each
  /// polled batch under one window-manager lock, then fires and executes
  /// every ripe window. Returns the number of events polled (0 with
  /// AllExhausted() means the stream has drained).
  Result<size_t> Step();

  /// Executes all windows at or behind the current combined watermark.
  Status FireReady();

  /// End-of-stream: fires every remaining buffered window.
  Status Flush();

  /// Drains every source to exhaustion, then flushes. The whole replay of a
  /// bounded stream.
  Status RunToCompletion();

  bool AllExhausted() const;

  StreamStats stats() const;

  /// Late events captured under LatePolicy::kSideOutput (arrival order).
  std::vector<StreamEvent> TakeSideOutput();

  /// Starts of every window delivered to the sink, in delivery order; the
  /// exactly-once ledger the fault tests audit (no losses, no duplicates).
  const std::vector<int64_t>& delivered_window_starts() const {
    return delivered_order_;
  }

  Context* ctx() const { return ctx_; }
  const Options& options() const { return options_; }

 private:
  Status ExecuteWindow(FiredWindow window);
  void UpdateWatermarkLag();

  /// Routes one polled batch of source \p source_idx: the manager takes
  /// it under one lock, and the stats and counters are updated once.
  void IngestBatch(size_t source_idx, std::vector<StreamEvent> events);

  /// Adds one ingest call's tallies to the stats and stream.events.*.
  void Record(const WindowManager::IngestCounts& counts);

  /// Watermark for judging lateness: min over ALL trackers, exhausted or
  /// not. An exhausted source's final watermark is still the correct bound
  /// for its own last polled batch, which is ingested after Exhausted()
  /// already reads true — skipping it there (as CombinedWatermark does for
  /// firing) would judge that batch against +inf and drop it wholesale.
  Instant IngestWatermark() const;

  Context* ctx_;
  Options options_;
  WindowManager manager_;
  std::vector<std::unique_ptr<StreamSource>> sources_;
  std::vector<std::unique_ptr<WatermarkTracker>> trackers_;
  std::function<void(const WindowResult&)> sink_;

  mutable std::mutex stats_mu_;
  StreamStats stats_;

  /// Per-event watermarks of the batch being ingested (Step() thread only).
  std::vector<Instant> batch_watermarks_;

  /// Start of the last window handed to ExecuteWindow.
  std::optional<int64_t> last_executed_start_;
  std::vector<int64_t> delivered_order_;
};

}  // namespace stream
}  // namespace stark

#endif  // STARK_STREAM_STREAM_CONTEXT_H_
