/// \file scheduler.h
/// Admission control and weighted fair scheduling for the serving layer.
///
/// Queries enter a bounded multi-class queue. Admission is all-or-nothing
/// at the front door: a query that does not fit (global bound, per-class
/// bound, or its class is being shed under overload) is rejected
/// immediately with Status::ResourceExhausted and a Retry-After hint —
/// the queue never grows without bound and a rejected client learns to back
/// off instead of timing out deep in the stack.
///
/// Dispatch uses stride scheduling across the classes: each class has a
/// weight, each dequeue charges the class `kStrideScale / weight`, and the
/// non-empty class with the smallest accumulated pass runs next. A heavy
/// batch class can saturate every executor slot only until an interactive
/// query arrives; it then jumps ahead at the next free slot, which is what
/// bounds the interactive p99 under mixed load.
#ifndef STARK_SERVE_SCHEDULER_H_
#define STARK_SERVE_SCHEDULER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace stark {
namespace serve {

/// Scheduling class of a query. Lower value = more important. Maps onto
/// Context::job_priority for the engine jobs a query launches.
enum class QueryClass : int {
  kInteractive = 0,  ///< point lookups, small filters — latency-sensitive
  kBatch = 1,        ///< heavy joins, aggregations — throughput work
  kBestEffort = 2,   ///< shed first under overload
};
inline constexpr size_t kNumQueryClasses = 3;
const char* QueryClassName(QueryClass cls);

/// Degradation ladder positions (serve.degradation.level gauge). Each level
/// includes everything above it. Derived from queue occupancy.
enum class DegradationLevel : int {
  kNormal = 0,
  kNoSpeculation = 1,   ///< speculative task copies off for served queries
  kShedOverhead = 2,    ///< per-query profiling/slow-log off, output capped
  kShedBestEffort = 3,  ///< best-effort class rejected at admission
};

struct SchedulerOptions {
  /// Executor slots the scheduler feeds (used for the Retry-After model).
  size_t workers = 4;
  /// Global queue bound; the hard limit behind every admission decision.
  size_t queue_limit = 64;
  /// Per-class bounds; 0 = derive (interactive: global, batch: 1/2,
  /// best-effort: 1/4) so background work cannot consume the whole queue.
  std::array<size_t, kNumQueryClasses> class_queue_limit = {0, 0, 0};
  /// Stride-scheduling weights (higher = more slots under contention).
  std::array<uint32_t, kNumQueryClasses> weights = {8, 2, 1};
  /// Queue-occupancy thresholds of the degradation ladder.
  double degrade_no_speculation = 0.50;
  double degrade_shed_overhead = 0.75;
  double degrade_shed_best_effort = 0.90;
};

/// One admitted unit of work, opaque to the scheduler.
struct Ticket {
  uint64_t id = 0;
  QueryClass cls = QueryClass::kInteractive;
  uint64_t enqueue_ns = 0;
  std::function<void()> run;
};

/// \brief The bounded multi-class admission queue (see file comment).
/// Thread-safe; producers Offer, executor threads Take in a loop.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const SchedulerOptions& options);
  STARK_DISALLOW_COPY_AND_ASSIGN(AdmissionQueue);

  /// Admits \p ticket or rejects it with Status::ResourceExhausted whose
  /// message carries a `retry_after_ms=<n>` hint (also returned through
  /// \p retry_after_ms when non-null). Rejection reasons: intake closed
  /// (draining), global bound, class bound, or class shed under overload.
  Status Offer(Ticket ticket, uint64_t* retry_after_ms = nullptr);

  /// Blocks for the next ticket by stride order. Returns false when the
  /// queue is closed and empty — the executor's exit signal.
  bool Take(Ticket* out);

  /// Stops admission (Offer rejects with "draining") but keeps Take
  /// serving what is already queued.
  void CloseIntake();

  /// Closes the queue entirely: Take drains what is left, then returns
  /// false. Implies CloseIntake.
  void Close();

  /// Completion feedback for the Retry-After model: exponential moving
  /// average of per-query service time.
  void OnCompleted(uint64_t exec_ns);

  size_t Depth() const;

  /// Current rung of the degradation ladder, from instantaneous occupancy.
  DegradationLevel Level() const;

  /// The backoff hint attached to rejections: roughly (depth / workers) x
  /// mean service time, clamped to [1ms, 30s].
  uint64_t RetryAfterMsHint() const;

 private:
  size_t TotalDepthLocked() const;
  DegradationLevel LevelForDepth(size_t depth) const;

  const SchedulerOptions options_;
  std::array<size_t, kNumQueryClasses> class_limits_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::array<std::deque<Ticket>, kNumQueryClasses> queues_;
  std::array<uint64_t, kNumQueryClasses> passes_ = {0, 0, 0};
  /// Scheduler virtual time: pass of the most recently dequeued class.
  /// A class enqueueing into an empty queue joins at this pass (stride
  /// join rule), so idle classes cannot bank a stale low pass and later
  /// burst ahead of higher-priority work.
  uint64_t global_pass_ = 0;
  bool intake_closed_ = false;
  bool closed_ = false;

  std::atomic<uint64_t> ema_exec_ns_{0};

  obs::Counter* const admitted_;
  obs::Counter* const shed_;
  std::array<obs::Counter*, kNumQueryClasses> shed_by_class_;
  obs::Gauge* const depth_gauge_;
  obs::Gauge* const level_gauge_;
};

}  // namespace serve
}  // namespace stark

#endif  // STARK_SERVE_SCHEDULER_H_
