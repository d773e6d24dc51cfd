#include "serve/scheduler.h"

#include <algorithm>
#include <utility>

namespace stark {
namespace serve {
namespace {

// Stride-scheduling scale: per-dequeue pass increment is kStrideScale /
// weight, so a weight-8 class advances 8x slower than a weight-1 class and
// wins proportionally more dequeues.
constexpr uint64_t kStrideScale = 1 << 20;

constexpr uint64_t kMinRetryMs = 1;
constexpr uint64_t kMaxRetryMs = 30'000;
// Retry-After fallback before any completion has been observed.
constexpr uint64_t kDefaultServiceNs = 20'000'000;  // 20ms

size_t DeriveClassLimit(size_t configured, size_t global, QueryClass cls) {
  if (configured != 0) return configured;
  switch (cls) {
    case QueryClass::kInteractive:
      return global;
    case QueryClass::kBatch:
      return std::max<size_t>(1, global / 2);
    case QueryClass::kBestEffort:
      return std::max<size_t>(1, global / 4);
  }
  return global;
}

}  // namespace

const char* QueryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kInteractive: return "interactive";
    case QueryClass::kBatch: return "batch";
    case QueryClass::kBestEffort: return "besteffort";
  }
  return "unknown";
}

AdmissionQueue::AdmissionQueue(const SchedulerOptions& options)
    : options_(options),
      admitted_(obs::DefaultMetrics().GetCounter("serve.queries.admitted")),
      shed_(obs::DefaultMetrics().GetCounter("serve.queries.shed")),
      depth_gauge_(obs::DefaultMetrics().GetGauge("serve.queue.depth")),
      level_gauge_(obs::DefaultMetrics().GetGauge("serve.degradation.level")) {
  for (size_t c = 0; c < kNumQueryClasses; ++c) {
    class_limits_[c] = DeriveClassLimit(options_.class_queue_limit[c],
                                        options_.queue_limit,
                                        static_cast<QueryClass>(c));
    shed_by_class_[c] = obs::DefaultMetrics().GetCounter(
        std::string("serve.queries.shed.") +
        QueryClassName(static_cast<QueryClass>(c)));
  }
}

Status AdmissionQueue::Offer(Ticket ticket, uint64_t* retry_after_ms) {
  const size_t c = static_cast<size_t>(ticket.cls);
  const uint64_t retry = RetryAfterMsHint();
  if (retry_after_ms != nullptr) *retry_after_ms = retry;
  const std::string hint = " retry_after_ms=" + std::to_string(retry);

  const char* reason = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t depth = TotalDepthLocked();
    if (intake_closed_ || closed_) {
      reason = "server draining";
    } else if (depth >= options_.queue_limit) {
      reason = "admission queue full";
    } else if (queues_[c].size() >= class_limits_[c]) {
      reason = "class queue full";
    } else if (LevelForDepth(depth) >= DegradationLevel::kShedBestEffort &&
               ticket.cls == QueryClass::kBestEffort) {
      reason = "best-effort class shed under overload";
    } else {
      // Stride join rule: a class that was idle re-enters at the scheduler's
      // current virtual time instead of keeping its stale (low) pass —
      // otherwise a burst after idleness would win a long run of
      // consecutive dequeues and invert the priorities.
      if (queues_[c].empty()) {
        passes_[c] = std::max(passes_[c], global_pass_);
      }
      queues_[c].push_back(std::move(ticket));
      const size_t new_depth = depth + 1;
      depth_gauge_->Set(static_cast<int64_t>(new_depth));
      level_gauge_->Set(static_cast<int>(LevelForDepth(new_depth)));
    }
  }
  if (reason == nullptr) {
    admitted_->Increment();
    cv_.notify_one();
    return Status::OK();
  }
  shed_->Increment();
  shed_by_class_[c]->Increment();
  return Status::ResourceExhausted(
      std::string("serve: ") + reason + " (class=" + QueryClassName(ticket.cls) +
      ")" + hint);
}

bool AdmissionQueue::Take(Ticket* out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return closed_ || TotalDepthLocked() > 0; });
  if (TotalDepthLocked() == 0) return false;  // closed_ and drained

  // Pick the non-empty class with the smallest pass; charge it its stride.
  size_t best = kNumQueryClasses;
  for (size_t c = 0; c < kNumQueryClasses; ++c) {
    if (queues_[c].empty()) continue;
    if (best == kNumQueryClasses || passes_[c] < passes_[best]) best = c;
  }
  *out = std::move(queues_[best].front());
  queues_[best].pop_front();
  // The dequeued class held the minimum pass, which is the scheduler's
  // virtual time — classes joining an empty queue start from here.
  global_pass_ = passes_[best];
  passes_[best] += kStrideScale / std::max<uint32_t>(1, options_.weights[best]);
  // When every queue empties, reset so a burst after full idleness starts
  // from a level field.
  const size_t depth = TotalDepthLocked();
  if (depth == 0) {
    passes_ = {0, 0, 0};
    global_pass_ = 0;
  }
  depth_gauge_->Set(static_cast<int64_t>(depth));
  level_gauge_->Set(static_cast<int>(LevelForDepth(depth)));
  return true;
}

void AdmissionQueue::CloseIntake() {
  std::lock_guard<std::mutex> lock(mu_);
  intake_closed_ = true;
}

void AdmissionQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    intake_closed_ = true;
    closed_ = true;
  }
  cv_.notify_all();
}

void AdmissionQueue::OnCompleted(uint64_t exec_ns) {
  // Racy EMA update is fine: this feeds a backoff hint, not an invariant.
  const uint64_t prev = ema_exec_ns_.load(std::memory_order_relaxed);
  const uint64_t next = prev == 0 ? exec_ns : (prev * 7 + exec_ns) / 8;
  ema_exec_ns_.store(next, std::memory_order_relaxed);
}

size_t AdmissionQueue::Depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TotalDepthLocked();
}

DegradationLevel AdmissionQueue::Level() const {
  std::lock_guard<std::mutex> lock(mu_);
  return LevelForDepth(TotalDepthLocked());
}

uint64_t AdmissionQueue::RetryAfterMsHint() const {
  uint64_t service_ns = ema_exec_ns_.load(std::memory_order_relaxed);
  if (service_ns == 0) service_ns = kDefaultServiceNs;
  const size_t workers = std::max<size_t>(1, options_.workers);
  const uint64_t depth = static_cast<uint64_t>(Depth());
  const uint64_t wait_ns = (depth / workers + 1) * service_ns;
  return std::clamp<uint64_t>(wait_ns / 1'000'000, kMinRetryMs, kMaxRetryMs);
}

size_t AdmissionQueue::TotalDepthLocked() const {
  size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

DegradationLevel AdmissionQueue::LevelForDepth(size_t depth) const {
  const double occ = static_cast<double>(depth) /
                     static_cast<double>(std::max<size_t>(1, options_.queue_limit));
  if (occ >= options_.degrade_shed_best_effort) {
    return DegradationLevel::kShedBestEffort;
  }
  if (occ >= options_.degrade_shed_overhead) {
    return DegradationLevel::kShedOverhead;
  }
  if (occ >= options_.degrade_no_speculation) {
    return DegradationLevel::kNoSpeculation;
  }
  return DegradationLevel::kNormal;
}

}  // namespace serve
}  // namespace stark
