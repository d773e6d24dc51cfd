#include "engine/job_control.h"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace stark {

namespace {

thread_local TaskContext* current_task_context = nullptr;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw) return fallback;
  return static_cast<uint64_t>(v);
}

double EnvDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  if (end == raw) return fallback;
  return v;
}

}  // namespace

SpeculationPolicy SpeculationPolicy::FromEnv() {
  SpeculationPolicy policy;
  policy.enabled = EnvU64("STARK_SPECULATION", 0) != 0;
  policy.quantile = EnvDouble("STARK_SPECULATION_QUANTILE", policy.quantile);
  policy.multiplier =
      EnvDouble("STARK_SPECULATION_MULTIPLIER", policy.multiplier);
  policy.min_task_ms =
      EnvU64("STARK_SPECULATION_MIN_TASK_MS", policy.min_task_ms);
  policy.quantile = std::min(1.0, std::max(0.0, policy.quantile));
  policy.multiplier = std::max(1.0, policy.multiplier);
  return policy;
}

JobControl::JobControl(size_t num_tasks, uint64_t deadline_ms,
                       std::shared_ptr<CancelToken> token, uint64_t generation,
                       int priority)
    : num_tasks_(num_tasks),
      generation_(generation),
      priority_(priority),
      deadline_ms_(deadline_ms),
      has_deadline_(deadline_ms > 0),
      deadline_(std::chrono::steady_clock::now() +
                std::chrono::milliseconds(deadline_ms)),
      token_(std::move(token)),
      tasks_(num_tasks),
      remaining_(num_tasks) {}

bool JobControl::ShouldStop() {
  if (cancelled_.load(std::memory_order_seq_cst)) return true;
  if (token_ != nullptr && token_->requested()) {
    Cancel(Status::Cancelled("job cancelled by caller"));
    return true;
  }
  if (DeadlinePassed()) {
    Cancel(Status::DeadlineExceeded("job deadline of " +
                                    std::to_string(deadline_ms_) +
                                    "ms exceeded"));
    return true;
  }
  return false;
}

void JobControl::Cancel(Status reason) {
  STARK_CHECK(!reason.ok());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!cancelled_.load(std::memory_order_relaxed)) {
      cancel_status_ = std::move(reason);
    }
    // seq_cst store orders the cancel flag against task-copy claim CASes:
    // either the driver's settle-wait sees the claim, or the copy's
    // post-claim stop check sees the cancel — never neither.
    cancelled_.store(true, std::memory_order_seq_cst);
  }
  cv_.notify_all();
}

Status JobControl::cancel_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancel_status_;
}

Status JobControl::first_failure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_failure_;
}

void JobControl::FailJob(Status failure) {
  STARK_CHECK(!failure.ok());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_failure_.ok()) first_failure_ = failure;
  }
  // Cancel the remainder of the job with the failure as the reason: queued
  // tasks skip instead of running work whose job already failed.
  Cancel(std::move(failure));
}

bool JobControl::ClaimTask(size_t p, uint32_t copy) {
  STARK_CHECK(p < num_tasks_ && copy != 0);
  // Under mu_, so a claim and its open bracket appear together to the
  // driver's settle checks.
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t expected = 0;
  if (tasks_[p].owner.compare_exchange_strong(expected, copy,
                                              std::memory_order_seq_cst)) {
    ++claimed_open_;
    return true;
  }
  return expected == copy;  // re-claim across retry attempts
}

void JobControl::EndClaimedRun() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    STARK_CHECK(claimed_open_ > 0);
    --claimed_open_;
  }
  cv_.notify_all();
}

void JobControl::RecordTaskStart(size_t p) {
  STARK_CHECK(p < num_tasks_);
  uint64_t expected = 0;
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  tasks_[p].start_ns.compare_exchange_strong(expected, now,
                                             std::memory_order_relaxed);
}

bool JobControl::TaskDone(size_t p) const {
  STARK_CHECK(p < num_tasks_);
  return tasks_[p].done.load(std::memory_order_acquire);
}

void JobControl::CompleteTask(size_t p, uint64_t duration_ns,
                              bool record_duration) {
  STARK_CHECK(p < num_tasks_);
  STARK_CHECK(!tasks_[p].done.exchange(true, std::memory_order_acq_rel));
  {
    std::lock_guard<std::mutex> lock(mu_);
    STARK_CHECK(remaining_ > 0);
    --remaining_;
    if (record_duration) completed_ns_.push_back(duration_ns);
  }
  cv_.notify_all();
}

std::vector<uint64_t> JobControl::CompletedDurations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_ns_;
}

bool JobControl::WaitSettledFor(std::chrono::nanoseconds d) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, d, [this] {
    if (remaining_ == 0) return true;
    return cancelled_.load(std::memory_order_seq_cst) && claimed_open_ == 0;
  });
}

std::vector<size_t> JobControl::ClaimUnclaimedTasks() {
  constexpr uint32_t kDriver = ~uint32_t{0};  // no task copy's id
  std::vector<size_t> claimed;
  std::unique_lock<std::mutex> lock(mu_);
  if (remaining_ == 0) return claimed;
  for (size_t p = 0; p < num_tasks_; ++p) {
    uint32_t expected = 0;
    if (tasks_[p].owner.compare_exchange_strong(expected, kDriver,
                                                std::memory_order_seq_cst)) {
      claimed.push_back(p);
    }
  }
  cv_.wait(lock, [this] { return claimed_open_ == 0; });
  return claimed;
}

std::vector<size_t> JobControl::SpeculationCandidates(
    const SpeculationPolicy& policy) {
  std::vector<size_t> candidates;
  if (!policy.enabled || num_tasks_ < 2) return candidates;
  if (cancelled_.load(std::memory_order_relaxed)) return candidates;

  uint64_t median_ns = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t completed = num_tasks_ - remaining_;
    const size_t needed = std::max<size_t>(
        1, static_cast<size_t>(policy.quantile *
                               static_cast<double>(num_tasks_)));
    if (completed < needed || completed_ns_.empty()) return candidates;
    std::vector<uint64_t> durations = completed_ns_;
    const size_t mid = durations.size() / 2;
    std::nth_element(durations.begin(), durations.begin() + mid,
                     durations.end());
    median_ns = durations[mid];
  }

  const uint64_t threshold_ns = std::max(
      static_cast<uint64_t>(policy.multiplier *
                            static_cast<double>(median_ns)),
      static_cast<uint64_t>(policy.min_task_ms) * 1'000'000u);
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  for (size_t p = 0; p < num_tasks_; ++p) {
    TaskState& t = tasks_[p];
    if (t.done.load(std::memory_order_acquire)) continue;
    if (t.speculated.load(std::memory_order_relaxed)) continue;
    const uint64_t started = t.start_ns.load(std::memory_order_relaxed);
    if (started == 0 || now <= started || now - started <= threshold_ns) {
      continue;
    }
    if (t.speculated.exchange(true, std::memory_order_relaxed)) continue;
    candidates.push_back(p);
  }
  return candidates;
}

Status TaskContext::CheckCancelled() const {
  if (!control_->ShouldStop()) return Status::OK();
  Status reason = control_->cancel_status();
  if (reason.ok()) reason = Status::Cancelled("job cancelled");
  return reason;
}

void TaskContext::ThrowIfCancelled() const {
  Status status = CheckCancelled();
  if (!status.ok()) throw StatusError(std::move(status));
}

TaskContext* CurrentTaskContext() { return current_task_context; }

CurrentTaskContextScope::CurrentTaskContextScope(TaskContext* ctx)
    : previous_(current_task_context) {
  current_task_context = ctx;
}

CurrentTaskContextScope::~CurrentTaskContextScope() {
  current_task_context = previous_;
}

}  // namespace stark
