/// \file job_control.h
/// Per-job control plane for the sparklet engine: deadlines, cooperative
/// cancellation, and speculative-execution bookkeeping.
///
/// Every Context::TryRunTasks call creates one JobControl shared by the
/// driver and all task copies of that job. Workers observe it through a
/// thread-local TaskContext handle (CurrentTaskContext), checking
/// StopRequested() between element batches; on deadline or cancel,
/// in-flight tasks stop at their next checkpoint, queued tasks are skipped,
/// and the job returns Status::DeadlineExceeded / Status::Cancelled.
///
/// Speculation follows Spark's model: once >= `quantile` of a job's tasks
/// have finished, tasks running longer than `multiplier x` the running
/// median duration are re-enqueued as speculative copies. Exactly-once
/// commit is enforced by an atomic per-task *claim* taken before any user
/// code runs — the claim winner executes the task body, the loser exits
/// cooperatively. (Task bodies side-effect into shared per-partition output
/// slots, so the claim doubles as the output committer: two copies of the
/// same partition never run user code concurrently.)
#ifndef STARK_ENGINE_JOB_CONTROL_H_
#define STARK_ENGINE_JOB_CONTROL_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "obs/flight_recorder.h"

namespace stark {

/// \brief Ctrl-C-style cancellation token shared between a driver-side
/// requester (signal handler, REPL, test) and running jobs. Sticky until
/// Reset(); safe to signal from a signal handler or any thread.
class CancelToken {
 public:
  void RequestCancel() { cancelled_.store(true, std::memory_order_seq_cst); }
  bool requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Reset() { cancelled_.store(false, std::memory_order_seq_cst); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// \brief Knobs for speculative re-execution of stragglers.
struct SpeculationPolicy {
  bool enabled = false;
  /// Fraction of a job's tasks that must have finished before any
  /// speculative copy launches (the running median needs a sample).
  double quantile = 0.75;
  /// A task is a straggler once it has run longer than
  /// multiplier x median(completed task durations).
  double multiplier = 1.5;
  /// Never speculate tasks below this runtime: duplicating sub-millisecond
  /// tasks only adds scheduling noise.
  uint64_t min_task_ms = 5;

  /// Reads STARK_SPECULATION, STARK_SPECULATION_QUANTILE,
  /// STARK_SPECULATION_MULTIPLIER, STARK_SPECULATION_MIN_TASK_MS.
  static SpeculationPolicy FromEnv();
};

/// \brief Shared state of one running job: cancel flag + reason, deadline,
/// per-task claim/completion slots, and completion accounting the driver
/// waits on. Heap-allocated (shared_ptr) so a late-waking task copy that
/// lost its claim can still run its epilogue after the driver has returned.
class JobControl {
 public:
  /// \p deadline_ms of 0 means no deadline. \p token may be null.
  /// \p priority is the scheduling class of the submitting session (0 =
  /// most important); the serving layer's admission hooks and degradation
  /// ladder read it, the engine itself only carries it.
  JobControl(size_t num_tasks, uint64_t deadline_ms,
             std::shared_ptr<CancelToken> token, uint64_t generation,
             int priority = 0);

  STARK_DISALLOW_COPY_AND_ASSIGN(JobControl);

  /// Monotonically increasing job id; lets logs and spans distinguish
  /// copies of different job generations.
  uint64_t generation() const { return generation_; }
  size_t num_tasks() const { return num_tasks_; }

  /// Scheduling class of the job (lower = more important; see
  /// serve::QueryClass). Purely informational at the engine layer.
  int priority() const { return priority_; }

  // --- Cancellation -------------------------------------------------------

  /// Cheap check of the already-latched cancel flag (no clock read).
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Full stop check: latched flag, external token, and deadline. Latches
  /// the cancel reason on first detection. This is what task checkpoints
  /// call between element batches.
  bool ShouldStop();

  /// Requests cancellation with \p reason; the first reason wins.
  void Cancel(Status reason);

  /// The latched cancel reason (OK if not cancelled).
  Status cancel_status() const;

  /// First permanent task failure, if any (OK otherwise).
  Status first_failure() const;

  /// Records a permanent task failure and cancels the rest of the job so
  /// queued tasks are skipped (the fail-fast path when retries are
  /// exhausted or disabled).
  void FailJob(Status failure);

  // --- Per-task lifecycle (called by task copies) -------------------------

  /// Claims task \p p for copy \p copy (1 = original, 2 = speculative).
  /// First CAS wins; re-claiming by the same copy (across retry attempts)
  /// succeeds. Returns false when another copy owns the task: the caller
  /// must exit without running user code.
  bool ClaimTask(size_t p, uint32_t copy);

  /// Records the dispatch time of task \p p (first copy wins) so the
  /// driver's speculation scan can see how long it has been running.
  void RecordTaskStart(size_t p);

  /// True once the logical task \p p has completed (or been skipped).
  bool TaskDone(size_t p) const;

  /// Marks logical task \p p complete: the commit point, called exactly
  /// once per task by the claim holder (a task copy, or the driver for the
  /// tasks it claimed at settlement) after the task's outcome is reported.
  /// \p duration_ns feeds the speculation median when \p record_duration
  /// is set (successful runs only).
  void CompleteTask(size_t p, uint64_t duration_ns, bool record_duration);

  /// Closes the claim bracket opened by a winning ClaimTask: the owning
  /// copy calls this exactly once when it leaves the task wrapper, so the
  /// driver can tell "user code may be on some worker's stack" apart from
  /// "only heap state is referenced".
  void EndClaimedRun();

  // --- Driver side --------------------------------------------------------

  /// Waits up to \p d for the job to become *settled*: either all tasks
  /// done, or cancelled with no claimed copy still inside user code.
  /// Returns true when settled. After a cancelled job settles, unclaimed
  /// queued/sleeping copies may still exist, but they can only touch this
  /// JobControl (heap, shared ownership) — never the driver's stack.
  bool WaitSettledFor(std::chrono::nanoseconds d);

  /// Once a cancelled job has settled: claims every task no copy claimed
  /// (a late copy then loses the claim and reports nothing), waits out the
  /// copies that claimed meanwhile, and returns the tasks claimed here for
  /// the driver to report and complete. Empty when every task completed.
  std::vector<size_t> ClaimUnclaimedTasks();

  /// Scans for stragglers eligible for a speculative copy: started, not
  /// done, not yet speculated, running longer than
  /// max(multiplier x median completed duration, min_task_ms). Marks the
  /// returned tasks as speculated so each gets at most one copy. Empty
  /// until >= quantile of tasks completed, or after cancellation.
  std::vector<size_t> SpeculationCandidates(const SpeculationPolicy& policy);

  // --- Profile accounting -------------------------------------------------

  /// Relaxed per-job totals accumulated by the engine's task-outcome site
  /// when a ProfileCollector is installed and read once by the driver
  /// epilogue. Kept here (not in the collector) because tasks outlive
  /// neither the job nor this struct, and the driver-side collector is
  /// single-threaded. The first five fold successful attempts' spans.
  struct Accounting {
    std::atomic<uint64_t> rows_in{0};
    std::atomic<uint64_t> rows_out{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> candidates{0};
    std::atomic<uint64_t> refined{0};
    /// Task events of the job, indexed by obs::FlightEventKind.
    std::array<std::atomic<uint64_t>, obs::kNumFlightEventKinds> outcomes{};

    uint64_t count(obs::FlightEventKind kind) const {
      return outcomes[static_cast<size_t>(kind)].load(
          std::memory_order_relaxed);
    }
  };
  Accounting& accounting() { return accounting_; }

  /// Copy of the successful-run durations recorded so far (the same
  /// samples the speculation median uses); feeds the profile's per-task
  /// histogram.
  std::vector<uint64_t> CompletedDurations() const;

 private:
  friend class TaskContext;

  bool DeadlinePassed() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  struct TaskState {
    std::atomic<uint32_t> owner{0};
    std::atomic<bool> done{false};
    std::atomic<bool> speculated{false};
    std::atomic<uint64_t> start_ns{0};  // steady-clock; 0 = not dispatched
  };

  const size_t num_tasks_;
  const uint64_t generation_;
  const int priority_;
  const uint64_t deadline_ms_;
  const bool has_deadline_;
  const std::chrono::steady_clock::time_point deadline_;
  const std::shared_ptr<CancelToken> token_;

  std::vector<TaskState> tasks_;

  Accounting accounting_;

  std::atomic<bool> cancelled_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Status cancel_status_;           // guarded by mu_
  Status first_failure_;           // guarded by mu_
  size_t remaining_;               // guarded by mu_
  size_t claimed_open_ = 0;        // copies inside user code; guarded by mu_
  std::vector<uint64_t> completed_ns_;  // durations; guarded by mu_
};

/// \brief The handle task code sees: identifies the task copy and exposes
/// the cooperative stop checks. Installed in TLS for the duration of the
/// task body so deep operator loops (join probes, scans) can poll without
/// plumbing a parameter through every layer.
class TaskContext {
 public:
  TaskContext(JobControl* control, size_t partition, bool speculative)
      : control_(control), partition_(partition), speculative_(speculative) {}

  size_t partition() const { return partition_; }
  bool speculative() const { return speculative_; }

  /// True when this task should stop at its next checkpoint (job
  /// cancelled, deadline passed, or this copy lost its claim).
  bool StopRequested() const { return control_->ShouldStop(); }

  /// OK, or the job's cancel reason when the task should stop.
  Status CheckCancelled() const;

  /// Throws StatusError(cancel reason) when the task should stop — the
  /// standard checkpoint for operator inner loops.
  void ThrowIfCancelled() const;

 private:
  JobControl* control_;
  size_t partition_;
  bool speculative_;
};

/// Current task's context, or nullptr outside a task body.
TaskContext* CurrentTaskContext();

/// RAII installer for the thread-local TaskContext (mirrors
/// obs::CurrentTaskSpanScope).
class CurrentTaskContextScope {
 public:
  explicit CurrentTaskContextScope(TaskContext* ctx);
  ~CurrentTaskContextScope();

  STARK_DISALLOW_COPY_AND_ASSIGN(CurrentTaskContextScope);

 private:
  TaskContext* previous_;
};

/// Checkpoint helper for operator loops: true when the calling thread runs
/// inside a task whose job wants it to stop. No-op (false) off-task.
inline bool TaskStopRequested() {
  TaskContext* tc = CurrentTaskContext();
  return tc != nullptr && tc->StopRequested();
}

/// Checkpoint helper: throws StatusError with the job's cancel reason when
/// the current task should stop. The task boundary converts it back into
/// the job's Status. No-op off-task.
inline void ThrowIfTaskCancelled() {
  TaskContext* tc = CurrentTaskContext();
  if (tc != nullptr) tc->ThrowIfCancelled();
}

}  // namespace stark

#endif  // STARK_ENGINE_JOB_CONTROL_H_
