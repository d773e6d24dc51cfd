/// \file context.h
/// Execution context of the sparklet engine — the stand-in for a
/// SparkContext. Worker threads play the role of cluster executors: every
/// partition of an RDD is computed as one task on the pool (see DESIGN.md
/// for why this substitution preserves the paper's behaviour).
#ifndef STARK_ENGINE_CONTEXT_H_
#define STARK_ENGINE_CONTEXT_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/job_control.h"
#include "fault/failpoint.h"
#include "fault/retry.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace stark {

/// \brief Owns the worker pool, the default parallelism and the task retry
/// policy of a program.
///
/// Also the engine's resilience and observability seam: every action
/// dispatches its partition tasks through RunTasks()/TryRunTasks(), which
/// (1) re-runs a failed task against its lineage according to the
/// RetryPolicy — RDDImpl::Compute is a pure function of the lineage graph,
/// so re-invoking the task body *is* Spark's recompute-from-lineage
/// recovery; (2) converts anything a task throws into a Status at the task
/// boundary, so worker exceptions never unwind through the thread pool;
/// (3) records one TaskSpan per *attempt* while tracing is enabled (plain
/// dispatch plus one relaxed atomic load otherwise); (4) hosts the
/// `engine.task.run` and `engine.worker.die` fault-injection sites (see
/// docs/FAULT_INJECTION.md); and (5) runs each job under a JobControl —
/// deadline + cooperative cancellation + speculative re-execution of
/// stragglers (see job_control.h).
class Context {
 public:
  /// \p parallelism 0 means "number of hardware threads". \p tracer null
  /// means the process-wide obs::DefaultTracer(). The retry policy is
  /// initialized from the environment (STARK_TASK_RETRIES etc.; defaults:
  /// 3 attempts, no backoff), as are the default job deadline
  /// (STARK_JOB_DEADLINE_MS; 0 = none) and the speculation policy
  /// (STARK_SPECULATION etc.; off by default).
  explicit Context(size_t parallelism = 0, obs::TaskTracer* tracer = nullptr)
      : parallelism_(parallelism != 0 ? parallelism
                                      : DefaultHardwareParallelism()),
        pool_(std::make_shared<ThreadPool>(parallelism_)),
        tracer_(tracer != nullptr ? tracer : &obs::DefaultTracer()),
        retry_policy_(fault::RetryPolicy::FromEnv()),
        job_deadline_ms_(DefaultJobDeadlineMs()),
        speculation_policy_(SpeculationPolicy::FromEnv()) {}

  /// Shares an existing worker pool instead of owning one — the serving
  /// layer gives every client session its own Context (so SET job.* and
  /// cancellation stay session-scoped) while all sessions execute on the
  /// server's single executor pool.
  explicit Context(std::shared_ptr<ThreadPool> pool,
                   obs::TaskTracer* tracer = nullptr)
      : parallelism_(pool->num_threads()),
        pool_(std::move(pool)),
        tracer_(tracer != nullptr ? tracer : &obs::DefaultTracer()),
        retry_policy_(fault::RetryPolicy::FromEnv()),
        job_deadline_ms_(DefaultJobDeadlineMs()),
        speculation_policy_(SpeculationPolicy::FromEnv()) {}

  STARK_DISALLOW_COPY_AND_ASSIGN(Context);

  ThreadPool& pool() { return *pool_; }

  /// The pool handle, for sharing with sibling Contexts (see the
  /// pool-sharing constructor above).
  const std::shared_ptr<ThreadPool>& shared_pool() const { return pool_; }

  obs::TaskTracer& tracer() const { return *tracer_; }

  /// Default number of partitions for new RDDs, like Spark's
  /// `spark.default.parallelism`.
  size_t default_parallelism() const { return parallelism_; }

  const fault::RetryPolicy& retry_policy() const { return retry_policy_; }
  void set_retry_policy(const fault::RetryPolicy& policy) {
    retry_policy_ = policy;
  }

  /// Deadline applied to every job launched by this context, in
  /// milliseconds; 0 disables. A job past its deadline cancels
  /// cooperatively and returns Status::DeadlineExceeded.
  uint64_t job_deadline_ms() const { return job_deadline_ms_; }
  void set_job_deadline_ms(uint64_t ms) { job_deadline_ms_ = ms; }

  const SpeculationPolicy& speculation_policy() const {
    return speculation_policy_;
  }
  void set_speculation_policy(const SpeculationPolicy& policy) {
    speculation_policy_ = policy;
  }

  /// Ctrl-C-style cancellation: jobs poll the token at task checkpoints
  /// and return Status::Cancelled once it is signalled. May be null.
  const std::shared_ptr<CancelToken>& cancel_token() const {
    return cancel_token_;
  }
  void set_cancel_token(std::shared_ptr<CancelToken> token) {
    cancel_token_ = std::move(token);
  }

  /// \brief What an admission hook learns about a job before it launches.
  struct JobAdmission {
    const char* stage = "";
    size_t num_tasks = 0;
    /// The context's job priority (lower = more important); the serving
    /// layer maps its query classes onto this.
    int priority = 0;
  };

  /// A non-OK return vetoes the job before any task is enqueued: TryRunTasks
  /// returns that status (typically Status::ResourceExhausted under
  /// overload, or Cancelled while a server drains) and increments
  /// `engine.jobs.rejected`. The hook runs on the driver thread of every
  /// job; keep it cheap and thread-safe when sessions share a hook.
  using AdmissionHook = std::function<Status(const JobAdmission&)>;
  void set_admission_hook(AdmissionHook hook) {
    admission_hook_ = std::move(hook);
  }

  /// Scheduling class recorded into every JobControl this context launches
  /// (0 = most important). The engine only carries it; admission hooks and
  /// the serving layer's degradation ladder act on it.
  int job_priority() const { return job_priority_; }
  void set_job_priority(int priority) { job_priority_ = priority; }

  /// Runs \p fn(p) for p in [0, n) on the pool as one job of n
  /// partition-tasks labelled \p stage, retrying failed tasks per the
  /// retry policy. Returns the first permanent task failure as a Status
  /// (never throws through the pool); once a task fails permanently the
  /// job is cancelled and not-yet-started tasks are skipped (counted by
  /// `engine.task.cancelled`).
  ///
  /// Each job runs under a JobControl: the deadline and cancel token are
  /// polled by the driver and at task checkpoints; with speculation
  /// enabled, stragglers get a second copy and the first finisher commits
  /// via an atomic per-task claim. A worker killed by `engine.worker.die`
  /// takes its task copy back to the queue, where a surviving worker
  /// re-executes it.
  ///
  /// This is also the begin/end hook of the tracing layer: with tracing
  /// enabled each task attempt gets a span (job id, stage, partition,
  /// worker, attempt number, speculative flag, queue-wait vs compute time,
  /// failure message) and operator code can annotate record counts via
  /// obs::CurrentTaskSpan().
  template <typename Fn>
  Status TryRunTasks(const char* stage, size_t n, const Fn& fn) {
    static obs::Counter* const jobs =
        obs::DefaultMetrics().GetCounter("engine.jobs");
    static obs::Counter* const tasks =
        obs::DefaultMetrics().GetCounter("engine.tasks");
    static obs::Counter* const jobs_rejected =
        obs::DefaultMetrics().GetCounter("engine.jobs.rejected");
    if (admission_hook_) {
      // Admission veto: no task is enqueued, no JobControl is created — the
      // caller sees the hook's status (e.g. ResourceExhausted under
      // overload) exactly as it would see a deadline or cancellation.
      const Status admitted =
          admission_hook_(JobAdmission{stage, n, job_priority_});
      if (!admitted.ok()) {
        jobs_rejected->Increment();
        return admitted;
      }
    }
    jobs->Increment();
    tasks->Add(n);
    if (n == 0) return Status::OK();
    obs::TaskTracer* const tracer = tracer_->enabled() ? tracer_ : nullptr;
    // Profiling piggybacks on the tracing span plumbing: when a
    // ProfileCollector is installed on this (driver) thread, tasks fill in
    // the same TaskSpan structs and fold them into the job's accounting.
    // Every task is enqueued up front, so the job start is the enqueue
    // time of each task; queue wait = task start - job start.
    const TaskJob job{
        std::make_shared<JobControl>(n, job_deadline_ms_, cancel_token_,
                                     NextJobGeneration(), job_priority_),
        retry_policy_, stage, tracer,
        obs::CurrentProfileCollector() != nullptr,
        tracer != nullptr ? tracer->BeginJob() : 0,
        tracer != nullptr ? tracer->NowNanos() : 0};
    const uint64_t job_started_ns = SteadyNowNs();

    if (n == 1) {
      // Single-task fast path: run inline on the driver, no pool dispatch.
      RunTaskCopy(job, fn, 0, 1);
      return FinishJob(job, job_started_ns);
    }

    // fn is shared by all copies of all tasks, exactly as when the lambda
    // lived on the driver's stack — but on the heap, so a queued copy that
    // outlives this frame (possible only after cancellation, when it can
    // no longer win a claim and run user code) touches valid memory.
    const auto shared_fn = std::make_shared<Fn>(fn);
    for (size_t p = 0; p < n; ++p) {
      pool_->SubmitDetached(
          [job, shared_fn, p] { RunTaskCopy(job, *shared_fn, p, 1); });
    }

    // Driver-side monitor: promote deadline/token to a latched cancel so
    // workers skip queued tasks, and launch speculative copies for
    // stragglers. A cancelled job settles as soon as no claimed copy is
    // still inside user code — it does not wait out unclaimed sleepers.
    const SpeculationPolicy spec = speculation_policy_;
    constexpr auto kTick = std::chrono::milliseconds(2);
    while (!job.control->WaitSettledFor(kTick)) {
      job.control->ShouldStop();
      if (spec.enabled) {
        for (size_t p : job.control->SpeculationCandidates(spec)) {
          EmitTaskOutcome(job, {obs::FlightEventKind::kSpeculate, p, 2});
          pool_->SubmitDetached(
              [job, shared_fn, p] { RunTaskCopy(job, *shared_fn, p, 2); });
        }
      }
    }
    return FinishJob(job, job_started_ns);
  }

  /// Throwing wrapper over TryRunTasks for value-returning actions: a
  /// permanently failed job surfaces as a StatusError on the calling
  /// (driver) thread.
  template <typename Fn>
  void RunTasks(const char* stage, size_t n, const Fn& fn) {
    const Status status = TryRunTasks(stage, n, fn);
    if (!status.ok()) throw StatusError(status);
  }

  /// Copies the pool's dispatch statistics into the default metrics
  /// registry (engine.pool.* gauges) so a metrics dump includes them.
  void PublishPoolStats() const {
    const ThreadPool::Stats stats = pool_->GetStats();
    obs::MetricsRegistry& m = obs::DefaultMetrics();
    m.GetGauge("engine.pool.threads")
        ->Set(static_cast<int64_t>(pool_->num_threads()));
    m.GetGauge("engine.pool.tasks_submitted")
        ->Set(static_cast<int64_t>(stats.tasks_submitted));
    m.GetGauge("engine.pool.tasks_executed")
        ->Set(static_cast<int64_t>(stats.tasks_executed));
    m.GetGauge("engine.pool.workers_died")
        ->Set(static_cast<int64_t>(stats.workers_died));
    m.GetGauge("engine.pool.workers_restarted")
        ->Set(static_cast<int64_t>(stats.workers_restarted));
  }

 private:
  /// One job as its task copies see it; every copy holds it by value.
  struct TaskJob {
    std::shared_ptr<JobControl> control;
    fault::RetryPolicy policy;  ///< stable for the job
    const char* stage;
    obs::TaskTracer* tracer;  ///< null unless tracing is on
    bool profiled;
    uint64_t trace_job;  ///< tracer job id
    uint64_t queued_ns;  ///< tracer time the tasks were enqueued
  };

  /// One task event, as every sink sees it. `span`/`status` belong to the
  /// attempt the event ends, if any (span null unless traced or profiled).
  struct TaskOutcome {
    obs::FlightEventKind kind;
    size_t partition = 0;
    uint32_t copy = 0;     ///< 1 = original, 2 = speculative, 0 = the driver
    uint32_t attempt = 0;  ///< 0 when no attempt ran
    uint64_t value = 0;  ///< run duration (kFinish), task count (kJobFail)
    obs::TaskSpan* span = nullptr;
    const Status* status = nullptr;
  };

  /// The engine's one task-outcome site; nothing else touches the task
  /// sinks (see docs/OBSERVABILITY.md "Task outcomes"). A final outcome
  /// (finish, task_fail, cancel) commits the task last: CompleteTask, then
  /// EndClaimedRun for a copy's claim. Those let the driver settle, so
  /// every sink update lands before them and a returned job's counts are
  /// final.
  static void EmitTaskOutcome(const TaskJob& job, const TaskOutcome& o) {
    using Kind = obs::FlightEventKind;
    auto counter = [](const char* name) {
      return obs::DefaultMetrics().GetCounter(name);
    };
    static obs::Counter* const failures = counter("engine.task.failures");
    static obs::Counter* const wins = counter("engine.task.speculation_wins");
    static obs::Counter* const slow = counter("engine.task.slow");
    static const auto by_kind = [&counter] {
      std::array<obs::Counter*, obs::kNumFlightEventKinds> c{};
      c[static_cast<size_t>(Kind::kRetry)] = counter("engine.task.retries");
      c[static_cast<size_t>(Kind::kSpeculate)] =
          counter("engine.task.speculated");
      c[static_cast<size_t>(Kind::kCancel)] = counter("engine.task.cancelled");
      c[static_cast<size_t>(Kind::kJobFail)] = counter("engine.jobs.failed");
      return c;
    }();
    JobControl& control = *job.control;
    const size_t k = static_cast<size_t>(o.kind);
    const bool finished = o.kind == Kind::kFinish;
    if (by_kind[k] != nullptr) by_kind[k]->Increment();
    if (o.status != nullptr && !o.status->ok()) failures->Increment();
    if (finished && o.copy > 1) wins->Increment();

    const bool failed_task =
        o.kind == Kind::kRetry || o.kind == Kind::kTaskFail;
    obs::DefaultFlightRecorder().RecordTask(
        o.kind, control.generation(), o.partition, o.copy, o.attempt,
        ThreadPool::CurrentWorkerIndex(), o.value,
        failed_task ? o.status->message().c_str() : job.stage);

    if (job.profiled) {
      JobControl::Accounting& acc = control.accounting();
      acc.outcomes[k].fetch_add(1, std::memory_order_relaxed);
      if (finished && o.span != nullptr) {
        acc.rows_in.fetch_add(o.span->records_in, std::memory_order_relaxed);
        acc.rows_out.fetch_add(o.span->records_out,
                               std::memory_order_relaxed);
        acc.bytes.fetch_add(o.span->bytes, std::memory_order_relaxed);
        acc.candidates.fetch_add(o.span->candidates,
                                 std::memory_order_relaxed);
        acc.refined.fetch_add(o.span->refined, std::memory_order_relaxed);
      }
    }

    if (job.tracer != nullptr && o.span != nullptr) {
      o.span->end_ns = job.tracer->NowNanos();
      o.span->ok = o.status == nullptr || o.status->ok();
      if (!o.span->ok) o.span->error = o.status->message();
      job.tracer->Record(std::move(*o.span));
    }

    const double slow_ms = finished ? obs::GlobalSlowLog().slow_task_ms() : 0;
    if (slow_ms > 0 && static_cast<double>(o.value) > slow_ms * 1e6) {
      slow->Increment();
      std::fprintf(stderr,
                   "[stark] slow task: %s partition %zu took %.1f ms "
                   "(threshold %.1f ms)\n",
                   job.stage, o.partition, static_cast<double>(o.value) / 1e6,
                   slow_ms);
    }

    if (finished || o.kind == Kind::kTaskFail || o.kind == Kind::kCancel) {
      control.CompleteTask(o.partition, finished ? o.value : 0, finished);
      if (o.copy != 0) control.EndClaimedRun();
    }
  }

  /// One execution of one copy of one task: the engine's task boundary.
  /// `copy` is 1 for the original and 2 for a speculative duplicate. The
  /// flow is: skip if the job is done/cancelled; pass the failpoint sites
  /// (a WorkerKilledError unwinds into the pool, which requeues this exact
  /// copy); *claim* the task — only the claim winner ever runs \p fn, which
  /// is what makes speculative duplicates safe against task bodies that
  /// write shared per-partition output slots; run \p fn under a TaskContext
  /// (cooperative checkpoints) and a TaskSpan; commit exactly once. Only
  /// the claim holder reports a task's final outcome.
  template <typename Fn>
  static void RunTaskCopy(const TaskJob& job, const Fn& fn, size_t p,
                          uint32_t copy) {
    using Kind = obs::FlightEventKind;
    static fault::FailPoint* const task_fp =
        fault::DefaultFailPoints().Get("engine.task.run");
    static fault::FailPoint* const die_fp =
        fault::DefaultFailPoints().Get("engine.worker.die");
    JobControl& control = *job.control;
    // Spans exist whenever someone consumes them: the tracer (per-attempt
    // export) or the profiler (accounting folded into the job on success).
    const bool observe = job.tracer != nullptr || job.profiled;

    if (control.TaskDone(p)) return;  // a copy arrived after completion
    if (control.ShouldStop()) {
      // Job is cancelled or past its deadline: skip without starting. The
      // claim decides who reports the skip; a copy killed mid-claim and
      // requeued re-claims here, and its commit closes its claim bracket.
      if (control.ClaimTask(p, copy)) {
        EmitTaskOutcome(job, {Kind::kCancel, p, copy});
      }
      return;
    }
    control.RecordTaskStart(p);

    const size_t max_attempts = job.policy.EffectiveAttempts();
    bool claimed = false;
    for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
      const auto a = static_cast<uint32_t>(attempt);
      obs::TaskSpan span;
      if (observe) {
        span.job_id = job.trace_job;
        span.stage = job.stage;
        span.partition = p;
        span.worker = ThreadPool::CurrentWorkerIndex();
        span.queued_ns = job.queued_ns;
        span.attempt = attempt;
        span.speculative = copy > 1;
        span.start_ns = job.tracer != nullptr ? job.tracer->NowNanos() : 0;
      }
      Status task_status;
      uint64_t run_started_ns = 0;
      try {
        // Both sites fire *before* the claim on the first attempt, so a
        // delay-injected straggler sleeps unclaimed and a speculative copy
        // can win the task meanwhile.
        fault::MaybeThrow(task_fp);
        fault::MaybeKillWorker(die_fp);
        if (!claimed && !control.ClaimTask(p, copy)) {
          // Another copy owns this task: cooperative loser exit. The
          // owner commits; this copy must not touch fn's outputs.
          return;
        }
        claimed = true;
        EmitTaskOutcome(job, {Kind::kClaim, p, copy, a});
        TaskContext task_ctx(&control, p, copy > 1);
        CurrentTaskContextScope task_scope(&task_ctx);
        // Post-claim stop check (ordered against Cancel by the claim, taken
        // under the job's lock): never start user code on a dead job.
        task_ctx.ThrowIfCancelled();
        run_started_ns = SteadyNowNs();
        if (observe) {
          obs::CurrentTaskSpanScope scope(&span);
          fn(p);
        } else {
          fn(p);
        }
      } catch (const StatusError& e) {
        task_status = e.status();
      } catch (const WorkerKilledError&) {
        // Executor loss: unwind into the pool's worker loop, which requeues
        // this exact copy on a surviving worker.
        EmitTaskOutcome(job, {Kind::kWorkerDeath, p, copy, a});
        throw;
      } catch (const std::exception& e) {
        task_status = Status::UnknownError(e.what());
      } catch (...) {
        task_status = Status::UnknownError("non-std exception");
      }
      TaskOutcome out{Kind::kFinish, p, copy, a};
      out.span = observe ? &span : nullptr;
      out.status = &task_status;
      if (task_status.ok()) {
        out.value = SteadyNowNs() - run_started_ns;
        EmitTaskOutcome(job, out);
        return;
      }
      // The job is being torn down (deadline, cancel, or fail-fast abort):
      // a failing or cooperatively-stopped attempt is not retried.
      const bool stopping = control.Cancelled();
      if (stopping || attempt >= max_attempts) {
        // A final outcome is the claim holder's to report: a copy whose
        // injected fault fired before it claimed leaves the task to the
        // copy that holds the claim.
        if (!claimed && !control.ClaimTask(p, copy)) return;
        out.kind = stopping ? Kind::kCancel : Kind::kTaskFail;
        if (!stopping) {
          // Permanent failure: cancel the rest of the job, like Spark
          // cancelling a stage once a task exhausts spark.task.maxFailures.
          control.FailJob(Status(
              task_status.code(),
              std::string(job.stage) + " partition " + std::to_string(p) +
                  " failed after " + std::to_string(attempt) +
                  " attempt(s): " + task_status.message()));
        }
        EmitTaskOutcome(job, out);
        return;
      }
      out.kind = Kind::kRetry;
      EmitTaskOutcome(job, out);
      // No backoff after the final attempt (handled above), and none once
      // the job is already cancelled.
      const uint64_t backoff_ms = job.policy.BackoffMs(attempt);
      if (backoff_ms > 0 && !control.Cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      }
    }
  }

  /// Shared job epilogue (single-task fast path and pooled path): reports
  /// the tasks of a cancelled job that no copy reached, resolves the job
  /// status, dumps the flight recorder when the job died, and appends the
  /// job's ProfileNode to the driver's collector.
  static Status FinishJob(const TaskJob& job, uint64_t job_started_ns) {
    using Kind = obs::FlightEventKind;
    JobControl& control = *job.control;
    for (size_t p : control.ClaimUnclaimedTasks()) {
      EmitTaskOutcome(job, {Kind::kCancel, p});
    }
    Status status = control.first_failure();
    if (status.ok() && control.Cancelled()) status = control.cancel_status();
    const double wall_ms =
        static_cast<double>(SteadyNowNs() - job_started_ns) / 1e6;
    if (!status.ok()) {
      EmitTaskOutcome(job, {Kind::kJobFail, 0, 0, 0, control.num_tasks()});
      obs::DefaultFlightRecorder().AutoDump(std::string(job.stage) + ": " +
                                            status.ToString());
    }
    if (job.profiled) {
      obs::ProfileCollector* collector = obs::CurrentProfileCollector();
      if (collector != nullptr) {
        obs::ProfileNode node;
        node.label = job.stage;
        node.kind = obs::ProfileNodeKind::kJob;
        node.wall_ms = wall_ms;
        node.partitions = control.num_tasks();
        const JobControl::Accounting& acc = control.accounting();
        node.rows_in = acc.rows_in.load(std::memory_order_relaxed);
        node.rows_out = acc.rows_out.load(std::memory_order_relaxed);
        node.bytes = acc.bytes.load(std::memory_order_relaxed);
        node.candidates = acc.candidates.load(std::memory_order_relaxed);
        node.refined = acc.refined.load(std::memory_order_relaxed);
        node.retries = acc.count(Kind::kRetry);
        node.speculated = acc.count(Kind::kSpeculate);
        node.cancelled = acc.count(Kind::kCancel);
        node.failed = !status.ok();
        if (node.failed) node.error = status.ToString();
        obs::Histogram durations;
        for (uint64_t d : control.CompletedDurations()) durations.Record(d);
        node.task_ns = durations.Snap();
        collector->RecordJob(std::move(node));
      }
    }
    return status;
  }

  /// Process-wide job ids (the flight recorder's `job`): one counter for
  /// every TryRunTasks instantiation.
  static uint64_t NextJobGeneration() {
    static std::atomic<uint64_t> generation{0};
    return generation.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  static uint64_t SteadyNowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  static uint64_t DefaultJobDeadlineMs() {
    const char* raw = std::getenv("STARK_JOB_DEADLINE_MS");
    if (raw == nullptr || *raw == '\0') return 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(raw, &end, 10);
    return end == raw ? 0 : static_cast<uint64_t>(v);
  }

  static size_t DefaultHardwareParallelism() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 2 : hw;
  }

  size_t parallelism_;
  std::shared_ptr<ThreadPool> pool_;
  obs::TaskTracer* tracer_;
  fault::RetryPolicy retry_policy_;
  uint64_t job_deadline_ms_;
  SpeculationPolicy speculation_policy_;
  std::shared_ptr<CancelToken> cancel_token_;
  AdmissionHook admission_hook_;
  int job_priority_ = 0;
};

}  // namespace stark

#endif  // STARK_ENGINE_CONTEXT_H_
