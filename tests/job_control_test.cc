// Tests for the job-control layer: deadlines, cooperative cancellation,
// speculative execution, and executor-loss recovery. Spans and counters are
// the observable surface — a cancelled job must not start new tasks (span
// timestamps prove it), a worker death must heal (engine.worker.restarts),
// and speculation must never change results (differential against the
// speculation-off run).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "engine/job_control.h"
#include "engine/rdd.h"
#include "fault/failpoint.h"
#include "io/generator.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/join.h"

namespace stark {
namespace {

using fault::DefaultFailPoints;
using fault::RetryPolicy;

uint64_t CounterValue(const char* name) {
  return obs::DefaultMetrics().GetCounter(name)->Value();
}

class JobControlTest : public ::testing::Test {
 protected:
  // A CI-level STARK_FAILPOINTS or a previous test may have armed sites;
  // every test runs exactly the schedule it arms.
  void SetUp() override { DefaultFailPoints().DisarmAll(); }
  void TearDown() override { DefaultFailPoints().DisarmAll(); }
};

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST_F(JobControlTest, DeadlineExpiredJobReturnsDeadlineExceeded) {
  auto ctx = std::make_unique<Context>(2);
  ctx->set_job_deadline_ms(50);
  const uint64_t cancelled_before = CounterValue("engine.task.cancelled");
  std::atomic<int> started{0};
  Stopwatch w;
  const Status status = ctx->TryRunTasks("test.deadline", 8, [&](size_t) {
    ++started;
    // 40 x 10ms of "work" with a checkpoint between batches; a full run
    // would take 8 tasks x 400ms / 2 workers = 1.6s.
    for (int i = 0; i < 40; ++i) {
      SleepMs(10);
      ThrowIfTaskCancelled();
    }
  });
  const double elapsed_s = w.ElapsedSeconds();
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  // In-flight tasks stopped at a checkpoint, queued tasks were skipped.
  EXPECT_LT(elapsed_s, 0.8);
  EXPECT_LT(started.load(), 8);
  // Skipped queued copies bump the counter as the pool drains them, which
  // can be after the cancelled job settles — join the pool before reading.
  ctx.reset();
  EXPECT_GE(CounterValue("engine.task.cancelled"), cancelled_before + 1);
}

TEST_F(JobControlTest, ZeroDeadlineMeansNoDeadline) {
  Context ctx(2);
  ctx.set_job_deadline_ms(0);
  std::atomic<int> ran{0};
  const Status status =
      ctx.TryRunTasks("test.nodeadline", 4, [&](size_t) { ++ran; });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ran.load(), 4);
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST_F(JobControlTest, PreCancelledTokenSkipsEveryTask) {
  obs::TaskTracer tracer;
  tracer.Enable();
  Context ctx(2, &tracer);
  auto token = std::make_shared<CancelToken>();
  token->RequestCancel();
  ctx.set_cancel_token(token);
  std::atomic<int> ran{0};
  const Status status =
      ctx.TryRunTasks("test.precancel", 6, [&](size_t) { ++ran; });
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_EQ(ran.load(), 0);  // user code never started
  EXPECT_TRUE(tracer.Spans().empty());  // skipped tasks record no attempt
}

TEST_F(JobControlTest, NoTaskStartsAfterCancellation) {
  obs::TaskTracer tracer;
  tracer.Enable();
  Context ctx(2, &tracer);
  auto token = std::make_shared<CancelToken>();
  ctx.set_cancel_token(token);

  uint64_t cancel_ns = 0;
  std::thread canceller([&] {
    SleepMs(50);
    cancel_ns = tracer.NowNanos();
    token->RequestCancel();
  });
  // 16 tasks x 30ms on 2 workers = 240ms uncancelled; the cancel lands at
  // ~50ms, so later tasks must be skipped without a span.
  const Status status = ctx.TryRunTasks("test.midcancel", 16, [&](size_t) {
    for (int i = 0; i < 3; ++i) {
      SleepMs(10);
      ThrowIfTaskCancelled();
    }
  });
  canceller.join();
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();

  const auto spans = tracer.Spans();
  EXPECT_LT(spans.size(), 16u);
  // A worker may have passed its stop check just before the flag latched;
  // allow a small window, far below the 30ms task length.
  const uint64_t margin_ns = 20'000'000;  // 20ms
  for (const auto& span : spans) {
    EXPECT_LE(span.start_ns, cancel_ns + margin_ns)
        << "task started " << (span.start_ns - cancel_ns) / 1e6
        << "ms after cancellation";
  }
}

TEST_F(JobControlTest, TokenIsReusableAfterReset) {
  Context ctx(2);
  auto token = std::make_shared<CancelToken>();
  ctx.set_cancel_token(token);
  token->RequestCancel();
  EXPECT_TRUE(ctx.TryRunTasks("test.reuse", 4, [](size_t) {}).IsCancelled());
  token->Reset();
  std::atomic<int> ran{0};
  const Status status =
      ctx.TryRunTasks("test.reuse", 4, [&](size_t) { ++ran; });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ran.load(), 4);
}

// A cancelled job's counts are final when TryRunTasks returns: every task
// that did not commit has exactly one cancel outcome in the profile node,
// the counter and the flight recorder by then. None is left to a copy that
// is still draining from the pool.
TEST_F(JobControlTest, CancelledJobSettlesEveryTaskBeforeReturning) {
  constexpr size_t kTasks = 64;
  constexpr const char* kStage = "test.cancel.settle";
  Context ctx(4);
  auto token = std::make_shared<CancelToken>();
  token->RequestCancel();
  ctx.set_cancel_token(token);
  for (int rep = 0; rep < 200; ++rep) {
    obs::ProfileCollector collector;
    obs::ProfileCollectorScope scope(&collector);
    const uint64_t before = CounterValue("engine.task.cancelled");
    const Status status = ctx.TryRunTasks(kStage, kTasks, [](size_t) {});
    const uint64_t delta = CounterValue("engine.task.cancelled") - before;
    const std::vector<obs::FlightEvent> events =
        obs::DefaultFlightRecorder().Snapshot();
    ASSERT_TRUE(status.IsCancelled()) << status.ToString();

    // The job's generation is the newest job_fail event with its stage.
    uint64_t generation = 0;
    for (const obs::FlightEvent& e : events) {
      if (e.kind == obs::FlightEventKind::kJobFail &&
          std::string(e.detail) == kStage) {
        generation = std::max(generation, e.job);
      }
    }
    ASSERT_NE(generation, 0u) << "rep " << rep;
    size_t flight_cancels = 0;
    for (const obs::FlightEvent& e : events) {
      if (e.kind == obs::FlightEventKind::kCancel && e.job == generation) {
        ++flight_cancels;
      }
    }
    ASSERT_EQ(collector.root().children.size(), 1u);
    EXPECT_EQ(collector.root().children[0].cancelled, kTasks) << "rep " << rep;
    EXPECT_EQ(delta, kTasks) << "rep " << rep;
    EXPECT_EQ(flight_cancels, kTasks) << "rep " << rep;
    if (HasFailure()) break;
  }
}

// ---------------------------------------------------------------------------
// Fail-fast: a permanent failure cancels the rest of the job
// ---------------------------------------------------------------------------

TEST_F(JobControlTest, FailFastSkipsQueuedTasksAfterFirstFailure) {
  ::setenv("STARK_TASK_FAIL_FAST", "1", 1);
  auto ctx = std::make_unique<Context>(2);
  ::unsetenv("STARK_TASK_FAIL_FAST");
  ASSERT_TRUE(ctx->retry_policy().fail_fast);

  const uint64_t cancelled_before = CounterValue("engine.task.cancelled");
  std::atomic<int> ran{0};
  const Status status = ctx->TryRunTasks("test.failfast", 16, [&](size_t p) {
    if (p == 0) throw StatusError(Status::IOError("disk gone"));
    ++ran;
    SleepMs(20);
  });
  // The real failure surfaces (not the secondary cancellation), with the
  // task-boundary message format.
  ASSERT_FALSE(status.ok());
  EXPECT_FALSE(status.IsCancelled()) << status.ToString();
  EXPECT_NE(status.ToString().find("failed after 1 attempt(s)"),
            std::string::npos)
      << status.ToString();
  EXPECT_LT(ran.load(), 15);  // queued tasks were skipped, not run
  // Join the pool first: skipped copies count themselves as they drain.
  ctx.reset();
  EXPECT_GE(CounterValue("engine.task.cancelled"), cancelled_before + 1);
}

TEST_F(JobControlTest, NoBackoffSleepAfterFinalAttempt) {
  Context ctx(2);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_ms = 80;
  policy.backoff_multiplier = 1.0;
  ctx.set_retry_policy(policy);
  std::atomic<int> attempts{0};
  Stopwatch w;
  const Status status = ctx.TryRunTasks("test.backoff", 1, [&](size_t) {
    ++attempts;
    throw StatusError(Status::IOError("always fails"));
  });
  const double elapsed_s = w.ElapsedSeconds();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(attempts.load(), 3);
  // Two backoff sleeps (after attempts 1 and 2) and none after the final
  // attempt: ~160ms. A third sleep would push past 240ms.
  EXPECT_GE(elapsed_s, 0.14);
  EXPECT_LT(elapsed_s, 0.22);
}

// ---------------------------------------------------------------------------
// Executor loss: a killed worker's task is requeued, the worker respawned
// ---------------------------------------------------------------------------

TEST_F(JobControlTest, WorkerDeathRequeuesTaskAndRespawnsWorker) {
  auto ctx = std::make_unique<Context>(2);
  const uint64_t restarts_before = CounterValue("engine.worker.restarts");
  const uint64_t deaths_before = CounterValue("engine.worker.deaths");
  ASSERT_TRUE(DefaultFailPoints()
                  .ArmFromSpec("engine.worker.die=nth:2")
                  .ok());
  std::vector<int64_t> data(1000);
  std::iota(data.begin(), data.end(), 0);
  const auto doubled = MakeRDD(ctx.get(), data, 8)
                           .Map([](int64_t& x) { return x * 2; })
                           .Collect();
  DefaultFailPoints().DisarmAll();

  ASSERT_EQ(doubled.size(), 1000u);
  for (size_t i = 0; i < doubled.size(); ++i) {
    EXPECT_EQ(doubled[i], static_cast<int64_t>(i) * 2);
  }

  // The healed pool still runs full-width jobs.
  std::atomic<int> ran{0};
  const Status status =
      ctx->TryRunTasks("test.after-heal", 8, [&](size_t) { ++ran; });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ran.load(), 8);

  // The dying worker thread bumps the death/restart counters on its way
  // out, possibly after the job completed on the survivors — join the
  // pool before asserting them.
  ctx.reset();
  EXPECT_GE(CounterValue("engine.worker.deaths"), deaths_before + 1);
  EXPECT_GE(CounterValue("engine.worker.restarts"), restarts_before + 1);
}

// ---------------------------------------------------------------------------
// Speculation: stragglers get a backup copy; results never change
// ---------------------------------------------------------------------------

SpeculationPolicy AggressivePolicy() {
  SpeculationPolicy policy;
  policy.enabled = true;
  policy.quantile = 0.5;
  policy.multiplier = 1.25;
  policy.min_task_ms = 5;
  return policy;
}

TEST_F(JobControlTest, SpeculativeCopyWinsAgainstDelayedStraggler) {
  auto ctx = std::make_unique<Context>(4);
  ctx->set_speculation_policy(AggressivePolicy());
  const uint64_t wins_before = CounterValue("engine.task.speculation_wins");
  ASSERT_TRUE(DefaultFailPoints()
                  .ArmFromSpec("engine.task.run=delay:400@nth:1")
                  .ok());
  std::vector<int> out(4, 0);
  Stopwatch w;
  const Status status = ctx->TryRunTasks("test.straggler", 4, [&](size_t p) {
    SleepMs(20);
    out[p] = static_cast<int>(p) + 1;
  });
  const double elapsed_s = w.ElapsedSeconds();
  DefaultFailPoints().DisarmAll();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));  // exactly-once commit
  // The job returned via the backup copy, not the 400ms sleeper.
  EXPECT_LT(elapsed_s, 0.35);
  // The winning copy bumps the counter after the commit that releases the
  // driver — join the pool (which also waits out the sleeper) first.
  ctx.reset();
  EXPECT_GE(CounterValue("engine.task.speculation_wins"), wins_before + 1);
}

TEST_F(JobControlTest, SpeculationDifferentialOnSpatialQueries) {
  // Workload: skewed points joined/filtered/kNN-queried against polygons.
  SkewedPointsOptions gen;
  gen.count = 300;
  gen.universe = Envelope(0, 0, 100, 100);
  gen.seed = 91;
  const auto pts = GenerateSkewedPoints(gen);
  PolygonsOptions pgen;
  pgen.count = 40;
  pgen.universe = gen.universe;
  pgen.seed = 92;
  pgen.min_radius = 2;
  pgen.max_radius = 8;
  const auto polys = GenerateRandomPolygons(pgen);
  std::vector<std::pair<STObject, int64_t>> left, right;
  for (size_t i = 0; i < pts.size(); ++i) {
    left.emplace_back(pts[i], static_cast<int64_t>(i));
  }
  for (size_t i = 0; i < polys.size(); ++i) {
    right.emplace_back(polys[i], static_cast<int64_t>(i));
  }

  const auto join_ids = [&](Context* cx) {
    auto grid = std::make_shared<GridPartitioner>(gen.universe, 3);
    auto l = SpatialRDD<int64_t>::FromVector(cx, left, 3).PartitionBy(grid);
    auto r = SpatialRDD<int64_t>::FromVector(cx, right, 2).PartitionBy(grid);
    std::set<std::pair<int64_t, int64_t>> ids;
    for (const auto& [a, b] :
         SpatialJoin(l, r, JoinPredicate::ContainedBy()).Collect()) {
      ids.emplace(a.second, b.second);
    }
    return ids;
  };
  const STObject window(Geometry::MakeBox(Envelope(20, 20, 70, 70)));
  const auto filter_ids = [&](Context* cx) {
    auto s = SpatialRDD<int64_t>::FromVector(cx, left, 4);
    std::vector<int64_t> ids;
    for (const auto& [obj, id] :
         s.Filter(window, JoinPredicate::ContainedBy()).Collect()) {
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const auto knn_ids = [&](Context* cx) {
    auto s = SpatialRDD<int64_t>::FromVector(cx, left, 4);
    std::vector<std::pair<double, int64_t>> hits;
    for (const auto& [dist, elem] : s.Knn(pts[0], 10)) {
      hits.emplace_back(dist, elem.second);
    }
    return hits;
  };

  // Baseline: speculation off, no faults.
  Context base(4);
  SpeculationPolicy off;
  off.enabled = false;
  base.set_speculation_policy(off);
  const auto base_join = join_ids(&base);
  const auto base_filter = filter_ids(&base);
  const auto base_knn = knn_ids(&base);
  EXPECT_FALSE(base_join.empty());
  EXPECT_FALSE(base_filter.empty());
  EXPECT_EQ(base_knn.size(), 10u);

  // Speculation on, one delayed straggler per query: results must be
  // identical — the claim makes the duplicate copies invisible.
  const uint64_t wins_before = CounterValue("engine.task.speculation_wins");
  {
    Context spec(4);
    spec.set_speculation_policy(AggressivePolicy());
    ASSERT_TRUE(DefaultFailPoints()
                    .ArmFromSpec("engine.task.run=delay:300@nth:1")
                    .ok());
    EXPECT_EQ(join_ids(&spec), base_join);
    DefaultFailPoints().DisarmAll();
    ASSERT_TRUE(DefaultFailPoints()
                    .ArmFromSpec("engine.task.run=delay:300@nth:1")
                    .ok());
    EXPECT_EQ(filter_ids(&spec), base_filter);
    DefaultFailPoints().DisarmAll();
    ASSERT_TRUE(DefaultFailPoints()
                    .ArmFromSpec("engine.task.run=delay:300@nth:1")
                    .ok());
    EXPECT_EQ(knn_ids(&spec), base_knn);
    DefaultFailPoints().DisarmAll();
  }
  EXPECT_GE(CounterValue("engine.task.speculation_wins"), wins_before + 1);
}

// ---------------------------------------------------------------------------
// Shutdown under load (primarily a TSan target)
// ---------------------------------------------------------------------------

TEST_F(JobControlTest, ContextDestructionWhileExpiredJobStillDrains) {
  // A deadline-expired job returns as soon as no claimed copy is inside
  // user code; unclaimed queued/sleeping copies may still reference the
  // JobControl. Destroying the Context right away must be safe: the pool
  // drains the leftovers, which skip via the heap-owned control block.
  ASSERT_TRUE(DefaultFailPoints()
                  .ArmFromSpec("engine.task.run=delay:100@nth:1")
                  .ok());
  auto ctx = std::make_unique<Context>(2);
  ctx->set_job_deadline_ms(30);
  const Status status = ctx->TryRunTasks("test.drain", 16, [&](size_t) {
    for (int i = 0; i < 4; ++i) {
      SleepMs(10);
      ThrowIfTaskCancelled();
    }
  });
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  ctx.reset();  // joins workers; queued copies run their skip path
  DefaultFailPoints().DisarmAll();
}

}  // namespace
}  // namespace stark
