// Tests for the hierarchical query profiler: collector stack semantics,
// JSON/tree rendering, and the engine integration — every TryRunTasks job
// run under an installed collector must append a ProfileNode with rows/
// partitions/retry accounting, nested under the statement node Piglet (or
// the test) pushed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/rdd.h"
#include "fault/failpoint.h"
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "test_util.h"

namespace stark {
namespace {

using test::JsonObject;
using test::JsonValue;
using test::ParseJsonOrFail;

uint64_t CounterValue(const char* name) {
  return obs::DefaultMetrics().GetCounter(name)->Value();
}

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::DefaultFailPoints().DisarmAll(); }
  void TearDown() override { fault::DefaultFailPoints().DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Collector semantics
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, CollectorNestsJobsUnderPushedNodes) {
  obs::ProfileCollector collector("script");
  EXPECT_EQ(collector.root().label, "script");
  EXPECT_EQ(collector.root().kind, obs::ProfileNodeKind::kScript);

  obs::ProfileNode* stmt =
      collector.Push("A = FILTER ...", obs::ProfileNodeKind::kStatement);
  ASSERT_NE(stmt, nullptr);
  obs::ProfileNode job;
  job.label = "spatial.filter";
  job.rows_out = 42;
  collector.RecordJob(job);
  collector.Pop();

  obs::ProfileNode other;
  other.label = "rdd.count";
  collector.RecordJob(other);  // lands on the root, not the popped stmt

  ASSERT_EQ(collector.root().children.size(), 2u);
  const obs::ProfileNode& s = collector.root().children[0];
  EXPECT_EQ(s.kind, obs::ProfileNodeKind::kStatement);
  ASSERT_EQ(s.children.size(), 1u);
  EXPECT_EQ(s.children[0].label, "spatial.filter");
  EXPECT_EQ(s.children[0].rows_out, 42u);
  EXPECT_EQ(collector.root().children[1].label, "rdd.count");
}

TEST_F(ProfileTest, CollectorScopeInstallsAndRestores) {
  EXPECT_EQ(obs::CurrentProfileCollector(), nullptr);
  obs::ProfileCollector outer;
  {
    obs::ProfileCollectorScope outer_scope(&outer);
    EXPECT_EQ(obs::CurrentProfileCollector(), &outer);
    obs::ProfileCollector inner;
    {
      obs::ProfileCollectorScope inner_scope(&inner);
      EXPECT_EQ(obs::CurrentProfileCollector(), &inner);
    }
    EXPECT_EQ(obs::CurrentProfileCollector(), &outer);
  }
  EXPECT_EQ(obs::CurrentProfileCollector(), nullptr);
}

TEST_F(ProfileTest, RecursiveTotalsIncludeChildren) {
  obs::ProfileNode root;
  root.rows_out = 1;
  root.wall_ms = 1.0;
  obs::ProfileNode child;
  child.rows_out = 10;
  child.wall_ms = 2.5;
  obs::ProfileNode grandchild;
  grandchild.rows_out = 100;
  grandchild.wall_ms = 0.5;
  child.children.push_back(grandchild);
  root.children.push_back(child);
  EXPECT_EQ(root.TotalRowsOut(), 111u);
  EXPECT_DOUBLE_EQ(root.TotalWallMs(), 4.0);
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, ProfileJsonRoundTripsWithHostileLabels) {
  obs::ProfileNode node;
  node.label = "stage \"quoted\"\nnewline";
  node.kind = obs::ProfileNodeKind::kJob;
  node.partitions = 4;
  node.rows_in = 1000;
  node.rows_out = 10;
  node.retries = 2;
  node.failed = true;
  node.error = "disk \\ gone";
  obs::ProfileNode child;
  child.label = "child";
  node.children.push_back(child);

  const JsonValue json = ParseJsonOrFail(obs::ProfileJson(node));
  ASSERT_TRUE(json.IsObject());
  const JsonObject& obj = json.AsObject();
  EXPECT_EQ(obj.at("label").AsString(), node.label);
  EXPECT_EQ(obj.at("partitions").AsNumber(), 4.0);
  EXPECT_EQ(obj.at("rows_in").AsNumber(), 1000.0);
  EXPECT_EQ(obj.at("rows_out").AsNumber(), 10.0);
  EXPECT_EQ(obj.at("retries").AsNumber(), 2.0);
  EXPECT_TRUE(obj.at("failed").AsBool());
  ASSERT_EQ(obj.at("children").AsArray().size(), 1u);
  EXPECT_EQ(
      obj.at("children").AsArray()[0].AsObject().at("label").AsString(),
      "child");
}

TEST_F(ProfileTest, FormatProfileTreeShowsHierarchyAndStats) {
  obs::ProfileNode root;
  root.label = "script";
  root.kind = obs::ProfileNodeKind::kScript;
  obs::ProfileNode stmt;
  stmt.label = "B = FILTER A BY ...;";
  stmt.kind = obs::ProfileNodeKind::kStatement;
  obs::ProfileNode job;
  job.label = "spatial.filter";
  job.partitions = 8;
  job.rows_in = 5000;
  job.rows_out = 312;
  job.retries = 1;
  stmt.children.push_back(job);
  root.children.push_back(stmt);

  const std::string tree = obs::FormatProfileTree(root);
  EXPECT_NE(tree.find("script"), std::string::npos);
  EXPECT_NE(tree.find("B = FILTER A BY ...;"), std::string::npos);
  EXPECT_NE(tree.find("spatial.filter"), std::string::npos);
  EXPECT_NE(tree.find("parts=8"), std::string::npos);
  EXPECT_NE(tree.find("rows=5000/312"), std::string::npos);
  EXPECT_NE(tree.find("retries=1"), std::string::npos);
  // Jobs indent deeper than statements.
  EXPECT_LT(tree.find("B = FILTER"), tree.find("spatial.filter"));
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, EngineJobsAppendProfileNodes) {
  Context ctx(2);
  obs::ProfileCollector collector;
  {
    obs::ProfileCollectorScope scope(&collector);
    auto rdd = MakeRDD(&ctx, std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}, 4);
    EXPECT_EQ(rdd.Count(), 8u);
  }
  ASSERT_FALSE(collector.root().children.empty());
  const obs::ProfileNode& job = collector.root().children.back();
  EXPECT_EQ(job.kind, obs::ProfileNodeKind::kJob);
  EXPECT_EQ(job.label, "rdd.count");
  EXPECT_EQ(job.partitions, 4u);
  EXPECT_EQ(job.rows_in, 8u);
  EXPECT_FALSE(job.failed);
  EXPECT_GE(job.wall_ms, 0.0);
  // Every successful task reported its duration into the histogram.
  EXPECT_EQ(job.task_ns.count, 4u);
}

TEST_F(ProfileTest, NoCollectorMeansNoCollection) {
  Context ctx(2);
  auto rdd = MakeRDD(&ctx, std::vector<int>{1, 2, 3}, 2);
  EXPECT_EQ(rdd.Count(), 3u);  // must not crash or leak nodes anywhere
  EXPECT_EQ(obs::CurrentProfileCollector(), nullptr);
}

TEST_F(ProfileTest, RetriesAndFailuresLandInTheNode) {
  Context ctx(2);
  obs::ProfileCollector collector;
  {
    obs::ProfileCollectorScope scope(&collector);
    // Partition 0 fails once then succeeds: the job retries and succeeds.
    std::atomic<int> attempts{0};
    const Status ok_status =
        ctx.TryRunTasks("test.profile.retry", 2, [&](size_t p) {
          if (p == 0 && attempts.fetch_add(1) == 0) {
            throw StatusError(Status::IOError("transient"));
          }
        });
    EXPECT_TRUE(ok_status.ok()) << ok_status.ToString();

    // All partitions always fail: the job resolves non-OK.
    const Status bad_status =
        ctx.TryRunTasks("test.profile.fail", 2, [&](size_t) {
          throw StatusError(Status::IOError("permanent"));
        });
    EXPECT_FALSE(bad_status.ok());
  }
  ASSERT_EQ(collector.root().children.size(), 2u);
  const obs::ProfileNode& retried = collector.root().children[0];
  EXPECT_EQ(retried.label, "test.profile.retry");
  EXPECT_GE(retried.retries, 1u);
  EXPECT_FALSE(retried.failed);
  const obs::ProfileNode& failed = collector.root().children[1];
  EXPECT_EQ(failed.label, "test.profile.fail");
  EXPECT_TRUE(failed.failed);
  EXPECT_NE(failed.error.find("permanent"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Slow-log configuration
// ---------------------------------------------------------------------------

TEST_F(ProfileTest, SlowLogThresholdsRoundTrip) {
  obs::SlowLogConfig config;
  EXPECT_EQ(config.slow_task_ms(), 0.0);  // disabled by default (no env)
  config.set_slow_task_ms(12.5);
  config.set_slow_query_ms(250);
  EXPECT_DOUBLE_EQ(config.slow_task_ms(), 12.5);
  EXPECT_DOUBLE_EQ(config.slow_query_ms(), 250.0);
  config.set_slow_task_ms(0);
  EXPECT_EQ(config.slow_task_ms(), 0.0);
}

TEST_F(ProfileTest, SlowTaskCounterAdvancesPastThreshold) {
  const double prev = obs::GlobalSlowLog().slow_task_ms();
  obs::GlobalSlowLog().set_slow_task_ms(1);  // 1 ms threshold
  obs::Counter* slow = obs::DefaultMetrics().GetCounter("engine.task.slow");
  const uint64_t before = slow->Value();
  {
    Context ctx(2);
    obs::ProfileCollector collector;
    obs::ProfileCollectorScope scope(&collector);
    ctx.TryRunTasks("test.profile.slow", 2, [](size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    });
  }
  obs::GlobalSlowLog().set_slow_task_ms(prev);
  EXPECT_GE(slow->Value(), before + 2);
}

// ---------------------------------------------------------------------------
// Sink parity: every task outcome reaches the counters, the flight recorder,
// the profile and the tracer alike
// ---------------------------------------------------------------------------

/// One job run on a profiled, traced Context, with what each sink saw.
struct Observed {
  Status status;
  obs::ProfileNode node;
  std::vector<obs::FlightEvent> events;  ///< the job's flight events
  std::vector<obs::TaskSpan> spans;
  std::map<std::string, uint64_t> deltas;  ///< counter name -> delta

  size_t Count(obs::FlightEventKind kind) const {
    size_t n = 0;
    for (const obs::FlightEvent& e : events) n += e.kind == kind;
    return n;
  }
  /// Flight events that end a failed attempt: every retry and permanent
  /// failure, and the cancels of attempts that ran (attempt > 0).
  size_t FailedAttemptEvents() const {
    size_t n = Count(obs::FlightEventKind::kRetry) +
               Count(obs::FlightEventKind::kTaskFail);
    for (const obs::FlightEvent& e : events) {
      n += e.kind == obs::FlightEventKind::kCancel && e.attempt > 0;
    }
    return n;
  }
  size_t FailedSpans() const {
    size_t n = 0;
    for (const obs::TaskSpan& span : spans) n += !span.ok;
    return n;
  }
};

template <typename Fn>
Observed RunObserved(Context* ctx, obs::TaskTracer* tracer, const char* stage,
                     size_t n, const Fn& fn) {
  static const char* const kCounters[] = {
      "engine.task.retries",   "engine.task.failures",
      "engine.task.cancelled", "engine.task.speculated",
      "engine.task.speculation_wins", "engine.task.slow",
      "engine.jobs.failed"};
  std::map<std::string, uint64_t> before;
  for (const char* name : kCounters) {
    before[name] = obs::DefaultMetrics().GetCounter(name)->Value();
  }
  const size_t spans_before = tracer->Spans().size();
  Observed out;
  obs::ProfileCollector collector;
  {
    obs::ProfileCollectorScope scope(&collector);
    out.status = ctx->TryRunTasks(stage, n, fn);
  }
  for (const char* name : kCounters) {
    out.deltas[name] =
        obs::DefaultMetrics().GetCounter(name)->Value() - before[name];
  }
  std::vector<obs::TaskSpan> spans = tracer->Spans();
  out.spans.assign(spans.begin() + static_cast<std::ptrdiff_t>(spans_before),
                   spans.end());
  EXPECT_EQ(collector.root().children.size(), 1u);
  if (!collector.root().children.empty()) {
    out.node = collector.root().children.back();
  }
  // The job's generation: the newest one with a claim, cancel or job_fail
  // event labelled with this (unique) stage.
  const std::vector<obs::FlightEvent> all =
      obs::DefaultFlightRecorder().Snapshot();
  uint64_t generation = 0;
  for (const obs::FlightEvent& e : all) {
    if (std::string(e.detail) == stage) {
      generation = std::max(generation, e.job);
    }
  }
  EXPECT_NE(generation, 0u) << stage;
  for (const obs::FlightEvent& e : all) {
    if (e.job == generation) out.events.push_back(e);
  }
  return out;
}

/// Checks that hold for every job: one final outcome per task and the
/// failed-attempt, retry, cancel and job-failure counts agree across sinks.
void ExpectSinksAgree(const Observed& o, size_t tasks) {
  using Kind = obs::FlightEventKind;
  EXPECT_EQ(o.Count(Kind::kFinish) + o.Count(Kind::kTaskFail) +
                o.Count(Kind::kCancel),
            tasks);
  EXPECT_EQ(o.deltas.at("engine.task.failures"), o.FailedAttemptEvents());
  EXPECT_EQ(o.deltas.at("engine.task.failures"), o.FailedSpans());
  EXPECT_EQ(o.deltas.at("engine.task.retries"), o.Count(Kind::kRetry));
  EXPECT_EQ(o.node.retries, o.Count(Kind::kRetry));
  EXPECT_EQ(o.deltas.at("engine.task.cancelled"), o.Count(Kind::kCancel));
  EXPECT_EQ(o.node.cancelled, o.Count(Kind::kCancel));
  EXPECT_EQ(o.deltas.at("engine.task.speculated"), o.Count(Kind::kSpeculate));
  EXPECT_EQ(o.node.speculated, o.Count(Kind::kSpeculate));
  EXPECT_EQ(o.deltas.at("engine.jobs.failed"), o.Count(Kind::kJobFail));
  EXPECT_EQ(o.node.failed ? 1u : 0u, o.Count(Kind::kJobFail));
  EXPECT_EQ(o.node.task_ns.count, o.Count(Kind::kFinish));
  EXPECT_EQ(o.spans.size() - o.FailedSpans(), o.Count(Kind::kFinish));
}

class SinkParityTest : public ProfileTest {
 protected:
  SinkParityTest() : ctx_(4, &tracer_) { tracer_.Enable(); }

  obs::TaskTracer tracer_;
  Context ctx_;
};

TEST_F(SinkParityTest, RetriedAttempt) {
  std::atomic<int> attempts{0};
  const Observed o = RunObserved(&ctx_, &tracer_, "test.parity.retry", 4,
                                 [&](size_t p) {
    if (p == 0 && attempts.fetch_add(1) == 0) {
      throw StatusError(Status::IOError("transient"));
    }
  });
  EXPECT_TRUE(o.status.ok()) << o.status.ToString();
  EXPECT_EQ(o.node.retries, 1u);
  ExpectSinksAgree(o, 4);
}

TEST_F(SinkParityTest, PermanentFailure) {
  fault::RetryPolicy policy;
  policy.max_attempts = 2;
  ctx_.set_retry_policy(policy);
  const Observed o = RunObserved(&ctx_, &tracer_, "test.parity.fail", 4,
                                 [](size_t p) {
    if (p == 0) throw StatusError(Status::IOError("permanent"));
  });
  EXPECT_FALSE(o.status.ok());
  EXPECT_EQ(o.Count(obs::FlightEventKind::kTaskFail), 1u);
  EXPECT_EQ(o.node.retries, 1u);
  EXPECT_TRUE(o.node.failed);
  ExpectSinksAgree(o, 4);
}

TEST_F(SinkParityTest, FailFastCancel) {
  fault::RetryPolicy policy;
  policy.fail_fast = true;
  ctx_.set_retry_policy(policy);
  const Observed o = RunObserved(&ctx_, &tracer_, "test.parity.failfast", 16,
                                 [](size_t p) {
    if (p == 0) throw StatusError(Status::IOError("disk gone"));
    for (int i = 0; i < 4; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ThrowIfTaskCancelled();
    }
  });
  EXPECT_FALSE(o.status.ok());
  EXPECT_GE(o.node.cancelled, 1u);
  ExpectSinksAgree(o, 16);
}

TEST_F(SinkParityTest, SlowTask) {
  const double prev = obs::GlobalSlowLog().slow_task_ms();
  obs::GlobalSlowLog().set_slow_task_ms(5);
  const Observed o = RunObserved(&ctx_, &tracer_, "test.parity.slow", 4,
                                 [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  obs::GlobalSlowLog().set_slow_task_ms(prev);
  EXPECT_TRUE(o.status.ok()) << o.status.ToString();
  size_t slow_finishes = 0;
  for (const obs::FlightEvent& e : o.events) {
    slow_finishes +=
        e.kind == obs::FlightEventKind::kFinish && e.value > 5'000'000u;
  }
  EXPECT_EQ(o.deltas.at("engine.task.slow"), slow_finishes);
  EXPECT_EQ(o.node.task_ns.count, slow_finishes);  // every task slept 20ms
  ExpectSinksAgree(o, 4);
}

TEST_F(SinkParityTest, SpeculationWin) {
  SpeculationPolicy spec;
  spec.enabled = true;
  spec.quantile = 0.5;
  spec.multiplier = 1.0;
  spec.min_task_ms = 1;
  ctx_.set_speculation_policy(spec);
  ASSERT_TRUE(fault::DefaultFailPoints()
                  .ArmFromSpec("engine.task.run=delay:300@nth:1")
                  .ok());
  const Observed o =
      RunObserved(&ctx_, &tracer_, "test.parity.spec", 4, [](size_t) {});
  fault::DefaultFailPoints().DisarmAll();
  EXPECT_TRUE(o.status.ok()) << o.status.ToString();
  size_t copy2_finishes = 0;
  for (const obs::FlightEvent& e : o.events) {
    copy2_finishes += e.kind == obs::FlightEventKind::kFinish && e.copy == 2;
  }
  EXPECT_GE(copy2_finishes, 1u);
  EXPECT_EQ(o.deltas.at("engine.task.speculation_wins"), copy2_finishes);
  EXPECT_GE(o.node.speculated, copy2_finishes);
  ExpectSinksAgree(o, 4);
  // The delayed original wakes after the job returned, loses the claim and
  // reports nothing.
  const uint64_t wins = CounterValue("engine.task.speculation_wins");
  const uint64_t failures = CounterValue("engine.task.failures");
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(CounterValue("engine.task.speculation_wins"), wins);
  EXPECT_EQ(CounterValue("engine.task.failures"), failures);
}

}  // namespace
}  // namespace stark
