// Deterministic failure-schedule tests for the fault-injection and
// retry/recovery subsystem: every injection site is driven here. A task
// that fails transiently must yield byte-identical results to the no-fault
// run; retries-exhausted must surface a Status (never an exception through
// the thread pool); seeded probabilistic schedules must be reproducible
// across runs.
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/checkpoint.h"
#include "engine/pair_rdd.h"
#include "engine/rdd.h"
#include "fault/failpoint.h"
#include "fault/retry.h"
#include "obs/metrics.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/spatial_rdd.h"
#include "spatial_rdd/value_serde.h"
#include "test_util.h"

namespace stark {
namespace {

using fault::DefaultFailPoints;
using fault::FailPoint;
using fault::RetryPolicy;
using fault::TriggerPolicy;

uint64_t CounterValue(const char* name) {
  return obs::DefaultMetrics().GetCounter(name)->Value();
}

class FaultTest : public ::testing::Test {
 protected:
  // Sites may be armed by a previous test in this process or by a CI-level
  // STARK_FAILPOINTS; every test starts and ends from a clean slate so its
  // failure schedule is exactly the one it arms.
  void SetUp() override { DefaultFailPoints().DisarmAll(); }
  void TearDown() override { DefaultFailPoints().DisarmAll(); }

  Context ctx_{4};
};

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// ---------------------------------------------------------------------------
// Trigger-policy spec parsing
// ---------------------------------------------------------------------------

TEST(TriggerPolicyTest, ParsesNthEveryProbOff) {
  auto nth = TriggerPolicy::Parse("nth:3");
  ASSERT_TRUE(nth.ok());
  EXPECT_EQ(nth.ValueOrDie().kind, TriggerPolicy::Kind::kNth);
  EXPECT_EQ(nth.ValueOrDie().n, 3u);

  auto every = TriggerPolicy::Parse("every:2");
  ASSERT_TRUE(every.ok());
  EXPECT_EQ(every.ValueOrDie().kind, TriggerPolicy::Kind::kEvery);
  EXPECT_EQ(every.ValueOrDie().n, 2u);

  auto prob = TriggerPolicy::Parse("prob:0.25:seed=7");
  ASSERT_TRUE(prob.ok());
  EXPECT_EQ(prob.ValueOrDie().kind, TriggerPolicy::Kind::kProbability);
  EXPECT_DOUBLE_EQ(prob.ValueOrDie().probability, 0.25);
  EXPECT_EQ(prob.ValueOrDie().seed, 7u);

  auto prob_default_seed = TriggerPolicy::Parse("prob:1");
  ASSERT_TRUE(prob_default_seed.ok());
  EXPECT_DOUBLE_EQ(prob_default_seed.ValueOrDie().probability, 1.0);

  auto off = TriggerPolicy::Parse("off");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.ValueOrDie().kind, TriggerPolicy::Kind::kOff);
}

TEST(TriggerPolicyTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(TriggerPolicy::Parse("").ok());
  EXPECT_FALSE(TriggerPolicy::Parse("nth:0").ok());
  EXPECT_FALSE(TriggerPolicy::Parse("nth:x").ok());
  EXPECT_FALSE(TriggerPolicy::Parse("every:").ok());
  EXPECT_FALSE(TriggerPolicy::Parse("prob:1.5").ok());
  EXPECT_FALSE(TriggerPolicy::Parse("prob:-0.1").ok());
  EXPECT_FALSE(TriggerPolicy::Parse("prob:0.5:sneed=1").ok());
  EXPECT_FALSE(TriggerPolicy::Parse("sometimes:3").ok());
  EXPECT_FALSE(TriggerPolicy::Parse("off:1").ok());
}

TEST(TriggerPolicyTest, ToStringRoundTrips) {
  for (const char* spec :
       {"off", "nth:3", "every:7", "prob:0.25:seed=99", "delay:50",
        "delay:50@nth:2", "delay:50@every:7", "delay:5@prob:0.5:seed=9"}) {
    auto policy = TriggerPolicy::Parse(spec);
    ASSERT_TRUE(policy.ok()) << spec;
    EXPECT_EQ(policy.ValueOrDie().ToString(), spec);
  }
}

TEST(TriggerPolicyTest, ParsesDelayPolicies) {
  auto plain = TriggerPolicy::Parse("delay:50");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.ValueOrDie().action, TriggerPolicy::Action::kDelay);
  EXPECT_EQ(plain.ValueOrDie().delay_ms, 50u);
  // Bare delay fires on every hit.
  EXPECT_EQ(plain.ValueOrDie().kind, TriggerPolicy::Kind::kEvery);
  EXPECT_EQ(plain.ValueOrDie().n, 1u);

  auto scheduled = TriggerPolicy::Parse("delay:50@every:7");
  ASSERT_TRUE(scheduled.ok());
  EXPECT_EQ(scheduled.ValueOrDie().action, TriggerPolicy::Action::kDelay);
  EXPECT_EQ(scheduled.ValueOrDie().delay_ms, 50u);
  EXPECT_EQ(scheduled.ValueOrDie().kind, TriggerPolicy::Kind::kEvery);
  EXPECT_EQ(scheduled.ValueOrDie().n, 7u);

  EXPECT_FALSE(TriggerPolicy::Parse("delay:").ok());
  EXPECT_FALSE(TriggerPolicy::Parse("delay:x").ok());
  EXPECT_FALSE(TriggerPolicy::Parse("delay:5@").ok());
  EXPECT_FALSE(TriggerPolicy::Parse("delay:5@off").ok());
  EXPECT_FALSE(TriggerPolicy::Parse("delay:5@delay:6").ok());
}

TEST(TriggerPolicyTest, NthFiresExactlyOnce) {
  FailPoint fp("t");
  fp.Arm(TriggerPolicy::Parse("nth:3").ValueOrDie());
  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) fired.push_back(fp.ShouldFire());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      false, false, false, false, false}));
  EXPECT_EQ(fp.hits(), 10u);
  EXPECT_EQ(fp.fires(), 1u);
}

TEST(TriggerPolicyTest, EveryFiresPeriodically) {
  FailPoint fp("t");
  fp.Arm(TriggerPolicy::Parse("every:3").ValueOrDie());
  int fires = 0;
  for (int i = 1; i <= 12; ++i) {
    if (fp.ShouldFire()) {
      EXPECT_EQ(i % 3, 0) << "fired at hit " << i;
      ++fires;
    }
  }
  EXPECT_EQ(fires, 4);
}

TEST(TriggerPolicyTest, DisarmedFailPointNeverCountsOrFires) {
  FailPoint fp("t");
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(fp.ShouldFire());
  EXPECT_EQ(fp.hits(), 0u);  // hits are only counted while armed
}

// ---------------------------------------------------------------------------
// Seeded probabilistic schedules are reproducible
// ---------------------------------------------------------------------------

TEST(TriggerPolicyTest, ProbabilisticScheduleIsReproducibleAcrossRuns) {
  const auto policy = TriggerPolicy::Parse("prob:0.3:seed=123").ValueOrDie();
  auto run_schedule = [&policy] {
    FailPoint fp("t");
    fp.Arm(policy);
    std::vector<uint64_t> fired_hits;
    for (uint64_t i = 1; i <= 1000; ++i) {
      if (fp.ShouldFire()) fired_hits.push_back(i);
    }
    return fired_hits;
  };
  const std::vector<uint64_t> first = run_schedule();
  const std::vector<uint64_t> second = run_schedule();
  EXPECT_EQ(first, second);
  // p=0.3 over 1000 hits: expect roughly 300 fires; a deterministic hash
  // schedule far outside [200, 400] would be a broken mapping, not chance.
  EXPECT_GT(first.size(), 200u);
  EXPECT_LT(first.size(), 400u);

  // A different seed must produce a different schedule.
  FailPoint other("t");
  other.Arm(TriggerPolicy::Parse("prob:0.3:seed=124").ValueOrDie());
  std::vector<uint64_t> other_hits;
  for (uint64_t i = 1; i <= 1000; ++i) {
    if (other.ShouldFire()) other_hits.push_back(i);
  }
  EXPECT_NE(first, other_hits);
}

TEST(TriggerPolicyTest, ProbabilisticDecisionIsPureInHitIndex) {
  // The decision depends only on (seed, hit), not on evaluation order —
  // this is what makes schedules reproducible under thread interleaving.
  for (uint64_t hit = 1; hit <= 100; ++hit) {
    EXPECT_EQ(FailPoint::ProbabilisticDecision(9, hit, 0.5),
              FailPoint::ProbabilisticDecision(9, hit, 0.5));
  }
  EXPECT_TRUE(FailPoint::ProbabilisticDecision(1, 1, 1.0));
  EXPECT_FALSE(FailPoint::ProbabilisticDecision(1, 1, 0.0));
}

// ---------------------------------------------------------------------------
// Registry and spec strings
// ---------------------------------------------------------------------------

TEST_F(FaultTest, RegistryReturnsStablePointers) {
  FailPoint* a = DefaultFailPoints().Get("test.site.a");
  EXPECT_EQ(a, DefaultFailPoints().Get("test.site.a"));
  EXPECT_NE(a, DefaultFailPoints().Get("test.site.b"));
}

TEST_F(FaultTest, ArmFromSpecArmsMultipleSites) {
  ASSERT_TRUE(DefaultFailPoints()
                  .ArmFromSpec("test.spec.a=nth:1; test.spec.b=every:2,"
                               "test.spec.c=prob:0.5:seed=3")
                  .ok());
  EXPECT_TRUE(DefaultFailPoints().Get("test.spec.a")->armed());
  EXPECT_TRUE(DefaultFailPoints().Get("test.spec.b")->armed());
  EXPECT_TRUE(DefaultFailPoints().Get("test.spec.c")->armed());
  EXPECT_EQ(DefaultFailPoints().Get("test.spec.c")->policy().seed, 3u);

  DefaultFailPoints().DisarmAll();
  EXPECT_FALSE(DefaultFailPoints().Get("test.spec.a")->armed());
}

TEST_F(FaultTest, ArmFromSpecRejectsGarbage) {
  EXPECT_FALSE(DefaultFailPoints().ArmFromSpec("no-equals-sign").ok());
  EXPECT_FALSE(DefaultFailPoints().ArmFromSpec("site=bogus:1").ok());
  EXPECT_FALSE(DefaultFailPoints().ArmFromSpec("=nth:1").ok());
  // "off" in a spec disarms the named site.
  ASSERT_TRUE(DefaultFailPoints().ArmFromSpec("test.off.site=nth:1").ok());
  ASSERT_TRUE(DefaultFailPoints().ArmFromSpec("test.off.site=off").ok());
  EXPECT_FALSE(DefaultFailPoints().Get("test.off.site")->armed());
}

TEST_F(FaultTest, ReportListsResolvedSites) {
  ASSERT_TRUE(DefaultFailPoints().ArmFromSpec("test.report.x=nth:2").ok());
  const std::string report = DefaultFailPoints().Report();
  EXPECT_NE(report.find("test.report.x"), std::string::npos);
  EXPECT_NE(report.find("nth:2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Retry policy knobs
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, EffectiveAttemptsAndBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_base_ms = 10;
  policy.backoff_multiplier = 2.0;
  EXPECT_EQ(policy.EffectiveAttempts(), 4u);
  EXPECT_EQ(policy.BackoffMs(1), 10u);
  EXPECT_EQ(policy.BackoffMs(2), 20u);
  EXPECT_EQ(policy.BackoffMs(3), 40u);

  policy.fail_fast = true;
  EXPECT_EQ(policy.EffectiveAttempts(), 1u);

  RetryPolicy no_backoff;
  EXPECT_EQ(no_backoff.BackoffMs(5), 0u);

  RetryPolicy capped;
  capped.backoff_base_ms = 5000;
  EXPECT_EQ(capped.BackoffMs(10), 10'000u);  // 10s cap
}

TEST(RetryPolicyTest, FromEnvReadsOverrides) {
  ::setenv("STARK_TASK_RETRIES", "5", 1);
  ::setenv("STARK_TASK_BACKOFF_MS", "17", 1);
  ::setenv("STARK_TASK_FAIL_FAST", "1", 1);
  const RetryPolicy policy = RetryPolicy::FromEnv();
  ::unsetenv("STARK_TASK_RETRIES");
  ::unsetenv("STARK_TASK_BACKOFF_MS");
  ::unsetenv("STARK_TASK_FAIL_FAST");
  EXPECT_EQ(policy.max_attempts, 5u);
  EXPECT_EQ(policy.backoff_base_ms, 17u);
  EXPECT_TRUE(policy.fail_fast);

  const RetryPolicy defaults = RetryPolicy::FromEnv();
  EXPECT_EQ(defaults.max_attempts, 3u);
  EXPECT_FALSE(defaults.fail_fast);
}

// ---------------------------------------------------------------------------
// Task boundary: exceptions become Status, never unwind through the pool
// ---------------------------------------------------------------------------

TEST(ThreadPoolFaultTest, TryParallelForConvertsExceptionsToStatus) {
  ThreadPool pool(2);
  const Status status = pool.TryParallelFor(8, [](size_t i) {
    if (i == 3) throw std::runtime_error("bad record");
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnknownError);
  EXPECT_NE(status.message().find("bad record"), std::string::npos);
}

TEST(ThreadPoolFaultTest, TryParallelForKeepsStatusErrorCode) {
  ThreadPool pool(2);
  const Status status = pool.TryParallelFor(4, [](size_t i) {
    if (i == 1) throw StatusError(Status::IOError("disk gone"));
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("disk gone"), std::string::npos);
}

TEST(ThreadPoolFaultTest, TryParallelForRunsEveryTaskDespiteFailure) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  const Status status = pool.TryParallelFor(32, [&ran](size_t i) {
    ran.fetch_add(1);
    if (i % 2 == 0) throw std::runtime_error("boom");
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolFaultTest, ParallelForThrowsStatusErrorOnDriver) {
  ThreadPool pool(2);
  try {
    pool.ParallelFor(4, [](size_t i) {
      if (i == 2) throw std::runtime_error("kaboom");
    });
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kUnknownError);
    EXPECT_NE(e.status().message().find("kaboom"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Engine retry: transient failures recover with identical results
// ---------------------------------------------------------------------------

TEST_F(FaultTest, TransientTaskFaultYieldsIdenticalResults) {
  const std::vector<int> input = Iota(1000);
  auto pipeline = [this, &input] {
    return MakeRDD(&ctx_, input, 8)
        .Map([](int& x) { return x * 3; })
        .Filter([](const int& x) { return x % 2 == 0; })
        .Collect();
  };
  const std::vector<int> expected = pipeline();

  const uint64_t retries_before = CounterValue("engine.task.retries");
  const uint64_t injected_before = CounterValue("engine.fault.injected");
  ASSERT_TRUE(DefaultFailPoints().ArmFromSpec("engine.task.run=nth:1").ok());
  const std::vector<int> with_fault = pipeline();

  EXPECT_EQ(with_fault, expected);
  EXPECT_EQ(CounterValue("engine.fault.injected") - injected_before, 1u);
  EXPECT_GT(CounterValue("engine.task.retries"), retries_before)
      << "recovery path must actually have run";
}

TEST_F(FaultTest, UserTaskFailingTwiceThenSucceedingMatchesCleanRun) {
  // Not an injected fault: the user's own task body throws on its first
  // two executions (e.g. a flaky external resource) and then succeeds.
  const std::vector<int> expected =
      MakeRDD(&ctx_, Iota(100), 4).Map([](int& x) { return x + 1; }).Collect();

  std::atomic<int> failures_left{2};
  const std::vector<int> out =
      MakeRDD(&ctx_, Iota(100), 4)
          .Map([&failures_left](int& x) {
            if (x == 37 && failures_left.fetch_sub(1) > 0) {
              throw std::runtime_error("flaky record");
            }
            return x + 1;
          })
          .Collect();  // default policy: 3 attempts, so 2 failures recover
  EXPECT_EQ(out, expected);
}

TEST_F(FaultTest, RetriesExhaustedSurfaceStatusNotException) {
  ASSERT_TRUE(DefaultFailPoints().ArmFromSpec("engine.task.run=every:1").ok());
  const uint64_t jobs_failed_before = CounterValue("engine.jobs.failed");

  auto result = MakeRDD(&ctx_, Iota(64), 4).TryCollect();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("engine.task.run"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("failed after 3 attempt"),
            std::string::npos);
  EXPECT_GT(CounterValue("engine.jobs.failed"), jobs_failed_before);

  auto count = MakeRDD(&ctx_, Iota(64), 4).TryCount();
  EXPECT_FALSE(count.ok());
}

TEST_F(FaultTest, ThrowingActionsSurfaceStatusErrorOnDriver) {
  ASSERT_TRUE(DefaultFailPoints().ArmFromSpec("engine.task.run=every:1").ok());
  RDD<int> rdd = MakeRDD(&ctx_, Iota(16), 2);
  EXPECT_THROW(rdd.Collect(), StatusError);
  EXPECT_THROW(rdd.Count(), StatusError);
}

TEST_F(FaultTest, FailFastSkipsRetries) {
  RetryPolicy fail_fast;
  fail_fast.fail_fast = true;
  ctx_.set_retry_policy(fail_fast);
  ASSERT_TRUE(DefaultFailPoints().ArmFromSpec("engine.task.run=nth:1").ok());

  const uint64_t retries_before = CounterValue("engine.task.retries");
  auto result = MakeRDD(&ctx_, Iota(64), 4).TryCollect();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("failed after 1 attempt"),
            std::string::npos);
  EXPECT_EQ(CounterValue("engine.task.retries"), retries_before);
}

TEST_F(FaultTest, ConfiguredAttemptsAreHonoured) {
  RetryPolicy generous;
  generous.max_attempts = 6;
  ctx_.set_retry_policy(generous);
  // Single-partition job whose task fails its first five attempts; only a
  // policy honouring all six configured attempts can reach the success.
  std::atomic<int> failures_left{5};
  const std::vector<int> out = MakeRDD(&ctx_, Iota(10), 1)
                                   .Map([&failures_left](int& x) {
                                     if (failures_left.fetch_sub(1) > 0) {
                                       throw std::runtime_error("flaky");
                                     }
                                     return x;
                                   })
                                   .Collect();
  EXPECT_EQ(out.size(), 10u);
}

// ---------------------------------------------------------------------------
// Shuffle, reduce and cache injection sites
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ShuffleRouteFaultRecoversWithIdenticalResults) {
  const std::vector<int> input = Iota(500);
  auto shuffle = [this, &input] {
    auto out = MakeRDD(&ctx_, input, 8).PartitionBy(
        4, [](const int& x) { return static_cast<size_t>(x) % 4; });
    auto collected = out.Collect();
    std::sort(collected.begin(), collected.end());
    return collected;
  };
  const std::vector<int> expected = shuffle();

  ASSERT_TRUE(
      DefaultFailPoints().ArmFromSpec("engine.shuffle.route=nth:1").ok());
  const uint64_t records_before = CounterValue("engine.shuffle.records");
  EXPECT_EQ(shuffle(), expected);
  // The failed routing attempt must not double-count shuffled records.
  EXPECT_EQ(CounterValue("engine.shuffle.records") - records_before,
            input.size());
}

TEST_F(FaultTest, ReduceByKeyRecoversFromBothShuffleSites) {
  std::vector<std::pair<std::string, int64_t>> data;
  for (int i = 0; i < 300; ++i) {
    data.emplace_back("key-" + std::to_string(i % 7), 1);
  }
  auto reduce = [this, &data] {
    auto rdd = MakeRDD(&ctx_, data, 6);
    auto counts =
        ReduceByKey(rdd, [](int64_t a, int64_t b) { return a + b; }, 4)
            .Collect();
    std::sort(counts.begin(), counts.end());
    return counts;
  };
  const auto expected = reduce();

  ASSERT_TRUE(DefaultFailPoints()
                  .ArmFromSpec("engine.shuffle.route=nth:1;"
                               "engine.shuffle.reduce=nth:1")
                  .ok());
  EXPECT_EQ(reduce(), expected);
  EXPECT_GE(DefaultFailPoints().Get("engine.shuffle.reduce")->fires(), 1u);
}

TEST_F(FaultTest, CacheMaterializationFaultDoesNotLatchBrokenSlot) {
  const uint64_t misses_before = CounterValue("engine.cache.misses");
  ASSERT_TRUE(
      DefaultFailPoints().ArmFromSpec("engine.cache.materialize=nth:1").ok());

  std::atomic<int> parent_computes{0};
  RDD<int> cached = MakeRDD(&ctx_, Iota(40), 4)
                        .Map([&parent_computes](int& x) {
                          parent_computes.fetch_add(1);
                          return x;
                        })
                        .Cache();
  EXPECT_EQ(cached.Collect(), Iota(40));
  // The fault fires before the parent partition is materialized, so the
  // retried attempt is the only one that computed it: exactly one parent
  // evaluation per element despite the failure.
  EXPECT_EQ(parent_computes.load(), 40);
  EXPECT_EQ(CounterValue("engine.cache.misses") - misses_before, 4u);

  const int computes_after_first_action = parent_computes.load();
  EXPECT_EQ(cached.Count(), 40u);
  EXPECT_EQ(parent_computes.load(), computes_after_first_action)
      << "second action must hit the cache, not recompute";
}

// ---------------------------------------------------------------------------
// Checkpoint I/O injection sites
// ---------------------------------------------------------------------------

TEST_F(FaultTest, CheckpointWriteRecoversFromTransientFault) {
  const std::string dir = test::UniqueTempPath("fault_ckpt_write");
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  auto rdd = MakeRDD(&ctx_, std::vector<int64_t>{1, 2, 3, 4, 5, 6}, 3);

  ASSERT_TRUE(
      DefaultFailPoints().ArmFromSpec("engine.checkpoint.write=nth:1").ok());
  ASSERT_TRUE(Checkpoint(rdd, dir).ok());

  DefaultFailPoints().DisarmAll();
  auto loaded = LoadCheckpoint<int64_t>(&ctx_, dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().Collect(),
            (std::vector<int64_t>{1, 2, 3, 4, 5, 6}));
}

TEST_F(FaultTest, CheckpointWritePersistentFaultSurfacesStatus) {
  const std::string dir = test::UniqueTempPath("fault_ckpt_write_hard");
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  auto rdd = MakeRDD(&ctx_, std::vector<int64_t>{1, 2, 3}, 1);

  ASSERT_TRUE(
      DefaultFailPoints().ArmFromSpec("engine.checkpoint.write=every:1").ok());
  const Status status = Checkpoint(rdd, dir);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("engine.checkpoint.write"),
            std::string::npos);
}

TEST_F(FaultTest, CheckpointReadRecoversFromTransientFault) {
  const std::string dir = test::UniqueTempPath("fault_ckpt_read");
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  auto rdd = MakeRDD(&ctx_, Iota(100), 4).Map([](int& x) {
    return static_cast<int64_t>(x);
  });
  ASSERT_TRUE(Checkpoint(rdd, dir).ok());

  ASSERT_TRUE(
      DefaultFailPoints().ArmFromSpec("engine.checkpoint.read=nth:1").ok());
  auto loaded = LoadCheckpoint<int64_t>(&ctx_, dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().Collect().size(), 100u);
  EXPECT_GE(DefaultFailPoints().Get("engine.checkpoint.read")->fires(), 1u);
}

// ---------------------------------------------------------------------------
// Persistent index: Load runs as an engine job, one task per part file
// ---------------------------------------------------------------------------

class IndexLoadFaultTest : public FaultTest {
 protected:
  using Indexed = IndexedSpatialRDD<int64_t>;

  /// Saves a 16-part grid-partitioned point index to a fresh directory.
  std::string SaveIndex(const std::string& stem) {
    const std::string dir = test::UniqueTempPath(stem);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::pair<STObject, int64_t>> data;
    Rng rng(7);
    for (int64_t i = 0; i < 800; ++i) {
      data.emplace_back(STObject(Geometry::MakePoint(rng.Uniform(0, 100),
                                                     rng.Uniform(0, 100))),
                        i);
    }
    auto grid =
        std::make_shared<GridPartitioner>(Envelope(0, 0, 100, 100), 4);
    const Status saved = SpatialRDD<int64_t>::FromVector(&ctx_, data, 4)
                             .Index(8, grid)
                             .Save(dir);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    return dir;
  }

  /// Partition-wise element ids in tree storage order.
  static std::vector<std::vector<int64_t>> PartIds(const Indexed& indexed) {
    std::vector<std::vector<int64_t>> out;
    for (const auto& trees : indexed.trees().CollectPartitions()) {
      out.emplace_back();
      for (const auto& tree : trees) {
        tree->ForEach([&](const Envelope&, const auto& e) {
          out.back().push_back(e.second);
        });
      }
    }
    return out;
  }
};

TEST_F(IndexLoadFaultTest, TransientTaskFaultLoadsTheSameIndex) {
  const std::string dir = SaveIndex("fault_index_load");
  auto clean = Indexed::Load(&ctx_, dir);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  const auto expected = PartIds(clean.ValueOrDie());
  ASSERT_EQ(expected.size(), 16u);

  const uint64_t retries_before = CounterValue("engine.task.retries");
  ASSERT_TRUE(DefaultFailPoints().ArmFromSpec("engine.task.run=nth:1").ok());
  auto loaded = Indexed::Load(&ctx_, dir);
  DefaultFailPoints().DisarmAll();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(PartIds(loaded.ValueOrDie()), expected);
  EXPECT_EQ(*loaded.ValueOrDie().extents(), *clean.ValueOrDie().extents());
  EXPECT_GT(CounterValue("engine.task.retries"), retries_before);
  std::filesystem::remove_all(dir);
}

TEST_F(IndexLoadFaultTest, RetriesExhaustedSurfaceStatusNotException) {
  const std::string dir = SaveIndex("fault_index_load_hard");
  ASSERT_TRUE(DefaultFailPoints().ArmFromSpec("engine.task.run=every:1").ok());
  Result<Indexed> loaded = Status::UnknownError("unset");
  EXPECT_NO_THROW(loaded = Indexed::Load(&ctx_, dir));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("index.load"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("engine.task.run"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Everything armed at nth-hit=1: one transient failure per site, and a
// full pipeline still produces byte-identical results.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, AllSitesArmedOneTransientFaultEachStillCorrect) {
  const std::string dir = test::UniqueTempPath("fault_all_sites");
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  // One unlucky task can consume the nth:1 fire of several sites on
  // consecutive attempts (task.run, then shuffle.route, then
  // cache.materialize); a generous attempt budget keeps the schedule
  // deterministic-in-outcome regardless of thread interleaving.
  RetryPolicy generous;
  generous.max_attempts = 6;
  ctx_.set_retry_policy(generous);

  std::vector<std::pair<std::string, int64_t>> data;
  for (int i = 0; i < 400; ++i) {
    data.emplace_back("k" + std::to_string(i % 13), i);
  }
  auto pipeline = [this, &data, &dir] {
    auto cached = MakeRDD(&ctx_, data, 8).Cache();
    auto sums =
        ReduceByKey(cached, [](int64_t a, int64_t b) { return a + b; }, 4);
    if (!Checkpoint(sums, dir).ok()) {
      return std::vector<std::pair<std::string, int64_t>>{};
    }
    auto loaded = LoadCheckpoint<std::pair<std::string, int64_t>>(&ctx_, dir);
    if (!loaded.ok()) return std::vector<std::pair<std::string, int64_t>>{};
    auto out = loaded.ValueOrDie().Collect();
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto expected = pipeline();
  ASSERT_FALSE(expected.empty());

  const uint64_t retries_before = CounterValue("engine.task.retries");
  ASSERT_TRUE(DefaultFailPoints()
                  .ArmFromSpec("engine.task.run=nth:1;"
                               "engine.shuffle.route=nth:1;"
                               "engine.shuffle.reduce=nth:1;"
                               "engine.cache.materialize=nth:1;"
                               "engine.checkpoint.write=nth:1;"
                               "engine.checkpoint.read=nth:1")
                  .ok());
  EXPECT_EQ(pipeline(), expected);
  EXPECT_GT(CounterValue("engine.task.retries"), retries_before);
  for (const char* site :
       {"engine.task.run", "engine.shuffle.route", "engine.shuffle.reduce",
        "engine.cache.materialize", "engine.checkpoint.write",
        "engine.checkpoint.read"}) {
    EXPECT_GE(DefaultFailPoints().Get(site)->fires(), 1u) << site;
  }
}

// ---------------------------------------------------------------------------
// Retry-annotated trace spans
// ---------------------------------------------------------------------------

TEST_F(FaultTest, RetriedTaskProducesFailedAndSuccessfulSpans) {
  obs::TaskTracer tracer;
  Context traced_ctx(2, &tracer);
  tracer.Enable();
  DefaultFailPoints().DisarmAll();
  ASSERT_TRUE(DefaultFailPoints().ArmFromSpec("engine.task.run=nth:1").ok());

  EXPECT_EQ(MakeRDD(&traced_ctx, Iota(20), 2).Count(), 20u);

  int failed_attempts = 0;
  int retried_attempts = 0;
  for (const obs::TaskSpan& span : tracer.Spans()) {
    if (!span.ok) {
      ++failed_attempts;
      EXPECT_NE(span.error.find("engine.task.run"), std::string::npos);
    }
    if (span.attempt > 1) ++retried_attempts;
  }
  EXPECT_EQ(failed_attempts, 1);
  EXPECT_EQ(retried_attempts, 1);

  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"attempt\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
}

}  // namespace
}  // namespace stark
