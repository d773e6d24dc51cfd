// Tests for the always-on flight recorder: ring wrap/overwrite semantics,
// field round-trips through the packed seqlock slots, JSON dumps, and the
// post-mortem acceptance path — a job that dies on its deadline must leave
// a dump on disk holding the straggler's claim events plus the retry
// breadcrumbs of earlier jobs, with no opt-in from the caller.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/rdd.h"
#include "fault/failpoint.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace stark {
namespace {

using obs::FlightEvent;
using obs::FlightEventKind;
using obs::FlightRecorder;
using test::JsonArray;
using test::JsonObject;
using test::JsonValue;
using test::ParseJsonOrFail;

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::DefaultFailPoints().DisarmAll(); }
  void TearDown() override {
    fault::DefaultFailPoints().DisarmAll();
    obs::DefaultFlightRecorder().set_auto_dump_path("");
  }
};

TEST_F(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(2).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(3).capacity(), 4u);
  EXPECT_EQ(FlightRecorder(64).capacity(), 64u);
  EXPECT_EQ(FlightRecorder(65).capacity(), 128u);
  EXPECT_EQ(FlightRecorder(8192).capacity(), 8192u);
}

TEST_F(FlightRecorderTest, RecordTaskRoundTripsAllFields) {
  FlightRecorder ring(64);
  ring.RecordTask(FlightEventKind::kRetry, /*job=*/7, /*partition=*/123456,
                  /*copy=*/2, /*attempt=*/3, /*worker=*/5,
                  /*value=*/0xDEADBEEFCAFEBABEull, "disk gone");
  ring.RecordTask(FlightEventKind::kClaim, 8, 0, 1, 1, /*worker=*/-1);
  const std::vector<FlightEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  const FlightEvent& e = events[0];
  EXPECT_EQ(e.kind, FlightEventKind::kRetry);
  EXPECT_EQ(e.job, 7u);
  EXPECT_EQ(e.partition, 123456u);
  EXPECT_EQ(e.copy, 2u);
  EXPECT_EQ(e.attempt, 3u);
  EXPECT_EQ(e.worker, 5);
  EXPECT_EQ(e.value, 0xDEADBEEFCAFEBABEull);
  EXPECT_STREQ(e.detail, "disk gone");
  EXPECT_GT(e.ts_ns, 0u);
  // Driver-thread events keep the -1 sentinel through the packed slot.
  EXPECT_EQ(events[1].worker, -1);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
}

TEST_F(FlightRecorderTest, LongDetailIsTruncatedNotOverrun) {
  FlightRecorder ring(64);
  const std::string longish(100, 'x');
  ring.RecordTask(FlightEventKind::kTaskFail, 1, 0, 1, 1, 0, 0,
                  longish.c_str());
  const std::vector<FlightEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].detail),
            std::string(FlightEvent::kDetailSize - 1, 'x'));
}

TEST_F(FlightRecorderTest, RingWrapsKeepingTheNewestEvents) {
  FlightRecorder ring(64);
  for (uint64_t i = 0; i < 100; ++i) {
    ring.RecordTask(FlightEventKind::kFinish, /*job=*/1, /*partition=*/0, 1, 1,
                    0, /*value=*/i);
  }
  EXPECT_EQ(ring.total_recorded(), 100u);
  const std::vector<FlightEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  // Oldest-first: the survivors are exactly events 36..99.
  EXPECT_EQ(events.front().value, 36u);
  EXPECT_EQ(events.back().value, 99u);
}

TEST_F(FlightRecorderTest, DisableGatesRecording) {
  FlightRecorder ring(64);
  ring.Disable();
  ring.RecordTask(FlightEventKind::kClaim, 1, 0, 1, 1, 0);
  EXPECT_EQ(ring.total_recorded(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
  ring.Enable();
  ring.RecordTask(FlightEventKind::kClaim, 1, 0, 1, 1, 0);
  EXPECT_EQ(ring.Snapshot().size(), 1u);
}

TEST_F(FlightRecorderTest, DumpJsonRoundTrips) {
  FlightRecorder ring(64);
  ring.RecordTask(FlightEventKind::kWorkerDeath, 3, 2, 1, 1, 4, 0,
                  "say \"ow\"");
  const JsonValue json = ParseJsonOrFail(ring.DumpJson("test \"reason\""));
  ASSERT_TRUE(json.IsObject());
  const JsonObject& obj = json.AsObject();
  EXPECT_EQ(obj.at("reason").AsString(), "test \"reason\"");
  EXPECT_EQ(obj.at("capacity").AsNumber(), 64.0);
  EXPECT_EQ(obj.at("recorded").AsNumber(), 1.0);
  const JsonArray& events = obj.at("events").AsArray();
  ASSERT_EQ(events.size(), 1u);
  const JsonObject& e = events[0].AsObject();
  EXPECT_EQ(e.at("kind").AsString(), "worker_death");
  EXPECT_EQ(e.at("job").AsNumber(), 3.0);
  EXPECT_EQ(e.at("partition").AsNumber(), 2.0);
  EXPECT_EQ(e.at("worker").AsNumber(), 4.0);
  EXPECT_EQ(e.at("detail").AsString(), "say \"ow\"");
}

TEST_F(FlightRecorderTest, AutoDumpRequiresAnArmedPath) {
  FlightRecorder ring(64);
  EXPECT_FALSE(ring.AutoDump("nothing armed"));
  const std::string path = test::UniqueTempPath("flight_autodump.json");
  ring.set_auto_dump_path(path);
  EXPECT_EQ(ring.auto_dump_path(), path);
  ring.RecordTask(FlightEventKind::kCancel, 1, 0, 1, 1, 0);
  EXPECT_TRUE(ring.AutoDump("armed"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, ConcurrentWritersNeverTearReaders) {
  FlightRecorder ring(128);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&ring, &stop, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Each writer stamps value = (writer << 32 | i) so a torn read
        // would surface as an impossible (job, value) pair below.
        ring.RecordTask(FlightEventKind::kFinish, static_cast<uint64_t>(t),
                        static_cast<size_t>(i), 1, 1, t,
                        (static_cast<uint64_t>(t) << 32) | (i & 0xffffffff));
        ++i;
      }
    });
  }
  for (int reads = 0; reads < 200; ++reads) {
    for (const FlightEvent& e : ring.Snapshot()) {
      ASSERT_EQ(e.kind, FlightEventKind::kFinish);
      ASSERT_LT(e.job, 4u);
      ASSERT_EQ(e.value >> 32, e.job);
      ASSERT_EQ(e.value & 0xffffffff, e.partition & 0xffffffff);
    }
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

// Writers a lap apart share a slot. On a two-slot ring with eight writers,
// writer i and writer i+2 collide constantly. Every field of an event is
// stamped from one number, so a published record that mixes two writers'
// words — seen during the run or left behind after it — is caught. A
// seqlock whose writers publish without first claiming the slot fails this
// within its budget.
TEST_F(FlightRecorderTest, LappedWritersNeverPublishMixedRecords) {
  FlightRecorder ring(2);
  ASSERT_EQ(ring.capacity(), 2u);
  constexpr uint64_t kWriters = 8;
  constexpr uint64_t kEventsPerWriter = 50'000;
  auto stamped = [](uint64_t stamp) {
    FlightEvent e;
    e.ts_ns = stamp;
    e.job = stamp;
    e.value = stamp;
    e.partition = static_cast<uint32_t>(stamp);
    e.worker = static_cast<int32_t>(stamp >> 32);
    e.kind = FlightEventKind::kFinish;
    std::snprintf(e.detail, sizeof(e.detail), "%llx",
                  static_cast<unsigned long long>(stamp));
    return e;
  };
  size_t mixed = 0;
  auto check = [&](const std::vector<FlightEvent>& events) {
    for (const FlightEvent& e : events) {
      const FlightEvent want = stamped(e.value);
      if (e.ts_ns != want.ts_ns || e.job != want.job ||
          e.partition != want.partition || e.worker != want.worker ||
          e.kind != want.kind || std::string(e.detail) != want.detail) {
        ++mixed;
      }
    }
  };
  std::atomic<uint64_t> running{kWriters};
  std::vector<std::thread> writers;
  for (uint64_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kEventsPerWriter; ++i) {
        ring.Record(stamped(((t + 1) << 32) | i));
      }
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) check(ring.Snapshot());
  for (auto& w : writers) w.join();
  check(ring.Snapshot());
  EXPECT_EQ(mixed, 0u);
  EXPECT_EQ(ring.total_recorded(), kWriters * kEventsPerWriter);
}

// ---------------------------------------------------------------------------
// Post-mortem acceptance: a deadline-killed job must leave a dump behind
// containing both the straggler's lifecycle and earlier retry breadcrumbs.
// ---------------------------------------------------------------------------

TEST_F(FlightRecorderTest, DeadlineExceededJobAutoDumpsStragglerForensics) {
  obs::FlightRecorder& flight = obs::DefaultFlightRecorder();
  const std::string dump_path = test::UniqueTempPath("flight_deadline.json");
  flight.set_auto_dump_path(dump_path);
  const uint64_t dumps_before =
      obs::DefaultMetrics().GetCounter("engine.flight.dumps")->Value();

  Context ctx(2);

  // Job 1: a transient failure that is retried and succeeds — its retry
  // breadcrumb must survive into the post-mortem of the later failure.
  std::atomic<int> attempts{0};
  const Status retried =
      ctx.TryRunTasks("test.flight.transient", 2, [&](size_t p) {
        if (p == 0 && attempts.fetch_add(1) == 0) {
          throw StatusError(Status::IOError("transient blip"));
        }
      });
  ASSERT_TRUE(retried.ok()) << retried.ToString();

  // Job 2: one task stalls via the delay failpoint while the job runs
  // under a deadline it cannot make. The engine must dump the ring on the
  // DeadlineExceeded resolution without any explicit dump call here.
  ASSERT_TRUE(fault::DefaultFailPoints()
                  .ArmFromSpec("engine.task.run=delay:300@nth:1")
                  .ok());
  ctx.set_job_deadline_ms(60);
  const Status status = ctx.TryRunTasks("test.flight.straggler", 4,
                                        [](size_t) {});
  fault::DefaultFailPoints().DisarmAll();
  ASSERT_TRUE(status.IsDeadlineExceeded()) << status.ToString();

  EXPECT_GE(obs::DefaultMetrics().GetCounter("engine.flight.dumps")->Value(),
            dumps_before + 1);

  // The dump parses, names the failure, and holds the forensic trail.
  std::FILE* f = std::fopen(dump_path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "auto-dump file missing: " << dump_path;
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(dump_path.c_str());

  const JsonValue json = ParseJsonOrFail(text);
  const JsonObject& obj = json.AsObject();
  EXPECT_NE(obj.at("reason").AsString().find("test.flight.straggler"),
            std::string::npos);
  const JsonArray& events = obj.at("events").AsArray();
  ASSERT_FALSE(events.empty());

  double failed_job = -1;
  for (const JsonValue& ev : events) {
    const JsonObject& e = ev.AsObject();
    if (e.at("kind").AsString() == "job_fail") {
      failed_job = e.at("job").AsNumber();
    }
  }
  ASSERT_GE(failed_job, 0.0) << "no job_fail event in dump";

  bool claim_in_failed_job = false;
  bool retry_breadcrumb = false;
  for (const JsonValue& ev : events) {
    const JsonObject& e = ev.AsObject();
    const std::string& kind = e.at("kind").AsString();
    if (kind == "claim" && e.at("job").AsNumber() == failed_job) {
      claim_in_failed_job = true;
    }
    if (kind == "retry") retry_breadcrumb = true;
  }
  EXPECT_TRUE(claim_in_failed_job)
      << "straggler job left no claim events in the dump";
  EXPECT_TRUE(retry_breadcrumb)
      << "earlier job's retry breadcrumb missing from the dump";
}

}  // namespace
}  // namespace stark
