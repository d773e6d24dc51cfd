// Ingest exactness and cost: every redelivery is a duplicate whichever
// dedupe tier recorded its first delivery (open window, fired-id archive,
// late or gap set), the books reconcile, and steady-state ingest allocates
// per window rather than per event, with dedupe state bounded by the open
// windows.
#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "stream_test_util.h"

namespace stark {
namespace {

using stream::LatePolicy;
using stream::StreamContext;
using stream::WindowManager;
using test::BatchWindows;
using test::FormatWindows;
using test::MakeEvent;
using test::Replay;
using test::ReplayArrivals;
using test::ReplayRun;
using test::ScriptedSource;
using test::ShuffledArrivals;
using test::StreamEvent;

class StreamIngestTest : public ::testing::Test {
 protected:
  Context ctx_{2};
};

std::vector<StreamEvent> InOrderEvents(size_t count) {
  std::vector<StreamEvent> events;
  for (size_t i = 0; i < count; ++i) {
    const int64_t id = static_cast<int64_t>(i);
    events.push_back(MakeEvent(id, id, "cat", static_cast<double>(i % 10),
                               static_cast<double>(i % 7)));
  }
  return events;
}

void ExpectBooksReconcile(const stream::StreamStats& stats, size_t deliveries) {
  EXPECT_EQ(stats.ingested, deliveries);
  EXPECT_EQ(stats.ingested, stats.accepted + stats.late + stats.duplicates);
  EXPECT_EQ(stats.late, stats.dropped + stats.side_output);
}

TEST_F(StreamIngestTest, RedeliveryWhileItsWindowIsOpenIsADuplicate) {
  // One polled batch: nothing fires before the redeliveries arrive, and the
  // watermark (bound 0) already makes them late, so the lookup reads the
  // open tier from the late path.
  std::vector<StreamEvent> arrivals = InOrderEvents(12);
  arrivals.push_back(arrivals[2]);
  arrivals.push_back(arrivals[11]);  // on time: the hot path's own insert
  StreamContext::Options options;
  options.window.size = 5;
  const ReplayRun run = Replay(&ctx_, arrivals, 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.stats.duplicates, 2u);
  EXPECT_EQ(run.stats.accepted, 12u);
  EXPECT_EQ(run.stats.late, 0u);
  ExpectBooksReconcile(run.stats, arrivals.size());
  EXPECT_EQ(FormatWindows(run.Windows()),
            FormatWindows(BatchWindows(InOrderEvents(12), options.window)));
}

TEST_F(StreamIngestTest, RedeliveryAfterItsTumblingWindowFiredIsADuplicate) {
  // One event per poll, so [0,4) and [4,8) have fired when ids 2 and 5
  // come again: only the fired-id archive remembers them.
  std::vector<StreamEvent> arrivals = InOrderEvents(20);
  arrivals.push_back(arrivals[2]);
  arrivals.push_back(arrivals[5]);
  StreamContext::Options options;
  options.window.size = 4;
  options.poll_batch = 1;
  const ReplayRun run = Replay(&ctx_, arrivals, 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.stats.duplicates, 2u);
  EXPECT_EQ(run.stats.accepted, 20u);
  EXPECT_EQ(run.stats.late, 0u);
  ExpectBooksReconcile(run.stats, arrivals.size());
  EXPECT_EQ(FormatWindows(run.Windows()),
            FormatWindows(BatchWindows(InOrderEvents(20), options.window)));
}

TEST_F(StreamIngestTest, RedeliveryAfterItsSlidingWindowsFiredIsADuplicate) {
  // size 6, slide 2: each event sits in three windows and its last one
  // fires last. At watermark 29, id 3's windows [-2,4) .. [2,8) have all
  // fired (archive), while id 22's last window [22,28) has not (open tier,
  // read from the late path).
  std::vector<StreamEvent> arrivals = InOrderEvents(30);
  arrivals.push_back(arrivals[3]);
  arrivals.push_back(arrivals[4]);
  arrivals.push_back(arrivals[22]);
  StreamContext::Options options;
  options.window.size = 6;
  options.window.slide = 2;
  options.poll_batch = 1;
  const ReplayRun run = Replay(&ctx_, arrivals, 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.stats.duplicates, 3u);
  EXPECT_EQ(run.stats.accepted, 30u);
  ExpectBooksReconcile(run.stats, arrivals.size());
  EXPECT_EQ(FormatWindows(run.Windows()),
            FormatWindows(BatchWindows(InOrderEvents(30), options.window)));
}

TEST_F(StreamIngestTest, RedeliveryOfALateEventIsADuplicate) {
  for (const LatePolicy policy : {LatePolicy::kDrop, LatePolicy::kSideOutput}) {
    std::vector<StreamEvent> arrivals = InOrderEvents(21);
    arrivals.push_back(MakeEvent(100, 3, "late", 0, 0));
    arrivals.push_back(MakeEvent(100, 3, "late", 0, 0));
    StreamContext::Options options;
    options.window.size = 5;
    options.late_policy = policy;
    options.poll_batch = 4;
    const ReplayRun run = Replay(&ctx_, arrivals, /*bound=*/2, options);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_EQ(run.stats.late, 1u);
    EXPECT_EQ(run.stats.duplicates, 1u);
    EXPECT_EQ(run.side_output.size(),
              policy == LatePolicy::kSideOutput ? 1u : 0u);
    ExpectBooksReconcile(run.stats, arrivals.size());
  }
}

TEST_F(StreamIngestTest, RedeliveryOfAGapEventIsADuplicate) {
  // slide 5 > size 2: windows [0,2), [5,7), ...; t = 3 lies in a gap. The
  // first redelivery is still on time (a gap again), the second comes once
  // the watermark has passed it (late path).
  std::vector<StreamEvent> arrivals = {
      MakeEvent(1, 0, "a", 0, 0), MakeEvent(2, 3, "a", 0, 0),
      MakeEvent(2, 3, "a", 0, 0), MakeEvent(3, 6, "a", 0, 0),
      MakeEvent(4, 11, "a", 0, 0), MakeEvent(2, 3, "a", 0, 0)};
  StreamContext::Options options;
  options.window.size = 2;
  options.window.slide = 5;
  options.poll_batch = 1;
  const ReplayRun run = Replay(&ctx_, arrivals, /*bound=*/4, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.stats.duplicates, 2u);
  EXPECT_EQ(run.stats.accepted, 4u);  // a gap event counts as accepted
  EXPECT_EQ(run.stats.late, 0u);
  ExpectBooksReconcile(run.stats, arrivals.size());
  for (const auto& w : run.Windows()) {
    for (const auto& e : w.events) EXPECT_NE(e.id, 2);
  }
}

TEST_F(StreamIngestTest, RedeliveryOfAnEventTheFrontierClampMadeLate) {
  // Source b exhausts at watermark 5; source a's watermark 30 then fires
  // [0,10) .. [20,30). Ingest still judges against min(5, 30) = 5, so t = 12
  // and t = 5 are on time there, but their windows have fired: the frontier
  // clamp makes them late. Id 11's first delivery is clamp-late (misc set);
  // id 1's first delivery was accepted from b before its window fired
  // (archive).
  StreamContext::Options options;
  options.window.size = 10;
  options.poll_batch = 1;
  StreamContext sc(&ctx_, options);
  sc.AddSource(std::make_unique<ScriptedSource>(
                   std::vector<StreamEvent>{MakeEvent(1, 5, "b", 0, 0)}),
               /*bound=*/0);
  sc.AddSource(std::make_unique<ScriptedSource>(std::vector<StreamEvent>{
                   MakeEvent(10, 30, "a", 0, 0), MakeEvent(11, 12, "a", 0, 0),
                   MakeEvent(11, 12, "a", 0, 0), MakeEvent(1, 5, "b", 0, 0)}),
               /*bound=*/0);
  std::vector<stream::FiredWindow> windows;
  sc.SetSink([&windows](const stream::WindowResult& r) {
    windows.push_back(r.window);
  });
  ASSERT_TRUE(sc.RunToCompletion().ok());
  const stream::StreamStats stats = sc.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.late, 1u);
  EXPECT_EQ(stats.duplicates, 2u);
  ExpectBooksReconcile(stats, 5);
  EXPECT_EQ(FormatWindows(windows),
            FormatWindows(BatchWindows({MakeEvent(1, 5, "b", 0, 0),
                                        MakeEvent(10, 30, "a", 0, 0)},
                                       options.window)));
}

// One id names one logical event at one time (event.h). A source that
// reuses an id at another time is at fault; this pins what the dedupe
// tiers then do, as docs/STREAMING.md states it: the reuse is a duplicate
// while the first delivery's id is in the open tier, and a new event once
// the first delivery's last window has fired.
TEST_F(StreamIngestTest, IdReusedAtADifferentTimeIsANewEventOnceFired) {
  const std::vector<StreamEvent> arrivals = {
      MakeEvent(1, 5, "a", 0, 0), MakeEvent(1, 7, "a", 1, 1),
      MakeEvent(2, 15, "a", 0, 0), MakeEvent(3, 25, "a", 0, 0),
      MakeEvent(1, 30, "a", 2, 2)};
  StreamContext::Options options;
  options.window.size = 10;
  options.poll_batch = 1;
  const ReplayRun run = Replay(&ctx_, arrivals, 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.stats.duplicates, 1u);  // t = 7 while [0,10) is open
  EXPECT_EQ(run.stats.accepted, 4u);    // t = 30 after [0,10) fired
  ExpectBooksReconcile(run.stats, arrivals.size());
  ASSERT_EQ(run.Windows().size(), 4u);
  ASSERT_EQ(run.Windows()[0].events.size(), 1u);
  EXPECT_EQ(run.Windows()[0].events[0].event_time(), 5);
  ASSERT_EQ(run.Windows()[3].events.size(), 1u);
  EXPECT_EQ(run.Windows()[3].events[0].id, 1);
  EXPECT_EQ(run.Windows()[3].events[0].event_time(), 30);
}

// The scalar reference keeps every id forever; with a few events per poll,
// windows fire between deliveries, so redeliveries land in every tier. The
// split and the windows must still equal the reference exactly.
TEST_F(StreamIngestTest, SmallPollBatchesMatchTheReferenceInEveryTier) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed * 31 + 5);
    const size_t count = static_cast<size_t>(rng.UniformInt(1, 60));
    const int64_t size = rng.UniformInt(1, 8);
    const int64_t shape = rng.UniformInt(0, 2);  // tumbling, sliding, gaps
    const int64_t slide = shape == 0   ? 0
                          : shape == 1 ? rng.UniformInt(1, size)
                                       : size + rng.UniformInt(1, 4);
    std::vector<StreamEvent> events;
    for (size_t i = 0; i < count; ++i) {
      events.push_back(MakeEvent(static_cast<int64_t>(i),
                                 rng.UniformInt(0, 60), "c",
                                 rng.Uniform(0.0, 10.0), 0.0));
    }
    const int64_t disorder = rng.UniformInt(0, 10);
    const int64_t bound = rng.UniformInt(0, disorder);
    const std::vector<StreamEvent> arrivals = ShuffledArrivals(
        events, seed, disorder, static_cast<size_t>(rng.UniformInt(0, 12)));

    StreamContext::Options options;
    options.window.size = size;
    options.window.slide = slide;
    options.poll_batch = static_cast<size_t>(rng.UniformInt(1, 3));
    options.late_policy =
        seed % 2 == 0 ? LatePolicy::kDrop : LatePolicy::kSideOutput;
    const ReplayRun run = Replay(&ctx_, arrivals, bound, options);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();

    const test::ReferenceReplay ref = ReplayArrivals(arrivals, bound);
    EXPECT_EQ(run.stats.accepted, ref.accepted.size()) << "seed " << seed;
    EXPECT_EQ(run.stats.late, ref.late.size()) << "seed " << seed;
    EXPECT_EQ(run.stats.duplicates, ref.duplicates) << "seed " << seed;
    ExpectBooksReconcile(run.stats, arrivals.size());
    if (shape != 2) {
      EXPECT_EQ(FormatWindows(run.Windows()),
                FormatWindows(BatchWindows(ref.accepted, options.window)))
          << "seed " << seed;
    }
  }
}

// Step() ingesting polled batches under the manager's lock races external
// Ingest() threads. Each id's deliveries carry one time, so every
// redelivery is a duplicate whatever the interleaving, and each window holds
// an id at most once.
TEST_F(StreamIngestTest, BatchIngestRacesExternalIngestThreads) {
  constexpr int kThreads = 2;
  constexpr int kPerThread = 300;
  constexpr int kPolled = 600;

  StreamContext::Options options;
  options.window.size = 20;
  options.late_policy = LatePolicy::kSideOutput;
  options.poll_batch = 16;
  StreamContext sc(&ctx_, options);
  std::vector<StreamEvent> polled;
  size_t redeliveries = 0;
  for (int i = 0; i < kPolled; ++i) {
    polled.push_back(MakeEvent(i, i / 2, "p", 0, 0));
    if (i % 10 == 0) {
      polled.push_back(polled.back());
      ++redeliveries;
    }
  }
  const size_t polled_count = polled.size();
  sc.AddSource(std::make_unique<ScriptedSource>(std::move(polled)),
               /*bound=*/8);
  std::vector<size_t> slots;
  for (int t = 0; t < kThreads; ++t) {
    slots.push_back(sc.AddExternalSource(/*bound=*/8));
  }
  std::set<int64_t> window_starts;
  bool repeated_id = false;
  sc.SetSink([&](const stream::WindowResult& r) {
    window_starts.insert(r.window.start);
    std::set<int64_t> ids;
    for (const auto& e : r.window.events) {
      repeated_id = repeated_id || !ids.insert(e.id).second;
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 41);
      for (int i = 0; i < kPerThread; ++i) {
        const int64_t id = 10'000 * (t + 1) + i;
        const StreamEvent e =
            MakeEvent(id, i + rng.UniformInt(0, 6), "x", 0, 0);
        sc.Ingest(slots[static_cast<size_t>(t)], e);
        if (i % 7 == 0) sc.Ingest(slots[static_cast<size_t>(t)], e);
      }
    });
  }
  while (!sc.AllExhausted()) ASSERT_TRUE(sc.Step().ok());
  for (auto& th : threads) th.join();
  ASSERT_TRUE(sc.FireReady().ok());
  ASSERT_TRUE(sc.Flush().ok());

  const size_t thread_redeliveries = kThreads * ((kPerThread + 6) / 7);
  const stream::StreamStats stats = sc.stats();
  ExpectBooksReconcile(stats,
                       polled_count + kThreads * kPerThread +
                           thread_redeliveries);
  EXPECT_EQ(stats.duplicates, redeliveries + thread_redeliveries);
  EXPECT_EQ(sc.TakeSideOutput().size(), stats.late);
  EXPECT_FALSE(repeated_id);
  const std::vector<int64_t>& starts = sc.delivered_window_starts();
  EXPECT_EQ(starts.size(), window_starts.size());
  EXPECT_TRUE(std::is_sorted(starts.begin(), starts.end()));
}

// An in-order, bound-0 polled source that lags external pushers: every
// watermark any caller can read is at most the polled source's own, so none
// of its events may be judged late, however the external Ingest() calls
// interleave with a polled batch being routed.
TEST_F(StreamIngestTest, LaggingPolledSourceIsNeverLateBehindExternalIngest) {
  constexpr int kThreads = 2;
  constexpr int kPolled = 4000;

  StreamContext::Options options;
  options.window.size = 100;
  options.poll_batch = 32;
  StreamContext sc(&ctx_, options);
  std::vector<StreamEvent> polled;
  for (int i = 0; i < kPolled; ++i) {
    polled.push_back(MakeEvent(i, i, "p", 0, 0));
  }
  sc.AddSource(std::make_unique<ScriptedSource>(std::move(polled)),
               /*bound=*/0);
  std::vector<size_t> slots;
  for (int t = 0; t < kThreads; ++t) {
    slots.push_back(sc.AddExternalSource(/*bound=*/0));
  }

  // The pushers stay far ahead of the polled source in event time until it
  // has drained.
  std::atomic<bool> polled_done{false};
  std::atomic<int> pushing{0};
  std::vector<size_t> pushed(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      size_t& n = pushed[static_cast<size_t>(t)];
      while (!polled_done.load(std::memory_order_acquire)) {
        const int64_t i = static_cast<int64_t>(n++);
        sc.Ingest(slots[static_cast<size_t>(t)],
                  MakeEvent(1'000'000 * (t + 1) + i, 1'000'000 + i, "x", 0, 0));
        if (i == 0) pushing.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }
  // Polling starts once every pusher's watermark is ahead of it.
  while (pushing.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  Status status = Status::OK();
  while (status.ok() && !sc.AllExhausted()) status = sc.Step().status();
  polled_done.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(sc.FireReady().ok());
  ASSERT_TRUE(sc.Flush().ok());

  const stream::StreamStats stats = sc.stats();
  ExpectBooksReconcile(stats, kPolled + pushed[0] + pushed[1]);
  EXPECT_EQ(stats.late, 0u);
  EXPECT_EQ(stats.duplicates, 0u);
}

// ---------------------------------------------------------------------------
// Ingest cost and state, on the window manager alone.
// ---------------------------------------------------------------------------

/// Events i = 0.. at time i, each block of 16 arriving in reverse, so the
/// stream is out of order by up to 15 ticks.
StreamEvent DisorderedEvent(int64_t i) {
  const int64_t block = i / 16;
  const int64_t t = block * 16 + 15 - i % 16;
  return MakeEvent(t, t, "c", 0, 0);
}

/// Feeds \p batches to \p manager as Step() would: per-event watermarks
/// (max seen time minus \p bound, before the event), then every ripe
/// window. Returns the number of windows fired.
size_t Drive(WindowManager* manager,
             std::vector<std::vector<StreamEvent>>* batches,
             std::vector<std::vector<Instant>>* watermarks) {
  size_t fired = 0;
  for (size_t b = 0; b < batches->size(); ++b) {
    manager->IngestBatch(std::move((*batches)[b]), (*watermarks)[b]);
    const Instant w = (*watermarks)[b].back();
    fired += manager->CollectRipe(w).size();
  }
  return fired;
}

void MakeBatches(int64_t begin, int64_t end, int64_t bound, Instant* max_seen,
                 std::vector<std::vector<StreamEvent>>* batches,
                 std::vector<std::vector<Instant>>* watermarks) {
  for (int64_t i = begin; i < end; i += 256) {
    batches->emplace_back();
    watermarks->emplace_back();
    for (int64_t j = i; j < std::min(end, i + 256); ++j) {
      StreamEvent e = DisorderedEvent(j);
      watermarks->back().push_back(
          *max_seen == stream::kMinWatermark ? *max_seen : *max_seen - bound);
      *max_seen = std::max(*max_seen, e.event_time());
      batches->back().push_back(std::move(e));
    }
  }
}

// Clustered ids collide in the table, so erases exercise the backward
// shift across wrapped probe runs; the sentinel id lives beside the table.
TEST(StreamIngestStateTest, IdSetMatchesAnOrderedSetUnderInsertsAndErases) {
  stream::IdSet ids;
  std::set<int64_t> reference;
  Rng rng(9);
  for (int op = 0; op < 200'000; ++op) {
    const int64_t id = rng.UniformInt(0, 3) == 0
                           ? std::numeric_limits<int64_t>::min()
                           : rng.UniformInt(-300, 300) * 1024;
    if (rng.UniformInt(0, 2) == 0) {
      ids.Erase(id);
      reference.erase(id);
    } else {
      ASSERT_EQ(ids.Insert(id), reference.insert(id).second) << "op " << op;
    }
    ASSERT_EQ(ids.size(), reference.size()) << "op " << op;
    const int64_t probe = rng.UniformInt(-300, 300) * 1024;
    ASSERT_EQ(ids.Contains(probe), reference.count(probe) == 1) << "op " << op;
  }
}

TEST(StreamIngestStateTest, TumblingIngestAllocatesPerWindowNotPerEvent) {
  if (!test::kAllocCounterLive) GTEST_SKIP() << "operator new not counted";
  WindowManager manager({/*size=*/100, /*slide=*/0}, LatePolicy::kDrop);
  Instant max_seen = stream::kMinWatermark;
  std::vector<std::vector<StreamEvent>> warm_batches, batches;
  std::vector<std::vector<Instant>> warm_watermarks, watermarks;
  MakeBatches(0, 20'000, 16, &max_seen, &warm_batches, &warm_watermarks);
  MakeBatches(20'000, 60'000, 16, &max_seen, &batches, &watermarks);
  Drive(&manager, &warm_batches, &warm_watermarks);

  const size_t before = test::AllocationsOnThisThread();
  const size_t fired = Drive(&manager, &batches, &watermarks);
  const size_t allocations = test::AllocationsOnThisThread() - before;
  ASSERT_EQ(fired, 400u);
  // Per window: its map node, its fired event vector, and a share of the
  // CollectRipe result vectors and of the archive's doublings. One
  // allocation per event would be 40,000.
  EXPECT_LE(allocations, 4 * fired) << allocations << " allocations";
}

TEST(StreamIngestStateTest, OpenTierHoldsOnlyEventsOfOpenWindows) {
  constexpr int64_t kEvents = 1'000'000;
  WindowManager manager({/*size=*/100, /*slide=*/0}, LatePolicy::kDrop);
  Instant max_seen = stream::kMinWatermark;
  size_t max_open = 0;
  uint64_t accepted = 0;
  std::vector<StreamEvent> batch;
  std::vector<Instant> watermarks;
  for (int64_t i = 0; i < kEvents; i += 256) {
    batch.clear();
    watermarks.clear();
    for (int64_t j = i; j < std::min(kEvents, i + 256); ++j) {
      StreamEvent e = DisorderedEvent(j);
      watermarks.push_back(max_seen == stream::kMinWatermark ? max_seen
                                                             : max_seen - 16);
      max_seen = std::max(max_seen, e.event_time());
      batch.push_back(std::move(e));
      if (j % 1000 == 0) batch.push_back(DisorderedEvent(j / 2));
      if (j % 1000 == 0) watermarks.push_back(max_seen - 16);
    }
    const WindowManager::IngestCounts counts =
        manager.IngestBatch(std::move(batch), watermarks);
    accepted += counts.accepted;
    manager.CollectRipe(watermarks.back());
    const WindowManager::StateSize state = manager.state_size();
    ASSERT_LE(state.open_ids, state.buffered_events) << "at event " << i;
    max_open = std::max(max_open, state.open_ids);
  }
  EXPECT_EQ(accepted, static_cast<uint64_t>(kEvents));
  // A 256-event batch spans at most four 100-tick windows.
  EXPECT_LE(max_open, 400u);
  manager.Flush();
  const WindowManager::StateSize state = manager.state_size();
  EXPECT_EQ(state.open_ids, 0u);
  EXPECT_EQ(state.buffered_events, 0u);
  EXPECT_EQ(state.archived_ids, static_cast<size_t>(kEvents));
}

}  // namespace
}  // namespace stark
