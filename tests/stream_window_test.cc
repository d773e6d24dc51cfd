// Differential tests for event-time windowing: every streaming answer must
// equal a batch recomputation of the same events, byte for byte, for any
// arrival order the watermark bound admits.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stream_test_util.h"

namespace stark {
namespace {

using stream::LatePolicy;
using stream::StreamContext;
using test::BatchWindows;
using test::FormatMatches;
using test::FormatWindows;
using test::MakeEvent;
using test::Replay;
using test::ReplayArrivals;
using test::ReplayRun;
using test::ShuffledArrivals;
using test::StreamEvent;
using test::WindowSpec;

class StreamWindowTest : public ::testing::Test {
 protected:
  Context ctx_{4};
};

std::vector<StreamEvent> SequentialEvents(size_t count, int64_t step = 1) {
  std::vector<StreamEvent> events;
  for (size_t i = 0; i < count; ++i) {
    events.push_back(MakeEvent(static_cast<int64_t>(i),
                               static_cast<int64_t>(i) * step, "cat",
                               static_cast<double>(i % 10),
                               static_cast<double>(i % 7)));
  }
  return events;
}

TEST_F(StreamWindowTest, TumblingWindowsMatchBatchOracle) {
  const std::vector<StreamEvent> events = SequentialEvents(30);
  StreamContext::Options options;
  options.window.size = 10;
  ReplayRun run = Replay(&ctx_, events, 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(FormatWindows(run.Windows()),
            FormatWindows(BatchWindows(events, options.window)));
  EXPECT_EQ(run.stats.accepted, 30u);
  EXPECT_EQ(run.stats.windows_fired, 3u);
}

TEST_F(StreamWindowTest, SlidingWindowsOverlapCorrectly) {
  const std::vector<StreamEvent> events = SequentialEvents(20);
  StreamContext::Options options;
  options.window.size = 10;
  options.window.slide = 5;
  ReplayRun run = Replay(&ctx_, events, 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  const auto oracle = BatchWindows(events, options.window);
  EXPECT_EQ(FormatWindows(run.Windows()), FormatWindows(oracle));
  // An interior event appears in size/slide = 2 windows.
  size_t appearances = 0;
  for (const auto& w : run.Windows()) {
    for (const auto& e : w.events) {
      if (e.id == 12) ++appearances;
    }
  }
  EXPECT_EQ(appearances, 2u);
}

TEST_F(StreamWindowTest, EmptyWindowsBetweenOccupiedOnesFire) {
  // Events at t=1 and t=35 with size-10 tumbling windows: [0,10), [10,20),
  // [20,30), [30,40) all fire; the two middle ones are empty.
  std::vector<StreamEvent> events = {MakeEvent(1, 1, "a", 0, 0),
                                     MakeEvent(2, 35, "a", 1, 1)};
  StreamContext::Options options;
  options.window.size = 10;
  ReplayRun run = Replay(&ctx_, events, 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_EQ(run.Windows().size(), 4u);
  EXPECT_EQ(run.Windows()[1].events.size(), 0u);
  EXPECT_EQ(run.Windows()[2].events.size(), 0u);
  EXPECT_EQ(FormatWindows(run.Windows()),
            FormatWindows(BatchWindows(events, options.window)));
}

TEST_F(StreamWindowTest, BoundaryEventsLandInHalfOpenWindows) {
  // Half-open [start, start+size): an event exactly at a boundary belongs
  // to the window that starts there, never the one that ends there.
  std::vector<StreamEvent> events = {
      MakeEvent(1, 0, "a", 0, 0),  MakeEvent(2, 9, "a", 0, 0),
      MakeEvent(3, 10, "a", 0, 0), MakeEvent(4, 19, "a", 0, 0),
      MakeEvent(5, 20, "a", 0, 0),
  };
  StreamContext::Options options;
  options.window.size = 10;
  ReplayRun run = Replay(&ctx_, events, 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_EQ(run.Windows().size(), 3u);
  EXPECT_EQ(run.Windows()[0].events.size(), 2u);  // t=0, t=9
  EXPECT_EQ(run.Windows()[1].events.size(), 2u);  // t=10, t=19
  EXPECT_EQ(run.Windows()[2].events.size(), 1u);  // t=20
  EXPECT_EQ(FormatWindows(run.Windows()),
            FormatWindows(BatchWindows(events, options.window)));
}

TEST_F(StreamWindowTest, OutOfOrderWithinBoundLosesNothing) {
  const std::vector<StreamEvent> events = SequentialEvents(50);
  const std::vector<StreamEvent> arrivals = ShuffledArrivals(events, 7, 5);
  StreamContext::Options options;
  options.window.size = 8;
  ReplayRun run = Replay(&ctx_, arrivals, /*bound=*/5, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.stats.late, 0u);
  EXPECT_EQ(FormatWindows(run.Windows()),
            FormatWindows(BatchWindows(events, options.window)));
}

TEST_F(StreamWindowTest, LateEventsAreDroppedUnderDropPolicy) {
  // In-order burst to t=20, then a straggler at t=3: with bound 2 the
  // watermark is 18, so the straggler is late and its windows are unchanged.
  std::vector<StreamEvent> arrivals = SequentialEvents(21);
  arrivals.push_back(MakeEvent(100, 3, "late", 0, 0));
  StreamContext::Options options;
  options.window.size = 5;
  ReplayRun run = Replay(&ctx_, arrivals, /*bound=*/2, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.stats.late, 1u);
  EXPECT_EQ(run.stats.dropped, 1u);
  EXPECT_EQ(run.stats.side_output, 0u);
  EXPECT_EQ(FormatWindows(run.Windows()),
            FormatWindows(BatchWindows(SequentialEvents(21), options.window)));
}

TEST_F(StreamWindowTest, LateEventsGoToSideOutputUnderSideOutputPolicy) {
  std::vector<StreamEvent> arrivals = SequentialEvents(21);
  arrivals.push_back(MakeEvent(100, 3, "late", 0, 0));
  StreamContext::Options options;
  options.window.size = 5;
  options.late_policy = LatePolicy::kSideOutput;
  ReplayRun run = Replay(&ctx_, arrivals, /*bound=*/2, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.stats.late, 1u);
  EXPECT_EQ(run.stats.dropped, 0u);
  EXPECT_EQ(run.stats.side_output, 1u);
  ASSERT_EQ(run.side_output.size(), 1u);
  EXPECT_EQ(run.side_output[0].id, 100);
}

TEST_F(StreamWindowTest, DuplicateDeliveriesAreSuppressed) {
  std::vector<StreamEvent> arrivals = SequentialEvents(10);
  arrivals.push_back(arrivals[3]);  // redeliver id 3
  arrivals.push_back(arrivals[7]);  // and id 7
  StreamContext::Options options;
  options.window.size = 4;
  ReplayRun run = Replay(&ctx_, arrivals, 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.stats.duplicates, 2u);
  EXPECT_EQ(run.stats.accepted, 10u);
  EXPECT_EQ(FormatWindows(run.Windows()),
            FormatWindows(BatchWindows(SequentialEvents(10), options.window)));
}

TEST_F(StreamWindowTest, EmptyStreamFiresNothing) {
  StreamContext::Options options;
  options.window.size = 10;
  ReplayRun run = Replay(&ctx_, {}, 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_TRUE(run.results.empty());
  EXPECT_EQ(run.stats.ingested, 0u);
}

// The headline differential: >= 1k seeded cases across window shapes,
// disorder levels, duplicate injections and late stragglers. For every case
// the streaming windows must equal the batch oracle applied to the events
// the scalar reference replay accepts — byte-identical, empty windows and
// boundary events included.
TEST_F(StreamWindowTest, ThousandShuffledArrivalCasesMatchBatchOracle) {
  size_t pattern_cases = 0;
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed * 7919 + 13);
    const size_t count = static_cast<size_t>(rng.UniformInt(0, 40));
    const int64_t size = rng.UniformInt(1, 16);
    const int64_t slide = rng.UniformInt(0, 1) ? rng.UniformInt(1, size) : 0;
    const int64_t disorder = rng.UniformInt(0, 8);
    // Half the cases give the watermark enough slack for the disorder
    // (nothing late); the other half run a tighter bound so real late
    // events exercise the drop path.
    const int64_t bound =
        rng.UniformInt(0, 1) ? disorder : rng.UniformInt(0, disorder);

    std::vector<StreamEvent> events;
    const char* const cats[] = {"a", "b", "c"};
    for (size_t i = 0; i < count; ++i) {
      events.push_back(MakeEvent(
          static_cast<int64_t>(i), rng.UniformInt(0, 20 * size),
          cats[rng.UniformInt(0, 2)], rng.Uniform(0.0, 100.0),
          rng.Uniform(0.0, 100.0)));
    }
    const size_t duplicates = static_cast<size_t>(rng.UniformInt(0, 3));
    const std::vector<StreamEvent> arrivals =
        ShuffledArrivals(events, seed, disorder, duplicates);

    StreamContext::Options options;
    options.window.size = size;
    options.window.slide = slide;
    const bool with_pattern = seed % 4 == 0;
    stream::PatternSpec pattern;
    if (with_pattern) {
      pattern.kind = stream::PatternKind::kCount;
      stream::StepPredicate step;
      step.category = "a";
      step.region = STObject(
          Geometry::MakeBox(Envelope(rng.Uniform(0.0, 50.0),
                                     rng.Uniform(0.0, 50.0), 100.0, 100.0)));
      step.pred = JoinPredicate::Intersects();
      pattern.steps.push_back(step);
      pattern.threshold = 1;
      options.pattern = pattern;
      ++pattern_cases;
    }

    ReplayRun run = Replay(&ctx_, arrivals, bound, options);
    ASSERT_TRUE(run.status.ok())
        << "seed " << seed << ": " << run.status.ToString();

    const test::ReferenceReplay ref = ReplayArrivals(arrivals, bound);
    const auto oracle = BatchWindows(ref.accepted, options.window);
    ASSERT_EQ(FormatWindows(run.Windows()), FormatWindows(oracle))
        << "seed " << seed << " size=" << size << " slide=" << slide
        << " disorder=" << disorder << " bound=" << bound;

    // Books reconcile: every delivery is accounted for exactly once.
    EXPECT_EQ(run.stats.ingested, arrivals.size()) << "seed " << seed;
    EXPECT_EQ(run.stats.accepted, ref.accepted.size()) << "seed " << seed;
    EXPECT_EQ(run.stats.late, ref.late.size()) << "seed " << seed;
    EXPECT_EQ(run.stats.duplicates, ref.duplicates) << "seed " << seed;
    EXPECT_EQ(run.stats.ingested,
              run.stats.accepted + run.stats.late + run.stats.duplicates)
        << "seed " << seed;

    if (with_pattern) {
      std::vector<stream::PatternMatch> expected;
      for (const auto& w : oracle) {
        const auto ref_matches = test::ReferencePattern(pattern, w);
        expected.insert(expected.end(), ref_matches.begin(),
                        ref_matches.end());
      }
      ASSERT_EQ(FormatMatches(run.Matches()), FormatMatches(expected))
          << "seed " << seed;
    }
  }
  EXPECT_GE(pattern_cases, 200u);
}

// GeneratorSource builds its arrival schedule once, at construction; a
// fixed seed's schedule is pinned by a digest over every event's id, time,
// category and coordinate bits, in arrival order, duplicates included.
TEST(GeneratorScheduleTest, FixedSeedScheduleIsByteIdentical) {
  stream::GeneratorOptions options;
  options.count = 2000;
  options.seed = 7;
  options.time_step = 3;
  options.disorder = 9;
  options.duplicate_probability = 0.1;
  stream::GeneratorSource source(options);
  const std::vector<StreamEvent> schedule =
      source.Poll(source.schedule_size());
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&digest](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      digest = (digest ^ ((v >> (8 * b)) & 0xff)) * 1099511628211ULL;
    }
  };
  for (const StreamEvent& e : schedule) {
    mix(static_cast<uint64_t>(e.id));
    mix(static_cast<uint64_t>(e.event_time()));
    for (const char c : e.category) mix(static_cast<unsigned char>(c));
    const Envelope env = e.obj.envelope();
    for (const double v : {env.min_x(), env.min_y()}) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    }
  }
  EXPECT_EQ(schedule.size(), 2186u);
  EXPECT_EQ(digest, 0xa04b16698d5d964aULL);
  // Reset replays the same schedule.
  source.Reset();
  EXPECT_EQ(test::FormatWindow({0, 0, source.Poll(schedule.size())}),
            test::FormatWindow({0, 0, schedule}));
}

}  // namespace
}  // namespace stark
