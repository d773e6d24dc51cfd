// CEP operator tests: the DCORE exemplar stream (SEQ with filters over a
// temperature/humidity stream), plus the algebraic properties the operators
// must satisfy — absence == zero-count, sequence matches time-ordered and
// span-bounded, duplicates never double-fire an exactly-once sink — and a
// differential check of the tree-accelerated match path against the scalar
// reference.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "stream_test_util.h"

namespace stark {
namespace {

using stream::PatternKind;
using stream::PatternSpec;
using stream::StepPredicate;
using stream::StreamContext;
using test::BatchWindows;
using test::FormatMatches;
using test::MakeEvent;
using test::Replay;
using test::ReplayRun;
using test::ShuffledArrivals;
using test::StreamEvent;

class CepTest : public ::testing::Test {
 protected:
  Context ctx_{4};
};

// Randomly-timed events delivered in event-time order, so nothing is late
// against a zero watermark bound and the batch oracle sees every event.
std::vector<StreamEvent> TimeOrdered(std::vector<StreamEvent> events) {
  std::sort(events.begin(), events.end(), stream::CanonicalLess);
  return events;
}

// The DCORE execution-time exemplar: a sensor stream interleaving
// temperature (T) and humidity (H) readings,
//   T;0:0:0;-2  H;0:0:1;30  H;0:0:2;20  H;0:0:3;10
//   H;0:0:4;65  T;0:0:5;-5  H;0:0:6;10  H;0:0:7;70
// matched against (T as t1 ; H+ as hs ; H as h1) FILTER (t1[temp<0] AND
// hs[hum<60] AND h1[hum>60]). The attribute filters partition the events
// into categories up front (cold T, dry H, wet H), so the query becomes a
// three-step SEQ over categories.
std::vector<StreamEvent> DcoreStream() {
  auto sensor = [](int64_t id, Instant t, double reading, bool is_temp) {
    const bool cold = is_temp && reading < 0;
    const bool dry = !is_temp && reading < 60;
    const std::string cat = is_temp ? (cold ? "t_cold" : "t_warm")
                                    : (dry ? "h_dry" : "h_wet");
    // The reading rides along as the x coordinate; y pins the sensor site.
    return MakeEvent(id, t, cat, reading, 41.4);
  };
  return {
      sensor(1, 0, -2, true), sensor(2, 1, 30, false),
      sensor(3, 2, 20, false), sensor(4, 3, 10, false),
      sensor(5, 4, 65, false), sensor(6, 5, -5, true),
      sensor(7, 6, 10, false), sensor(8, 7, 70, false),
  };
}

PatternSpec DcorePattern(int64_t within) {
  PatternSpec spec;
  spec.kind = PatternKind::kSequence;
  spec.within = within;
  for (const char* cat : {"t_cold", "h_dry", "h_wet"}) {
    StepPredicate step;
    step.category = cat;
    spec.steps.push_back(step);
  }
  return spec;
}

TEST_F(CepTest, DcoreExemplarSequenceMatches) {
  StreamContext::Options options;
  options.window.size = 10;
  options.pattern = DcorePattern(/*within=*/0);
  ReplayRun run = Replay(&ctx_, DcoreStream(), 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  // Every (cold T, dry H, wet H) triple with strictly increasing times:
  // T@0 pairs with dry {1,2,3} x wet {4,7} plus dry 6 x wet 7 = 7;
  // T@5 pairs with dry 6 x wet 7 = 1.
  ASSERT_EQ(run.Matches().size(), 8u);
  for (const auto& m : run.Matches()) {
    ASSERT_EQ(m.events.size(), 3u);
    EXPECT_EQ(m.events[0].category, "t_cold");
    EXPECT_EQ(m.events[1].category, "h_dry");
    EXPECT_EQ(m.events[2].category, "h_wet");
    EXPECT_LT(m.events[0].event_time(), m.events[1].event_time());
    EXPECT_LT(m.events[1].event_time(), m.events[2].event_time());
  }
}

TEST_F(CepTest, DcoreExemplarWithinBoundPrunesWideTuples) {
  StreamContext::Options options;
  options.window.size = 10;
  options.pattern = DcorePattern(/*within=*/4);
  ReplayRun run = Replay(&ctx_, DcoreStream(), 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  // Span <= 4 keeps (0,1,4), (0,2,4), (0,3,4) and (5,6,7).
  ASSERT_EQ(run.Matches().size(), 4u);
  for (const auto& m : run.Matches()) {
    EXPECT_LE(m.events.back().event_time() - m.events.front().event_time(),
              4);
  }
}

TEST_F(CepTest, DcoreExemplarSurvivesOutOfOrderReplay) {
  const std::vector<StreamEvent> events = DcoreStream();
  StreamContext::Options options;
  options.window.size = 10;
  options.pattern = DcorePattern(0);
  const ReplayRun in_order = Replay(&ctx_, events, 0, options);
  ASSERT_TRUE(in_order.status.ok());
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const ReplayRun shuffled =
        Replay(&ctx_, ShuffledArrivals(events, seed, 3), /*bound=*/3,
               options);
    ASSERT_TRUE(shuffled.status.ok()) << shuffled.status.ToString();
    EXPECT_EQ(FormatMatches(shuffled.Matches()),
              FormatMatches(in_order.Matches()))
        << "seed " << seed;
  }
}

// Property: absence(p) fires on exactly the windows where count(p) == 0.
TEST_F(CepTest, AbsenceFiresIffCountIsZero) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed + 500);
    std::vector<StreamEvent> events;
    const size_t count = static_cast<size_t>(rng.UniformInt(1, 30));
    const char* const cats[] = {"p", "q"};
    for (size_t i = 0; i < count; ++i) {
      events.push_back(MakeEvent(static_cast<int64_t>(i),
                                 rng.UniformInt(0, 60),
                                 cats[rng.UniformInt(0, 1)],
                                 rng.Uniform(0.0, 100.0),
                                 rng.Uniform(0.0, 100.0)));
    }
    StreamContext::Options absent;
    absent.window.size = 10;
    absent.pattern = PatternSpec{};
    absent.pattern->kind = PatternKind::kAbsence;
    absent.pattern->steps.push_back(StepPredicate{"p", {}, {}});

    StreamContext::Options count_zero;
    count_zero.window.size = 10;
    count_zero.pattern = PatternSpec{};
    count_zero.pattern->kind = PatternKind::kCount;
    count_zero.pattern->cmp = stream::CountCmp::kEq;
    count_zero.pattern->threshold = 0;
    count_zero.pattern->steps.push_back(StepPredicate{"p", {}, {}});

    const ReplayRun a = Replay(&ctx_, events, 0, absent);
    const ReplayRun c = Replay(&ctx_, events, 0, count_zero);
    ASSERT_TRUE(a.status.ok() && c.status.ok());
    std::vector<int64_t> absent_windows, zero_windows;
    for (const auto& m : a.Matches()) absent_windows.push_back(m.window_start);
    for (const auto& m : c.Matches()) zero_windows.push_back(m.window_start);
    EXPECT_EQ(absent_windows, zero_windows) << "seed " << seed;
  }
}

// Property: every SEQ match is time-ordered and spans at most WITHIN, and
// the engine-parallel evaluation equals the brute-force scalar reference.
TEST_F(CepTest, SequenceMatchesAreOrderedBoundedAndEqualReference) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed * 31 + 7);
    std::vector<StreamEvent> events;
    const size_t count = static_cast<size_t>(rng.UniformInt(3, 25));
    const char* const cats[] = {"a", "b", "c"};
    for (size_t i = 0; i < count; ++i) {
      events.push_back(MakeEvent(static_cast<int64_t>(i),
                                 rng.UniformInt(0, 40),
                                 cats[rng.UniformInt(0, 2)],
                                 rng.Uniform(0.0, 100.0),
                                 rng.Uniform(0.0, 100.0)));
    }
    const int64_t within = rng.UniformInt(1, 12);
    PatternSpec pattern;
    pattern.kind = PatternKind::kSequence;
    pattern.within = within;
    pattern.steps.push_back(StepPredicate{"a", {}, {}});
    pattern.steps.push_back(StepPredicate{"b", {}, {}});

    StreamContext::Options options;
    options.window.size = 15;
    options.pattern = pattern;
    const ReplayRun run = Replay(&ctx_, TimeOrdered(events), 0, options);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    for (const auto& m : run.Matches()) {
      ASSERT_EQ(m.events.size(), 2u);
      EXPECT_LT(m.events[0].event_time(), m.events[1].event_time());
      EXPECT_LE(m.events[1].event_time() - m.events[0].event_time(), within);
    }
    std::vector<stream::PatternMatch> expected;
    for (const auto& w : BatchWindows(events, options.window)) {
      const auto ref = test::ReferencePattern(pattern, w);
      expected.insert(expected.end(), ref.begin(), ref.end());
    }
    ASSERT_EQ(FormatMatches(run.Matches()), FormatMatches(expected))
        << "seed " << seed;
  }
}

// Property: duplicate deliveries never double-fire the sink — the match set
// is identical to the clean replay and no window start is delivered twice.
TEST_F(CepTest, DuplicatesNeverDoubleFireExactlyOnceSink) {
  const std::vector<StreamEvent> events = DcoreStream();
  StreamContext::Options options;
  options.window.size = 10;
  options.pattern = DcorePattern(0);
  const ReplayRun clean = Replay(&ctx_, events, 0, options);
  ASSERT_TRUE(clean.status.ok());

  for (uint64_t seed = 0; seed < 20; ++seed) {
    const std::vector<StreamEvent> arrivals =
        ShuffledArrivals(events, seed, 0, /*duplicates=*/4);
    stream::StreamContext sc(&ctx_, options);
    sc.AddSource(std::make_unique<test::ScriptedSource>(arrivals), 0);
    std::vector<stream::PatternMatch> matches;
    sc.SetSink([&matches](const stream::WindowResult& r) {
      matches.insert(matches.end(), r.matches.begin(), r.matches.end());
    });
    ASSERT_TRUE(sc.RunToCompletion().ok());
    EXPECT_EQ(sc.stats().duplicates, 4u) << "seed " << seed;
    EXPECT_EQ(FormatMatches(matches), FormatMatches(clean.Matches()))
        << "seed " << seed;
    // The exactly-once ledger is strictly increasing: no loss, no repeat.
    const std::vector<int64_t>& starts = sc.delivered_window_starts();
    for (size_t i = 1; i < starts.size(); ++i) {
      EXPECT_LT(starts[i - 1], starts[i]);
    }
  }
}

// The tree-accelerated region match (PackedRTree candidates + BoundPredicate
// refinement, engaged above the pool-size threshold) must be exact: equal to
// the brute-force scalar evaluation of the same window.
TEST_F(CepTest, TreeAcceleratedRegionMatchEqualsScalarReference) {
  Rng rng(1234);
  std::vector<StreamEvent> events;
  for (size_t i = 0; i < 300; ++i) {
    events.push_back(MakeEvent(static_cast<int64_t>(i), rng.UniformInt(0, 9),
                               "ping", rng.Uniform(0.0, 100.0),
                               rng.Uniform(0.0, 100.0)));
  }
  PatternSpec pattern;
  pattern.kind = PatternKind::kCount;
  pattern.threshold = 1;
  StepPredicate step;
  step.category = "ping";
  step.region = STObject(Geometry::MakeBox(Envelope(20, 20, 60, 60)));
  step.pred = JoinPredicate::Intersects();
  pattern.steps.push_back(step);

  StreamContext::Options options;
  options.window.size = 10;
  options.pattern = pattern;

  obs::Counter* const probes =
      obs::DefaultMetrics().GetCounter("stream.cep.tree_probes");
  const uint64_t probes_before = probes->Value();
  const ReplayRun run = Replay(&ctx_, TimeOrdered(events), 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_GT(probes->Value(), probes_before);  // the tree path actually ran

  std::vector<stream::PatternMatch> expected;
  for (const auto& w : BatchWindows(events, options.window)) {
    const auto ref = test::ReferencePattern(pattern, w);
    expected.insert(expected.end(), ref.begin(), ref.end());
  }
  ASSERT_EQ(FormatMatches(run.Matches()), FormatMatches(expected));
}

// WITHINDISTANCE region steps run through the same refinement with an
// envelope margin; exactness must hold there too.
TEST_F(CepTest, DistanceRegionMatchEqualsScalarReference) {
  Rng rng(99);
  std::vector<StreamEvent> events;
  for (size_t i = 0; i < 120; ++i) {
    events.push_back(MakeEvent(static_cast<int64_t>(i), rng.UniformInt(0, 4),
                               "ping", rng.Uniform(0.0, 100.0),
                               rng.Uniform(0.0, 100.0)));
  }
  PatternSpec pattern;
  pattern.kind = PatternKind::kCount;
  pattern.threshold = 1;
  StepPredicate step;
  step.category = "ping";
  step.region = STObject(Geometry::MakePoint({50, 50}));
  step.pred = JoinPredicate::WithinDistance(15.0);
  pattern.steps.push_back(step);

  StreamContext::Options options;
  options.window.size = 5;
  options.pattern = pattern;
  const ReplayRun run = Replay(&ctx_, TimeOrdered(events), 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();

  std::vector<stream::PatternMatch> expected;
  for (const auto& w : BatchWindows(events, options.window)) {
    const auto ref = test::ReferencePattern(pattern, w);
    expected.insert(expected.end(), ref.begin(), ref.end());
  }
  ASSERT_EQ(FormatMatches(run.Matches()), FormatMatches(expected));
}

// A region literal that carries a time window engages the combined
// spatio-temporal predicate semantics: an event outside the region's time
// interval must not match even when it is inside spatially.
TEST_F(CepTest, TimedRegionConstrainsTemporally) {
  std::vector<StreamEvent> events = {
      MakeEvent(1, 2, "ping", 50, 50),   // in region, in time
      MakeEvent(2, 8, "ping", 50, 50),   // in region, out of time
      MakeEvent(3, 3, "ping", 90, 90),   // out of region, in time
  };
  auto region = STObject::FromWkt("POLYGON((40 40, 60 40, 60 60, 40 60, 40 40))",
                                  0, 5);
  ASSERT_TRUE(region.ok());
  PatternSpec pattern;
  pattern.kind = PatternKind::kCount;
  pattern.threshold = 1;
  StepPredicate step;
  step.category = "ping";
  step.region = region.ValueOrDie();
  pattern.steps.push_back(step);

  StreamContext::Options options;
  options.window.size = 10;
  options.pattern = pattern;
  const ReplayRun run = Replay(&ctx_, events, 0, options);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  ASSERT_EQ(run.Matches().size(), 1u);
  ASSERT_EQ(run.Matches()[0].events.size(), 1u);
  EXPECT_EQ(run.Matches()[0].events[0].id, 1);
}

// ---------------------------------------------------------------------------
// Window job sizing: a window job gets one task per kEventsPerWindowTask
// events, clamped to [1, parallelism]; an explicit tasks_per_window wins.
// The split must never show in the answer.
// ---------------------------------------------------------------------------

TEST(WindowJobTasksTest, SizesToEventsAndHonoursAnExplicitCount) {
  using stream::kEventsPerWindowTask;
  using stream::WindowJobTasks;
  EXPECT_EQ(WindowJobTasks(0, 0, 4), 1u);
  EXPECT_EQ(WindowJobTasks(100, 0, 4), 1u);
  EXPECT_EQ(WindowJobTasks(kEventsPerWindowTask, 0, 4), 1u);
  EXPECT_EQ(WindowJobTasks(kEventsPerWindowTask + 1, 0, 4), 2u);
  EXPECT_EQ(WindowJobTasks(2 * kEventsPerWindowTask + 1, 0, 4), 3u);
  EXPECT_EQ(WindowJobTasks(100 * kEventsPerWindowTask, 0, 4), 4u);
  EXPECT_EQ(WindowJobTasks(100 * kEventsPerWindowTask, 0, 0), 1u);
  // An explicit count wins over the sizing rule and the parallelism, but
  // never exceeds one task per event.
  EXPECT_EQ(WindowJobTasks(100, 4, 2), 4u);
  EXPECT_EQ(WindowJobTasks(3, 4, 2), 3u);
  EXPECT_EQ(WindowJobTasks(0, 4, 2), 1u);
}

class WindowJobSizingTest : public ::testing::Test {
 protected:
  /// Engine jobs and tasks one replay ran, from the global counters.
  struct JobCounts {
    uint64_t jobs = 0;
    uint64_t tasks = 0;
  };

  static JobCounts CountJobs(Context* ctx,
                             const std::vector<StreamEvent>& arrivals,
                             int64_t bound,
                             const StreamContext::Options& options,
                             ReplayRun* run) {
    obs::Counter* const jobs = obs::DefaultMetrics().GetCounter("engine.jobs");
    obs::Counter* const tasks =
        obs::DefaultMetrics().GetCounter("engine.tasks");
    const JobCounts before{jobs->Value(), tasks->Value()};
    *run = Replay(ctx, arrivals, bound, options);
    return {jobs->Value() - before.jobs, tasks->Value() - before.tasks};
  }

  /// The run's windows and matches equal a one-thread replay's and the
  /// batch oracle's.
  static void ExpectSameAnswer(const ReplayRun& run,
                               const std::vector<StreamEvent>& events,
                               const std::vector<StreamEvent>& arrivals,
                               int64_t bound,
                               const StreamContext::Options& options) {
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    Context single(1);
    const ReplayRun reference = Replay(&single, arrivals, bound, options);
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
    const auto oracle = BatchWindows(events, options.window);
    const std::string windows = test::FormatWindows(run.Windows());
    EXPECT_EQ(windows, test::FormatWindows(reference.Windows()));
    EXPECT_EQ(windows, test::FormatWindows(oracle));
    std::vector<stream::PatternMatch> expected;
    if (options.pattern.has_value()) {
      for (const auto& w : oracle) {
        const auto ref = test::ReferencePattern(*options.pattern, w);
        expected.insert(expected.end(), ref.begin(), ref.end());
      }
    }
    const std::string matches = FormatMatches(run.Matches());
    EXPECT_EQ(matches, FormatMatches(reference.Matches()));
    EXPECT_EQ(matches, FormatMatches(expected));
  }

  /// \p count events at times 0..count-1 (ids equal to times), categories
  /// alternating a/b, seeded positions.
  static std::vector<StreamEvent> Events(size_t count, uint64_t seed) {
    Rng rng(seed);
    std::vector<StreamEvent> events;
    events.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      events.push_back(MakeEvent(static_cast<int64_t>(i),
                                 static_cast<Instant>(i), i % 2 ? "b" : "a",
                                 rng.Uniform(0.0, 100.0),
                                 rng.Uniform(0.0, 100.0)));
    }
    return events;
  }

  static PatternSpec CountPattern() {
    PatternSpec pattern;
    pattern.kind = PatternKind::kCount;
    pattern.threshold = 1;
    StepPredicate step;
    step.category = "a";
    step.region = STObject(Geometry::MakeBox(Envelope(20, 20, 70, 70)));
    step.pred = JoinPredicate::Intersects();
    pattern.steps.push_back(step);
    return pattern;
  }
};

TEST_F(WindowJobSizingTest, SmallWindowsRunOneTaskPerStep) {
  const std::vector<StreamEvent> events = Events(400, 5);
  const std::vector<StreamEvent> arrivals = ShuffledArrivals(events, 5, 6);
  Context ctx(4);
  // A two-step SEQ: one job per step per window, each a single task.
  StreamContext::Options options;
  options.window.size = 100;
  options.pattern = PatternSpec();
  options.pattern->kind = PatternKind::kSequence;
  options.pattern->within = 3;
  for (const char* cat : {"a", "b"}) {
    StepPredicate step;
    step.category = cat;
    step.region = STObject(Geometry::MakeBox(Envelope(0, 0, 60, 60)));
    options.pattern->steps.push_back(step);
  }
  ReplayRun run;
  const JobCounts counts = CountJobs(&ctx, arrivals, 6, options, &run);
  ExpectSameAnswer(run, events, arrivals, 6, options);
  ASSERT_EQ(run.stats.windows_fired, 4u);
  EXPECT_EQ(counts.jobs, 4u * 2u);
  EXPECT_EQ(counts.tasks, counts.jobs);

  // Without a pattern each window is still one engine job of one task.
  options.pattern.reset();
  const JobCounts bare = CountJobs(&ctx, arrivals, 6, options, &run);
  ExpectSameAnswer(run, events, arrivals, 6, options);
  EXPECT_EQ(bare.jobs, 4u);
  EXPECT_EQ(bare.tasks, bare.jobs);
}

TEST_F(WindowJobSizingTest, BigWindowFansOutToAtMostParallelism) {
  // One window of more than two tasks' worth of events: ceil(n / 4096) = 3
  // tasks, clamped by the context's parallelism.
  const size_t n = 2 * stream::kEventsPerWindowTask + 100;
  const std::vector<StreamEvent> events = Events(n, 11);
  const std::vector<StreamEvent> arrivals = ShuffledArrivals(events, 11, 8);
  StreamContext::Options options;
  options.window.size = static_cast<int64_t>(n);
  options.pattern = CountPattern();
  for (const size_t parallelism : {2u, 4u}) {
    Context ctx(parallelism);
    ReplayRun run;
    const JobCounts counts = CountJobs(&ctx, arrivals, 8, options, &run);
    ExpectSameAnswer(run, events, arrivals, 8, options);
    ASSERT_EQ(run.stats.windows_fired, 1u);
    EXPECT_EQ(counts.jobs, 1u);
    EXPECT_EQ(counts.tasks, std::min<size_t>(parallelism, 3))
        << "parallelism " << parallelism;
  }
}

TEST_F(WindowJobSizingTest, ExplicitTasksPerWindowStillWins) {
  const std::vector<StreamEvent> events = Events(300, 17);
  const std::vector<StreamEvent> arrivals = ShuffledArrivals(events, 17, 4);
  Context ctx(2);
  StreamContext::Options options;
  options.window.size = 100;
  options.pattern = CountPattern();
  options.tasks_per_window = 4;
  ReplayRun run;
  const JobCounts counts = CountJobs(&ctx, arrivals, 4, options, &run);
  ExpectSameAnswer(run, events, arrivals, 4, options);
  ASSERT_EQ(run.stats.windows_fired, 3u);
  EXPECT_EQ(counts.jobs, 3u);
  EXPECT_EQ(counts.tasks, 3u * 4u);
}

}  // namespace
}  // namespace stark
