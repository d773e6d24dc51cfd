// Tests for the indexed join engine: cached-index joins that reuse the
// trees built by Index() (differential against the live join), the
// broadcast strategy, skew-aware sub-range splitting (visible as per-pair
// trace spans), and the engine.join.* metrics.
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/job_control.h"
#include "fault/failpoint.h"
#include "io/generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/explicit_partitioner.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/join.h"
#include "test_util.h"

namespace stark {
namespace {

using Pair = std::pair<int64_t, int64_t>;

/// Plain-value observation of the engine.join.* counters.
struct JoinSnap {
  uint64_t pairs_enumerated = 0;
  uint64_t pairs_pruned = 0;
  uint64_t pairs_split = 0;
  uint64_t subtasks = 0;
  uint64_t tree_builds = 0;
  uint64_t tree_reuse_hits = 0;
  uint64_t broadcast_joins = 0;
  uint64_t prefilter_skips = 0;
};

JoinSnap SnapJoinMetrics() {
  const JoinMetricSet& m = GlobalJoinMetrics();
  JoinSnap s;
  s.pairs_enumerated = m.pairs_enumerated->Value();
  s.pairs_pruned = m.pairs_pruned->Value();
  s.pairs_split = m.pairs_split->Value();
  s.subtasks = m.subtasks->Value();
  s.tree_builds = m.tree_builds->Value();
  s.tree_reuse_hits = m.tree_reuse_hits->Value();
  s.broadcast_joins = m.broadcast_joins->Value();
  s.prefilter_skips = m.prefilter_skips->Value();
  return s;
}

class IndexedJoinTest : public ::testing::Test {
 protected:
  IndexedJoinTest() {
    SkewedPointsOptions gen;
    gen.count = 400;
    gen.universe = universe_;
    gen.seed = 71;
    auto pts = GenerateSkewedPoints(gen);
    for (size_t i = 0; i < pts.size(); ++i) {
      left_.emplace_back(pts[i], static_cast<int64_t>(i));
    }
    PolygonsOptions pgen;
    pgen.count = 60;
    pgen.universe = universe_;
    pgen.seed = 72;
    pgen.min_radius = 2;
    pgen.max_radius = 8;
    auto polys = GenerateRandomPolygons(pgen);
    for (size_t i = 0; i < polys.size(); ++i) {
      right_.emplace_back(polys[i], static_cast<int64_t>(i));
    }
  }

  std::set<Pair> BruteForce(const JoinPredicate& pred) const {
    std::set<Pair> out;
    for (const auto& [lo, lid] : left_) {
      for (const auto& [ro, rid] : right_) {
        if (pred.Eval(lo, ro)) out.emplace(lid, rid);
      }
    }
    return out;
  }

  template <typename JoinedRdd>
  static std::set<Pair> Ids(const JoinedRdd& rdd) {
    std::set<Pair> out;
    for (const auto& [l, r] : rdd.Collect()) {
      auto [it, inserted] = out.emplace(l.second, r.second);
      EXPECT_TRUE(inserted) << "duplicate join result (" << l.second << ", "
                            << r.second << ")";
    }
    return out;
  }

  Envelope universe_ = Envelope(0, 0, 100, 100);
  Context ctx_{4};
  std::vector<std::pair<STObject, int64_t>> left_;
  std::vector<std::pair<STObject, int64_t>> right_;
};

TEST_F(IndexedJoinTest, CachedIndexJoinMatchesLiveJoinWithoutTreeBuilds) {
  auto grid_l = std::make_shared<GridPartitioner>(universe_, 4);
  auto grid_r = std::make_shared<GridPartitioner>(universe_, 3);
  auto l =
      SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3).PartitionBy(grid_l);
  auto r =
      SpatialRDD<int64_t>::FromVector(&ctx_, right_, 2).PartitionBy(grid_r);

  IndexedSpatialRDD<int64_t> indexed = l.Index(8);
  indexed.trees().Count();  // materialize the cached trees up front

  for (const JoinPredicate& pred :
       {JoinPredicate::Intersects(), JoinPredicate::ContainedBy(),
        JoinPredicate::WithinDistance(2.5)}) {
    const auto live = Ids(SpatialJoin(l, r, pred));
    const JoinSnap before = SnapJoinMetrics();
    const auto cached = Ids(SpatialJoin(indexed, r, pred));
    const JoinSnap after = SnapJoinMetrics();
    EXPECT_EQ(cached, live) << PredicateName(pred.type);
    EXPECT_EQ(cached, BruteForce(pred)) << PredicateName(pred.type);
    // The cached path never builds a tree; every probed tree is a reuse.
    EXPECT_EQ(after.tree_builds, before.tree_builds)
        << PredicateName(pred.type);
    EXPECT_GT(after.tree_reuse_hits, before.tree_reuse_hits)
        << PredicateName(pred.type);
    // Extents captured at indexing time still prune partition pairs.
    EXPECT_GT(after.pairs_pruned, before.pairs_pruned)
        << PredicateName(pred.type);
  }
}

TEST_F(IndexedJoinTest, CachedIndexJoinNonPrunablePredicateScansTrees) {
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3);
  auto r = SpatialRDD<int64_t>::FromVector(&ctx_, right_, 2);
  IndexedSpatialRDD<int64_t> indexed = l.Index(8);
  indexed.trees().Count();

  // A custom distance function (not promised euclidean-compatible) cannot
  // use envelope candidate pruning — the cached path must still answer
  // correctly, by scanning the trees, without building anything.
  const auto pred = JoinPredicate::WithinDistance(
      4.0, [](const STObject& a, const STObject& b) {
        return ManhattanDistance(a, b);
      });
  ASSERT_FALSE(pred.Prunable());
  const JoinSnap before = SnapJoinMetrics();
  const auto got = Ids(SpatialJoin(indexed, r, pred));
  const JoinSnap after = SnapJoinMetrics();
  EXPECT_EQ(got, BruteForce(pred));
  EXPECT_EQ(after.tree_builds, before.tree_builds);
}

TEST_F(IndexedJoinTest, LiveJoinSkipsTreeBuildForNonPrunablePredicate) {
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3);
  auto r = SpatialRDD<int64_t>::FromVector(&ctx_, right_, 2);
  const auto pred = JoinPredicate::WithinDistance(
      4.0, [](const STObject& a, const STObject& b) {
        return ManhattanDistance(a, b);
      });
  ASSERT_FALSE(pred.Prunable());
  JoinOptions options;  // index_order = 10: would build trees if usable
  const JoinSnap before = SnapJoinMetrics();
  const auto got = Ids(SpatialJoin(l, r, pred, options));
  const JoinSnap after = SnapJoinMetrics();
  EXPECT_EQ(got, BruteForce(pred));
  // Regression: the index cannot serve a non-prunable predicate, so
  // building it would be pure wasted work.
  EXPECT_EQ(after.tree_builds, before.tree_builds);
}

TEST_F(IndexedJoinTest, NestedLoopPrefilterPrunesAndStaysExact) {
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3);
  auto r = SpatialRDD<int64_t>::FromVector(&ctx_, right_, 2);
  JoinOptions no_index;
  no_index.index_order = 0;
  const JoinSnap before = SnapJoinMetrics();
  const auto got = Ids(SpatialJoin(l, r, JoinPredicate::Intersects(),
                                   no_index));
  const JoinSnap after = SnapJoinMetrics();
  EXPECT_EQ(got, BruteForce(JoinPredicate::Intersects()));
  // The envelope prefilter rejected element pairs before the exact test.
  EXPECT_GT(after.prefilter_skips, before.prefilter_skips);
}

TEST_F(IndexedJoinTest, BroadcastJoinSmallRightSide) {
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 4);
  auto r = SpatialRDD<int64_t>::FromVector(&ctx_, right_, 3);
  JoinOptions options;
  options.broadcast_threshold = 100;  // right side (60 polygons) qualifies
  for (const JoinPredicate& pred :
       {JoinPredicate::Intersects(), JoinPredicate::WithinDistance(2.5)}) {
    const JoinSnap before = SnapJoinMetrics();
    const auto got = Ids(SpatialJoin(l, r, pred, options));
    const JoinSnap after = SnapJoinMetrics();
    EXPECT_EQ(got, BruteForce(pred)) << PredicateName(pred.type);
    EXPECT_EQ(after.broadcast_joins, before.broadcast_joins + 1)
        << PredicateName(pred.type);
    // Broadcast skips pair enumeration entirely.
    EXPECT_EQ(after.pairs_enumerated, before.pairs_enumerated)
        << PredicateName(pred.type);
  }
}

TEST_F(IndexedJoinTest, BroadcastJoinSmallLeftSide) {
  // Swap the sides so the broadcast side is the left one (its own probe
  // direction in the implementation).
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, right_, 3);  // 60 polygons
  auto r = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 4);   // 400 points
  JoinOptions options;
  options.broadcast_threshold = 100;
  const auto pred = JoinPredicate::Contains();  // polygons contain points
  std::set<Pair> expect;
  for (const auto& [lo, lid] : right_) {
    for (const auto& [ro, rid] : left_) {
      if (pred.Eval(lo, ro)) expect.emplace(lid, rid);
    }
  }
  const JoinSnap before = SnapJoinMetrics();
  const auto got = Ids(SpatialJoin(l, r, pred, options));
  const JoinSnap after = SnapJoinMetrics();
  EXPECT_EQ(got, expect);
  EXPECT_EQ(after.broadcast_joins, before.broadcast_joins + 1);
}

TEST_F(IndexedJoinTest, BroadcastRespectsThreshold) {
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 4);
  auto r = SpatialRDD<int64_t>::FromVector(&ctx_, right_, 3);
  JoinOptions options;
  options.broadcast_threshold = 10;  // both sides are bigger than this
  const JoinSnap before = SnapJoinMetrics();
  const auto got = Ids(SpatialJoin(l, r, JoinPredicate::Intersects(),
                                   options));
  const JoinSnap after = SnapJoinMetrics();
  EXPECT_EQ(got, BruteForce(JoinPredicate::Intersects()));
  EXPECT_EQ(after.broadcast_joins, before.broadcast_joins);
  EXPECT_GT(after.pairs_enumerated, before.pairs_enumerated);
}

// Deterministic lattice of points inside one quadrant of the 100x100
// universe, kept >= 2 units away from the quadrant edges so partition
// extents never bleed into neighbouring cells (margin 1 stays inside).
void FillQuadrant(std::vector<std::pair<STObject, int64_t>>* out, int qx,
                  int qy, size_t count, int64_t* next_id) {
  for (size_t i = 0; i < count; ++i) {
    const double fx = static_cast<double>(i % 32) / 31.0;
    const double fy = static_cast<double>(i / 32 % 32) / 31.0;
    const double x = qx * 50.0 + 2.0 + 45.0 * fx;
    const double y = qy * 50.0 + 2.0 + 45.0 * fy;
    out->emplace_back(STObject(Geometry::MakePoint(x, y)), (*next_id)++);
  }
}

TEST_F(IndexedJoinTest, SkewedPairSplitsIntoSubtaskSpans) {
  // Right partition 0 holds 50% of the right records: its pair is the
  // join's straggler unless it is split.
  std::vector<std::pair<STObject, int64_t>> lhs;
  std::vector<std::pair<STObject, int64_t>> rhs;
  int64_t id = 0;
  for (int q = 0; q < 4; ++q) FillQuadrant(&lhs, q % 2, q / 2, 250, &id);
  id = 0;
  FillQuadrant(&rhs, 0, 0, 500, &id);
  FillQuadrant(&rhs, 1, 0, 167, &id);
  FillQuadrant(&rhs, 0, 1, 167, &id);
  FillQuadrant(&rhs, 1, 1, 166, &id);

  obs::TaskTracer tracer;
  tracer.Enable();
  Context ctx(4, &tracer);
  auto grid_l = std::make_shared<GridPartitioner>(universe_, 2);
  auto grid_r = std::make_shared<GridPartitioner>(universe_, 2);
  auto l = SpatialRDD<int64_t>::FromVector(&ctx, lhs, 2).PartitionBy(grid_l);
  auto r = SpatialRDD<int64_t>::FromVector(&ctx, rhs, 2).PartitionBy(grid_r);

  JoinOptions options;
  options.skew_split_factor = 1.5;
  const auto pred = JoinPredicate::WithinDistance(1.0);

  const JoinSnap before = SnapJoinMetrics();
  const auto got = Ids(SpatialJoin(l, r, pred, options));
  const JoinSnap after = SnapJoinMetrics();

  // Still exact.
  std::set<Pair> expect;
  for (const auto& [lo, lid] : lhs) {
    for (const auto& [ro, rid] : rhs) {
      if (pred.Eval(lo, ro)) expect.emplace(lid, rid);
    }
  }
  EXPECT_EQ(got, expect);

  // The dense pair was split: more probe tasks than enumerated pairs.
  EXPECT_GE(after.pairs_split - before.pairs_split, 1u);
  EXPECT_GT(after.subtasks - before.subtasks,
            after.pairs_enumerated - before.pairs_enumerated);

  // And the split is visible in the trace: >= 2 probe spans carry the same
  // partition-pair label, with explicit sub-ranges.
  size_t dense_pair_spans = 0;
  size_t ranged_spans = 0;
  for (const obs::TaskSpan& span : tracer.Spans()) {
    if (span.stage != "spatial.join.probe") continue;
    if (span.detail.rfind("L0xR0", 0) == 0) {
      ++dense_pair_spans;
      if (span.detail.find('[') != std::string::npos) ++ranged_spans;
    }
  }
  EXPECT_GE(dense_pair_spans, 2u);
  EXPECT_GE(ranged_spans, 2u);
}

TEST_F(IndexedJoinTest, CachedIndexJoinUnpartitionedRightMatches) {
  // Indexed left against a right side with no partitioner at all: no
  // pruning possible, every pair probed, still exact.
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3);
  auto r = SpatialRDD<int64_t>::FromVector(&ctx_, right_, 2);
  IndexedSpatialRDD<int64_t> indexed = l.Index(8);
  const auto pred = JoinPredicate::Intersects();
  EXPECT_EQ(Ids(SpatialJoin(indexed, r, pred)), BruteForce(pred));
}

TEST_F(IndexedJoinTest, CachedIndexJoinEmptySides) {
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, {}, 2);
  auto r = SpatialRDD<int64_t>::FromVector(&ctx_, right_, 2);
  IndexedSpatialRDD<int64_t> indexed = l.Index(8);
  EXPECT_EQ(SpatialJoin(indexed, r, JoinPredicate::Intersects()).Count(), 0u);

  auto l2 = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3);
  auto empty_r = SpatialRDD<int64_t>::FromVector(&ctx_, {}, 2);
  IndexedSpatialRDD<int64_t> indexed2 = l2.Index(8);
  EXPECT_EQ(SpatialJoin(indexed2, empty_r, JoinPredicate::Intersects()).Count(),
            0u);
}

TEST_F(IndexedJoinTest, PartitionerWithOtherPartitionCountIsIgnored) {
  // A one-cell partitioner wrapped around multi-partition RDDs describes
  // none of their partitions past the first. It must not be used for
  // pruning (its extent list is shorter than the RDD); every operator
  // treats the RDD as unpartitioned and stays exact.
  auto one_cell = [&] {
    return std::make_shared<ExplicitPartitioner>(
        std::vector<Envelope>{universe_}, std::vector<Envelope>{});
  };
  const SpatialRDD<int64_t> l(MakeRDD(&ctx_, left_, 4), one_cell());
  const SpatialRDD<int64_t> r(MakeRDD(&ctx_, right_, 3), one_cell());
  EXPECT_EQ(l.partitioner(), nullptr);
  EXPECT_EQ(r.partitioner(), nullptr);

  const IndexedSpatialRDD<int64_t> indexed(
      l.Index(8).trees(),
      std::make_shared<std::vector<Envelope>>(1, universe_), 8);
  EXPECT_EQ(indexed.extents(), nullptr);

  for (const JoinPredicate& pred :
       {JoinPredicate::Intersects(), JoinPredicate::WithinDistance(2.5)}) {
    const std::set<Pair> expect = BruteForce(pred);
    EXPECT_EQ(Ids(SpatialJoin(l, r, pred)), expect) << PredicateName(pred.type);
    EXPECT_EQ(Ids(SpatialJoin(indexed, r, pred)), expect)
        << PredicateName(pred.type);
  }

  const STObject query(Geometry::MakeBox(Envelope(60, 60, 90, 90)));
  std::set<int64_t> expect;
  for (const auto& [obj, id] : left_) {
    if (JoinPredicate::Intersects().Eval(obj, query)) expect.insert(id);
  }
  ASSERT_FALSE(expect.empty());
  for (const auto& filtered :
       {l.Filter(query, JoinPredicate::Intersects()),
        indexed.Filter(query, JoinPredicate::Intersects())}) {
    std::set<int64_t> got;
    for (const auto& [obj, id] : filtered.Collect()) got.insert(id);
    EXPECT_EQ(got, expect);
  }
}

/// Every counter a join strategy moves: engine.join.*, the columnar
/// refine counters and the packed-probe counter.
constexpr const char* kJoinCounters[] = {
    "engine.join.pairs_enumerated", "engine.join.pairs_pruned",
    "engine.join.pairs_split",      "engine.join.subtasks",
    "engine.join.tree_builds",      "engine.join.tree_reuse_hits",
    "engine.join.broadcast_joins",  "engine.join.prefilter_skips",
    "engine.join.results",          "engine.columnar.batches",
    "engine.columnar.rows",         "engine.columnar.fallbacks",
    "engine.columnar.slab_reuse",   "engine.index.packed_probes",
};

using Deltas = std::map<std::string, uint64_t>;

/// The non-zero deltas of kJoinCounters across \p join.
template <typename JoinFn>
Deltas DeltasOf(JoinFn&& join) {
  std::vector<uint64_t> before;
  for (const char* name : kJoinCounters) {
    before.push_back(obs::DefaultMetrics().GetCounter(name)->Value());
  }
  join();
  Deltas deltas;
  for (size_t i = 0; i < before.size(); ++i) {
    const uint64_t after =
        obs::DefaultMetrics().GetCounter(kJoinCounters[i])->Value();
    if (after != before[i]) deltas[kJoinCounters[i]] = after - before[i];
  }
  return deltas;
}

TEST_F(IndexedJoinTest, EveryStrategyKeepsItsExactCounterDeltas) {
  // One fixed seeded input per strategy; the expected deltas pin what each
  // strategy enumerates, builds, refines and emits, so a change to how the
  // join is organised cannot silently change the work it does.
  auto grid_l = std::make_shared<GridPartitioner>(universe_, 4);
  auto grid_r = std::make_shared<GridPartitioner>(universe_, 3);
  auto points =
      SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3).PartitionBy(grid_l);
  auto polygons =
      SpatialRDD<int64_t>::FromVector(&ctx_, right_, 2).PartitionBy(grid_r);
  std::vector<std::pair<STObject, int64_t>> few_points(left_.begin(),
                                                       left_.begin() + 50);
  auto few = SpatialRDD<int64_t>::FromVector(&ctx_, few_points, 2);
  auto all_polygons = SpatialRDD<int64_t>::FromVector(&ctx_, right_, 3);
  auto all_points = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 4);
  IndexedSpatialRDD<int64_t> indexed = points.Index(8);
  indexed.trees().Count();

  const auto intersects = JoinPredicate::Intersects();
  const auto within = JoinPredicate::WithinDistance(2.5);
  JoinOptions skewed;
  skewed.skew_split_factor = 1.5;
  JoinOptions nested;
  nested.index_order = 0;
  JoinOptions broadcast;
  broadcast.broadcast_threshold = 60;

  EXPECT_EQ(DeltasOf([&] {
              SpatialJoin(points, polygons, within, skewed).Count();
            }),
            (Deltas{{"engine.join.pairs_enumerated", 36},
                    {"engine.join.pairs_pruned", 108},
                    {"engine.join.pairs_split", 9},
                    {"engine.join.subtasks", 48},
                    {"engine.join.tree_builds", 16},
                    {"engine.join.results", 266},
                    {"engine.columnar.batches", 15},
                    {"engine.columnar.rows", 319},
                    {"engine.columnar.slab_reuse", 12},
                    {"engine.index.packed_probes", 240}}))
      << "live pair, skew split, point kernels";
  EXPECT_EQ(DeltasOf([&] {
              SpatialJoin(polygons, points, intersects, skewed).Count();
            }),
            (Deltas{{"engine.join.pairs_enumerated", 36},
                    {"engine.join.pairs_pruned", 108},
                    {"engine.join.pairs_split", 13},
                    {"engine.join.subtasks", 55},
                    {"engine.join.tree_builds", 9},
                    {"engine.join.results", 67},
                    {"engine.columnar.fallbacks", 135},
                    {"engine.index.packed_probes", 1004}}))
      << "live pair, skew split, scalar refine";
  EXPECT_EQ(DeltasOf([&] {
              SpatialJoin(points, polygons, intersects, nested).Count();
            }),
            (Deltas{{"engine.join.pairs_enumerated", 36},
                    {"engine.join.pairs_pruned", 108},
                    {"engine.join.subtasks", 36},
                    {"engine.join.prefilter_skips", 7111},
                    {"engine.join.results", 67}}))
      << "nested loop";
  EXPECT_EQ(DeltasOf([&] {
              SpatialJoin(indexed, polygons, within).Count();
            }),
            (Deltas{{"engine.join.pairs_enumerated", 36},
                    {"engine.join.pairs_pruned", 108},
                    {"engine.join.subtasks", 36},
                    {"engine.join.tree_reuse_hits", 16},
                    {"engine.join.results", 266},
                    {"engine.index.packed_probes", 240}}))
      << "cached index";
  EXPECT_EQ(DeltasOf([&] {
              SpatialJoin(all_polygons, all_points, JoinPredicate::Contains(),
                          broadcast)
                  .Count();
            }),
            (Deltas{{"engine.join.tree_builds", 1},
                    {"engine.join.broadcast_joins", 1},
                    {"engine.join.results", 67},
                    {"engine.columnar.fallbacks", 135},
                    {"engine.index.packed_probes", 400}}))
      << "left broadcast, scalar refine";
  EXPECT_EQ(DeltasOf([&] {
              SpatialJoin(all_polygons, few, intersects, broadcast).Count();
            }),
            (Deltas{{"engine.join.tree_builds", 1},
                    {"engine.join.broadcast_joins", 1},
                    {"engine.join.results", 6},
                    {"engine.columnar.batches", 1},
                    {"engine.columnar.rows", 17},
                    {"engine.columnar.slab_reuse", 3},
                    {"engine.index.packed_probes", 60}}))
      << "right broadcast, point kernels";
  EXPECT_EQ(DeltasOf([&] {
              SpatialJoin(points, points, within, skewed).Count();
            }),
            (Deltas{{"engine.join.pairs_enumerated", 58},
                    {"engine.join.pairs_pruned", 78},
                    {"engine.join.pairs_split", 17},
                    {"engine.join.subtasks", 87},
                    {"engine.join.tree_builds", 16},
                    {"engine.join.results", 4930},
                    {"engine.columnar.batches", 15},
                    {"engine.columnar.rows", 3139},
                    {"engine.columnar.slab_reuse", 29},
                    {"engine.index.packed_probes", 368}}))
      << "symmetric self-join, skew split, point kernels";
  EXPECT_EQ(DeltasOf([&] {
              SpatialJoin(points, points, within, nested).Count();
            }),
            (Deltas{{"engine.join.pairs_enumerated", 58},
                    {"engine.join.pairs_pruned", 78},
                    {"engine.join.pairs_split", 1},
                    {"engine.join.subtasks", 62},
                    {"engine.join.prefilter_skips", 36992},
                    {"engine.join.results", 4930}}))
      << "symmetric self-join, nested loop";
}

TEST_F(IndexedJoinTest, FootprintRegionJoinMatchesNestedLoopInEveryStrategy) {
  // The e3_regionjoin shape: point events with every 4th one a 4-8 vertex
  // footprint polygon, joined by Intersects against 4-12 vertex star
  // regions. Footprint rows refine through the polygon-vs-polygon boundary
  // loop, so every strategy must still equal a nested loop over Eval, and
  // the refine and result counters pin that only the predicate's cost,
  // never its routing, can change.
  Rng rng(1919);
  std::vector<std::pair<STObject, int64_t>> events;
  for (int64_t i = 0; i < 1200; ++i) {
    const Coordinate c{rng.Uniform(2.0, 98.0), rng.Uniform(2.0, 98.0)};
    if (i % 4 == 3) {
      const double radius = rng.Uniform(0.3, 2.5);
      const int vertices = static_cast<int>(rng.UniformInt(4, 8));
      events.emplace_back(test::StarPolygonAround(&rng, c, radius, vertices),
                          i);
    } else {
      events.emplace_back(Geometry::MakePoint(c), i);
    }
  }
  std::vector<std::pair<STObject, int64_t>> regions;
  for (int64_t r = 0; r < 80; ++r) {
    const Coordinate c{rng.Uniform(5.0, 95.0), rng.Uniform(5.0, 95.0)};
    const double radius = rng.Uniform(3.0, 10.0);
    const int vertices = static_cast<int>(rng.UniformInt(4, 12));
    regions.emplace_back(test::StarPolygonAround(&rng, c, radius, vertices),
                         r);
  }
  const JoinPredicate intersects = JoinPredicate::Intersects();
  std::set<Pair> expect;
  for (const auto& [ev, eid] : events) {
    for (const auto& [reg, rid] : regions) {
      if (intersects.Eval(ev, reg)) expect.emplace(eid, rid);
    }
  }

  auto grid_l = std::make_shared<GridPartitioner>(universe_, 4);
  auto grid_r = std::make_shared<GridPartitioner>(universe_, 3);
  auto ev_parts =
      SpatialRDD<int64_t>::FromVector(&ctx_, events, 3).PartitionBy(grid_l);
  auto reg_parts =
      SpatialRDD<int64_t>::FromVector(&ctx_, regions, 2).PartitionBy(grid_r);
  IndexedSpatialRDD<int64_t> indexed = ev_parts.Index(10);
  indexed.trees().Count();
  auto ev_flat = SpatialRDD<int64_t>::FromVector(&ctx_, events, 4);
  auto reg_flat = SpatialRDD<int64_t>::FromVector(&ctx_, regions, 2);
  JoinOptions broadcast;
  broadcast.broadcast_threshold = regions.size();

  /// The refine and result deltas of one strategy, plus its pair set.
  const auto run = [](auto&& join) {
    std::set<Pair> got;
    Deltas all = DeltasOf([&] { got = Ids(join()); });
    const Deltas kept = {
        {"engine.columnar.fallbacks", all["engine.columnar.fallbacks"]},
        {"engine.join.results", all["engine.join.results"]}};
    return std::make_pair(got, kept);
  };
  const auto live =
      run([&] { return SpatialJoin(ev_parts, reg_parts, intersects); });
  EXPECT_EQ(live.first, expect) << "live partition pairs";
  EXPECT_EQ(live.second, (Deltas{{"engine.columnar.fallbacks", 919},
                                 {"engine.join.results", 538}}))
      << "live partition pairs";
  const auto cached =
      run([&] { return SpatialJoin(indexed, reg_parts, intersects); });
  EXPECT_EQ(cached.first, expect) << "cached index";
  EXPECT_EQ(cached.second, (Deltas{{"engine.columnar.fallbacks", 0},
                                   {"engine.join.results", 538}}))
      << "cached index";
  const auto bcast = run(
      [&] { return SpatialJoin(ev_flat, reg_flat, intersects, broadcast); });
  EXPECT_EQ(bcast.first, expect) << "broadcast";
  EXPECT_EQ(bcast.second, (Deltas{{"engine.columnar.fallbacks", 919},
                                  {"engine.join.results", 538}}))
      << "broadcast";
  EXPECT_EQ(expect.size(), 538u);
}

// ---- Lazy probe stage -------------------------------------------------------

uint64_t CounterValue(const char* name) {
  return obs::DefaultMetrics().GetCounter(name)->Value();
}

TEST_F(IndexedJoinTest, FusedFilterRetriesAThrowingAttemptFromScratch) {
  auto grid_l = std::make_shared<GridPartitioner>(universe_, 4);
  auto grid_r = std::make_shared<GridPartitioner>(universe_, 3);
  auto l =
      SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3).PartitionBy(grid_l);
  auto r =
      SpatialRDD<int64_t>::FromVector(&ctx_, right_, 2).PartitionBy(grid_r);
  const auto pred = JoinPredicate::WithinDistance(2.5);
  const auto ids = [](const auto& a, const auto& b) {
    return Pair(a.second, b.second);
  };
  const size_t expected = BruteForce(pred).size();
  const auto joined = SpatialJoinProject(l, r, pred, JoinOptions{}, ids);
  const auto keep_all = [](const Pair&) { return true; };
  ASSERT_EQ(joined.Filter(keep_all).Count(), expected);

  // The predicate throws once, at the sixth pair one probe task pushes in
  // its first attempt: five pairs were already counted by that attempt.
  std::vector<std::atomic<size_t>> pushed(joined.NumPartitions());
  std::atomic<bool> thrown{false};
  const auto faulty = [&](const Pair&) {
    const TaskContext* task = CurrentTaskContext();
    if (task != nullptr && pushed[task->partition()].fetch_add(1) == 5 &&
        !thrown.exchange(true)) {
      throw std::runtime_error("injected predicate fault");
    }
    return true;
  };
  const uint64_t retries = CounterValue("engine.task.retries");
  const uint64_t results = CounterValue("engine.join.results");
  EXPECT_EQ(joined.Filter(faulty).Count(), expected);
  EXPECT_TRUE(thrown.load());
  EXPECT_GE(CounterValue("engine.task.retries") - retries, 1u);
  // The failed attempt flushed nothing; its retry counted every result once.
  EXPECT_EQ(CounterValue("engine.join.results") - results, expected);
}

TEST_F(IndexedJoinTest, FusedCountRetriesAnInjectedTaskFault) {
  auto grid_l = std::make_shared<GridPartitioner>(universe_, 4);
  auto grid_r = std::make_shared<GridPartitioner>(universe_, 3);
  auto l =
      SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3).PartitionBy(grid_l);
  auto r =
      SpatialRDD<int64_t>::FromVector(&ctx_, right_, 2).PartitionBy(grid_r);
  const auto pred = JoinPredicate::Intersects();
  const size_t expected = BruteForce(pred).size();
  JoinOptions broadcast;
  broadcast.broadcast_threshold = 100;
  const auto non_negative = [](const auto& pair) {
    return pair.first.second >= 0 && pair.second.second >= 0;
  };
  fault::FailPoint* const fp =
      fault::DefaultFailPoints().Get("engine.task.run");
  for (const auto& joined :
       {SpatialJoin(l, r, pred), SpatialJoin(l, r, pred, broadcast),
        SpatialJoin(l.Index(8), r, pred)}) {
    // Armed over the consumer's job only: the join's eager planning jobs
    // already ran when it was built.
    ASSERT_TRUE(
        fault::DefaultFailPoints().ArmFromSpec("engine.task.run=nth:1").ok());
    const uint64_t results = CounterValue("engine.join.results");
    EXPECT_EQ(joined.Filter(non_negative).Count(), expected);
    EXPECT_EQ(fp->fires(), 1u);
    EXPECT_EQ(CounterValue("engine.join.results") - results, expected);
    fault::DefaultFailPoints().DisarmAll();
  }
}

TEST_F(IndexedJoinTest, JoinOutlivesItsInputHandles) {
  const auto pred = JoinPredicate::Intersects();
  const std::set<Pair> expect = BruteForce(pred);
  const auto copy = [](std::pair<STObject, int64_t>& e) { return e; };
  // Every join is built from handles that are gone before it is read. The
  // right side is computed (not stored) until it is partitioned, so both
  // borrowed and join-owned partitions are read after the scope closes.
  const auto build = [&](bool partitioned, size_t broadcast_threshold) {
    SpatialRDD<int64_t> l = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3);
    SpatialRDD<int64_t> r(
        SpatialRDD<int64_t>::FromVector(&ctx_, right_, 2).rdd().Map(copy));
    if (partitioned) {
      l = l.PartitionBy(std::make_shared<GridPartitioner>(universe_, 4));
      r = r.PartitionBy(std::make_shared<GridPartitioner>(universe_, 3));
    }
    JoinOptions options;
    options.broadcast_threshold = broadcast_threshold;
    return SpatialJoin(l, r, pred, options);
  };
  const auto build_cached = [&](bool partitioned) {
    SpatialRDD<int64_t> l = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3);
    if (partitioned) {
      l = l.PartitionBy(std::make_shared<GridPartitioner>(universe_, 4));
    }
    IndexedSpatialRDD<int64_t> indexed = l.Index(8);
    SpatialRDD<int64_t> r(
        SpatialRDD<int64_t>::FromVector(&ctx_, right_, 2).rdd().Map(copy));
    return SpatialJoin(indexed, r, pred);
  };
  for (const bool partitioned : {false, true}) {
    const std::string label = partitioned ? "grid" : "no partitioner";
    for (const auto& joined : {build(partitioned, 0), build(partitioned, 100),
                               build_cached(partitioned)}) {
      EXPECT_EQ(joined.Count(), expect.size()) << label;
      EXPECT_EQ(Ids(joined), expect) << label;
    }
  }
}

}  // namespace
}  // namespace stark
