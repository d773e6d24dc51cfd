// Tests for the kNN join operator, verified against brute force.
#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fault/failpoint.h"
#include "io/generator.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/knn_join.h"

namespace stark {
namespace {

class KnnJoinTest : public ::testing::Test {
 protected:
  KnnJoinTest() {
    SkewedPointsOptions gen;
    gen.count = 300;
    gen.universe = universe_;
    gen.seed = 101;
    auto lp = GenerateSkewedPoints(gen);
    for (size_t i = 0; i < lp.size(); ++i) {
      left_.emplace_back(lp[i], static_cast<int64_t>(i));
    }
    gen.count = 500;
    gen.seed = 102;
    auto rp = GenerateSkewedPoints(gen);
    for (size_t i = 0; i < rp.size(); ++i) {
      right_.emplace_back(rp[i], static_cast<int64_t>(i));
    }
  }

  /// Brute-force k nearest right ids for one left object, by distance.
  std::vector<double> BruteForceDistances(const STObject& l, size_t k) const {
    std::vector<double> dists;
    dists.reserve(right_.size());
    for (const auto& [obj, id] : right_) {
      dists.push_back(Distance(l.geo(), obj.geo()));
    }
    std::sort(dists.begin(), dists.end());
    dists.resize(std::min(k, dists.size()));
    return dists;
  }

  Envelope universe_ = Envelope(0, 0, 100, 100);
  Context ctx_{4};
  std::vector<std::pair<STObject, int64_t>> left_;
  std::vector<std::pair<STObject, int64_t>> right_;
};

TEST_F(KnnJoinTest, MatchesBruteForceUnpartitioned) {
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3);
  auto r = SpatialRDD<int64_t>::FromVector(&ctx_, right_, 4);
  auto joined = KnnJoin(l, r, 5).Collect();
  ASSERT_EQ(joined.size(), left_.size());
  for (const auto& [lelem, matches] : joined) {
    ASSERT_EQ(matches.size(), 5u);
    const auto expect = BruteForceDistances(lelem.first, 5);
    for (size_t i = 0; i < matches.size(); ++i) {
      EXPECT_DOUBLE_EQ(matches[i].first, expect[i]);
      if (i > 0) {
        EXPECT_LE(matches[i - 1].first, matches[i].first);
      }
    }
  }
}

TEST_F(KnnJoinTest, MatchesBruteForcePartitioned) {
  auto grid_l = std::make_shared<GridPartitioner>(universe_, 3);
  auto grid_r = std::make_shared<GridPartitioner>(universe_, 5);
  auto l =
      SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3).PartitionBy(grid_l);
  auto r =
      SpatialRDD<int64_t>::FromVector(&ctx_, right_, 4).PartitionBy(grid_r);
  auto joined = KnnJoin(l, r, 3).Collect();
  ASSERT_EQ(joined.size(), left_.size());
  for (const auto& [lelem, matches] : joined) {
    const auto expect = BruteForceDistances(lelem.first, 3);
    ASSERT_EQ(matches.size(), expect.size());
    for (size_t i = 0; i < matches.size(); ++i) {
      EXPECT_DOUBLE_EQ(matches[i].first, expect[i]);
    }
  }
}

TEST_F(KnnJoinTest, KLargerThanRightSide) {
  auto l = SpatialRDD<int64_t>::FromVector(
      &ctx_, {left_.begin(), left_.begin() + 5}, 2);
  auto r = SpatialRDD<int64_t>::FromVector(
      &ctx_, {right_.begin(), right_.begin() + 3}, 2);
  auto joined = KnnJoin(l, r, 10).Collect();
  for (const auto& [lelem, matches] : joined) {
    EXPECT_EQ(matches.size(), 3u);  // whole right side
  }
}

TEST_F(KnnJoinTest, NonPointLeftGeometries) {
  // Polygons as the left side: exact geometry distances, not centroid ones.
  PolygonsOptions pgen;
  pgen.count = 20;
  pgen.universe = universe_;
  pgen.min_radius = 2;
  pgen.max_radius = 6;
  pgen.seed = 103;
  auto polys = GenerateRandomPolygons(pgen);
  std::vector<std::pair<STObject, int64_t>> poly_left;
  for (size_t i = 0; i < polys.size(); ++i) {
    poly_left.emplace_back(polys[i], static_cast<int64_t>(i));
  }
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, poly_left, 2);
  auto grid_r = std::make_shared<GridPartitioner>(universe_, 4);
  auto r =
      SpatialRDD<int64_t>::FromVector(&ctx_, right_, 4).PartitionBy(grid_r);
  auto joined = KnnJoin(l, r, 4).Collect();
  ASSERT_EQ(joined.size(), poly_left.size());
  for (const auto& [lelem, matches] : joined) {
    const auto expect = BruteForceDistances(lelem.first, 4);
    ASSERT_EQ(matches.size(), expect.size());
    for (size_t i = 0; i < matches.size(); ++i) {
      EXPECT_DOUBLE_EQ(matches[i].first, expect[i]) << lelem.second;
    }
  }
}

TEST_F(KnnJoinTest, EmptyRightSideGivesEmptyMatches) {
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 2);
  auto r = SpatialRDD<int64_t>::FromVector(&ctx_, {}, 2);
  auto joined = KnnJoin(l, r, 5).Collect();
  ASSERT_EQ(joined.size(), left_.size());
  for (const auto& [lelem, matches] : joined) {
    EXPECT_TRUE(matches.empty());
  }
}

TEST_F(KnnJoinTest, TieAtKthNeighborAcrossPartitionBoundary) {
  // Deterministic construction: the query point sits near the x=50 grid
  // boundary; its k-th nearest distance is shared by candidates on *both*
  // sides of the boundary, and the neighboring partition's extent distance
  // equals that k-th distance exactly. The probe loop's stop rule must not
  // skip the tied partition (strict >, not >=, against the k-th distance)
  // and the merged result must match brute force.
  std::vector<std::pair<STObject, int64_t>> lhs = {
      {STObject(Geometry::MakePoint(48, 50)), 0}};
  std::vector<std::pair<STObject, int64_t>> rhs = {
      {STObject(Geometry::MakePoint(46, 50)), 0},  // d=2, west cell
      {STObject(Geometry::MakePoint(45, 50)), 1},  // d=3, west cell
      {STObject(Geometry::MakePoint(44, 50)), 2},  // d=4, west cell (tie)
      {STObject(Geometry::MakePoint(52, 50)), 3},  // d=4, east cell (tie)
      {STObject(Geometry::MakePoint(60, 50)), 4},  // d=12, east cell
  };
  auto grid = std::make_shared<GridPartitioner>(universe_, 2);
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, lhs, 1);
  auto r = SpatialRDD<int64_t>::FromVector(&ctx_, rhs, 2).PartitionBy(grid);
  auto joined = KnnJoin(l, r, 3).Collect();
  ASSERT_EQ(joined.size(), 1u);
  const auto& matches = joined[0].second;
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_DOUBLE_EQ(matches[0].first, 2.0);
  EXPECT_DOUBLE_EQ(matches[1].first, 3.0);
  EXPECT_DOUBLE_EQ(matches[2].first, 4.0);
  // Of the two tied candidates the tie key (envelope min_x first) keeps
  // the west one.
  EXPECT_EQ(matches[2].second.second, 2);
  // Everything strictly closer than the k-th distance must be present.
  EXPECT_EQ(matches[0].second.second, 0);
  EXPECT_EQ(matches[1].second.second, 1);
}

TEST_F(KnnJoinTest, AllEmptyRightPartitions) {
  // A partitioned right side whose partitions are all empty: the probe
  // order over extent distances must terminate with no matches rather than
  // spin or crash on empty extents.
  auto grid_l = std::make_shared<GridPartitioner>(universe_, 2);
  auto grid_r = std::make_shared<GridPartitioner>(universe_, 4);
  auto l =
      SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3).PartitionBy(grid_l);
  auto r = SpatialRDD<int64_t>::FromVector(&ctx_, {}, 2).PartitionBy(grid_r);
  ASSERT_EQ(r.NumPartitions(), 16u);
  auto joined = KnnJoin(l, r, 5).Collect();
  ASSERT_EQ(joined.size(), left_.size());
  for (const auto& [lelem, matches] : joined) {
    EXPECT_TRUE(matches.empty());
  }
}

TEST_F(KnnJoinTest, MixedPointAndPolygonLeftGeometries) {
  // A left side mixing points and polygons in the same partitions: the
  // tree search, bounded by each left envelope, must match brute force
  // for both.
  PolygonsOptions pgen;
  pgen.count = 10;
  pgen.universe = universe_;
  pgen.min_radius = 2;
  pgen.max_radius = 6;
  pgen.seed = 104;
  auto polys = GenerateRandomPolygons(pgen);
  std::vector<std::pair<STObject, int64_t>> mixed;
  for (size_t i = 0; i < polys.size(); ++i) {
    mixed.emplace_back(polys[i], static_cast<int64_t>(i));
    mixed.emplace_back(left_[i].first, static_cast<int64_t>(100 + i));
  }
  auto grid_r = std::make_shared<GridPartitioner>(universe_, 4);
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, mixed, 3);
  auto r =
      SpatialRDD<int64_t>::FromVector(&ctx_, right_, 4).PartitionBy(grid_r);
  auto joined = KnnJoin(l, r, 4).Collect();
  ASSERT_EQ(joined.size(), mixed.size());
  for (const auto& [lelem, matches] : joined) {
    const auto expect = BruteForceDistances(lelem.first, 4);
    ASSERT_EQ(matches.size(), expect.size());
    for (size_t i = 0; i < matches.size(); ++i) {
      EXPECT_DOUBLE_EQ(matches[i].first, expect[i]) << lelem.second;
    }
  }
}

// ---- Engine stages ----------------------------------------------------------

TEST_F(KnnJoinTest, RunsAsEngineStagesSeenByAdmission) {
  auto grid_r = std::make_shared<GridPartitioner>(universe_, 3);
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3);
  auto r =
      SpatialRDD<int64_t>::FromVector(&ctx_, right_, 4).PartitionBy(grid_r);
  std::vector<std::string> stages;
  ctx_.set_admission_hook([&](const Context::JobAdmission& job) {
    stages.emplace_back(job.stage);
    return Status::OK();
  });
  EXPECT_EQ(KnnJoin(l, r, 3).Count(), left_.size());
  ctx_.set_admission_hook(nullptr);
  EXPECT_NE(std::find(stages.begin(), stages.end(), "knn_join.build"),
            stages.end());
  EXPECT_NE(std::find(stages.begin(), stages.end(), "knn_join.probe"),
            stages.end());
}

TEST_F(KnnJoinTest, LazyResultReadTwiceIsEqual) {
  auto grid_r = std::make_shared<GridPartitioner>(universe_, 4);
  auto l = SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3);
  auto r =
      SpatialRDD<int64_t>::FromVector(&ctx_, right_, 4).PartitionBy(grid_r);
  const auto joined = KnnJoin(l, r, 4);
  const auto first = joined.Collect();
  ASSERT_EQ(first.size(), left_.size());
  EXPECT_TRUE(joined.Collect() == first);
  EXPECT_EQ(joined.Count(), left_.size());
}

TEST_F(KnnJoinTest, EveryStageRetriesAnInjectedTaskFault) {
  auto grid_l = std::make_shared<GridPartitioner>(universe_, 3);
  auto grid_r = std::make_shared<GridPartitioner>(universe_, 4);
  auto l =
      SpatialRDD<int64_t>::FromVector(&ctx_, left_, 3).PartitionBy(grid_l);
  auto r =
      SpatialRDD<int64_t>::FromVector(&ctx_, right_, 4).PartitionBy(grid_r);
  const auto expected = KnnJoin(l, r, 3).Collect();
  fault::FailPoint* const fp =
      fault::DefaultFailPoints().Get("engine.task.run");
  for (const std::string stage : {"knn_join.build", "knn_join.probe"}) {
    // Armed when the stage's job is admitted: its first task fails once.
    ctx_.set_admission_hook([&](const Context::JobAdmission& job) {
      if (job.stage == stage) {
        EXPECT_TRUE(fault::DefaultFailPoints()
                        .ArmFromSpec("engine.task.run=nth:1")
                        .ok());
      }
      return Status::OK();
    });
    EXPECT_TRUE(KnnJoin(l, r, 3).Collect() == expected) << stage;
    EXPECT_EQ(fp->fires(), 1u) << stage;
    fault::DefaultFailPoints().DisarmAll();
  }
  ctx_.set_admission_hook(nullptr);
}

TEST(KnnJoinCancelTest, ProbeStopsPartwayThroughItsPartition) {
  // One 50k-row left partition; the consumer requests cancellation at the
  // 100th joined row. The probe task must stop at its next checkpoint,
  // within 1024 measured candidates (each row measures at least one).
  Context ctx(2);
  Rng rng(4101);
  std::vector<std::pair<STObject, int64_t>> lhs;
  std::vector<std::pair<STObject, int64_t>> rhs;
  for (int64_t i = 0; i < 50000; ++i) {
    lhs.emplace_back(STObject(Geometry::MakePoint(rng.Uniform(0.0, 100.0),
                                                  rng.Uniform(0.0, 100.0))),
                     i);
  }
  for (int64_t i = 0; i < 2000; ++i) {
    rhs.emplace_back(STObject(Geometry::MakePoint(rng.Uniform(0.0, 100.0),
                                                  rng.Uniform(0.0, 100.0))),
                     i);
  }
  const auto l = SpatialRDD<int64_t>::FromVector(&ctx, lhs, 1);
  const auto r = SpatialRDD<int64_t>::FromVector(&ctx, rhs, 4);
  const auto joined = KnnJoin(l, r, 3);
  using Row = decltype(joined)::ElementType;

  auto token = std::make_shared<CancelToken>();
  std::atomic<size_t> calls{0};
  ctx.set_cancel_token(token);
  const Result<size_t> count = joined
                                   .Filter([&](const Row&) {
                                     if (calls.fetch_add(1) + 1 == 100) {
                                       token->RequestCancel();
                                     }
                                     return true;
                                   })
                                   .TryCount();
  ctx.set_cancel_token(nullptr);
  ASSERT_FALSE(count.ok()) << "the kNN join was not cancelled";
  EXPECT_TRUE(count.status().IsCancelled()) << count.status().ToString();
  EXPECT_GE(calls.load(), 100u);
  EXPECT_LE(calls.load(), 100u + 1024u);
}

}  // namespace
}  // namespace stark
