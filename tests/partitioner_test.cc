// Tests for the spatial partitioners (§2.1): grid, cost-based BSP and the
// explicit bounds list.
#include <algorithm>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/generator.h"
#include "partition/bsp_partitioner.h"
#include "partition/explicit_partitioner.h"
#include "partition/grid_partitioner.h"

namespace stark {
namespace {

TEST(GridPartitionerTest, CellLayout) {
  GridPartitioner grid(Envelope(0, 0, 10, 10), 2, 5);
  EXPECT_EQ(grid.NumPartitions(), 10u);
  EXPECT_EQ(grid.Name(), "grid");
  EXPECT_EQ(grid.PartitionBounds(0), Envelope(0, 0, 5, 2));
  EXPECT_EQ(grid.PartitionBounds(9), Envelope(5, 8, 10, 10));
}

TEST(GridPartitionerTest, AssignmentMatchesBounds) {
  GridPartitioner grid(Envelope(0, 0, 8, 8), 4);
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    const Coordinate c{rng.Uniform(0, 8), rng.Uniform(0, 8)};
    const size_t p = grid.PartitionFor(c);
    ASSERT_LT(p, grid.NumPartitions());
    EXPECT_TRUE(grid.PartitionBounds(p).Contains(c));
  }
}

TEST(GridPartitionerTest, OutOfUniverseIsClamped) {
  GridPartitioner grid(Envelope(0, 0, 8, 8), 4);
  EXPECT_LT(grid.PartitionFor({-5, -5}), grid.NumPartitions());
  EXPECT_LT(grid.PartitionFor({100, 100}), grid.NumPartitions());
  EXPECT_EQ(grid.PartitionFor({-5, -5}), grid.PartitionFor({0, 0}));
}

TEST(GridPartitionerTest, NonFiniteCentroidsAreClamped) {
  // A NaN coordinate goes to the first cell of its axis, an infinite or
  // huge one to the border cell, with no out-of-range cast.
  GridPartitioner grid(Envelope(0, 0, 8, 8), 4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(grid.PartitionFor({nan, nan}), grid.PartitionFor({0, 0}));
  EXPECT_EQ(grid.PartitionFor({3, nan}), grid.PartitionFor({3, 0}));
  EXPECT_EQ(grid.PartitionFor({inf, 1e300}), grid.PartitionFor({8, 8}));
  EXPECT_EQ(grid.PartitionFor({-inf, 5}), grid.PartitionFor({0, 5}));
}

TEST(GridPartitionerTest, CellsTileTheUniverseWithoutOverlap) {
  GridPartitioner grid(Envelope(0, 0, 6, 6), 3);
  double total_area = 0.0;
  for (size_t i = 0; i < grid.NumPartitions(); ++i) {
    total_area += grid.PartitionBounds(i).Area();
    for (size_t j = i + 1; j < grid.NumPartitions(); ++j) {
      const Envelope overlap =
          grid.PartitionBounds(i).Intersection(grid.PartitionBounds(j));
      EXPECT_EQ(overlap.Area(), 0.0);  // cells may touch but not overlap
    }
  }
  EXPECT_DOUBLE_EQ(total_area, 36.0);
}

TEST(GridPartitionerTest, ExtentStartsAtBoundsAndGrows) {
  GridPartitioner grid(Envelope(0, 0, 8, 8), 2);
  EXPECT_EQ(grid.PartitionExtent(0), grid.PartitionBounds(0));
  grid.GrowExtent(0, Envelope(-1, -1, 1, 1));
  EXPECT_TRUE(grid.PartitionExtent(0).Contains(Envelope(-1, -1, 1, 1)));
  EXPECT_TRUE(grid.PartitionExtent(0).Contains(grid.PartitionBounds(0)));
  // Other partitions are untouched.
  EXPECT_EQ(grid.PartitionExtent(1), grid.PartitionBounds(1));
}

std::vector<Coordinate> Centroids(const std::vector<STObject>& objs) {
  std::vector<Coordinate> out;
  out.reserve(objs.size());
  for (const auto& o : objs) out.push_back(o.Centroid());
  return out;
}

TEST(BSPartitionerTest, RespectsCostThreshold) {
  SkewedPointsOptions gen;
  gen.count = 5000;
  gen.universe = Envelope(0, 0, 100, 100);
  const auto points = GenerateSkewedPoints(gen);
  const auto centroids = Centroids(points);

  BSPartitioner::Options options;
  options.max_cost = 500;
  BSPartitioner bsp(gen.universe, centroids, options);
  EXPECT_GT(bsp.NumPartitions(), 1u);
  EXPECT_EQ(bsp.Name(), "bsp");

  // No partition holds more than max_cost points (splits stop only at the
  // granularity threshold, which this workload never reaches).
  std::vector<size_t> counts(bsp.NumPartitions(), 0);
  for (const auto& c : centroids) counts[bsp.PartitionFor(c)]++;
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_LE(counts[i], options.max_cost) << "partition " << i;
  }
}

TEST(BSPartitionerTest, AssignmentMatchesBounds) {
  SkewedPointsOptions gen;
  gen.count = 2000;
  gen.universe = Envelope(0, 0, 100, 100);
  const auto centroids = Centroids(GenerateSkewedPoints(gen));
  BSPartitioner::Options options;
  options.max_cost = 200;
  BSPartitioner bsp(gen.universe, centroids, options);
  for (const auto& c : centroids) {
    const size_t p = bsp.PartitionFor(c);
    ASSERT_LT(p, bsp.NumPartitions());
    EXPECT_TRUE(bsp.PartitionBounds(p).Expanded(1e-9).Contains(c));
  }
}

TEST(BSPartitionerTest, LeavesTileTheUniverse) {
  SkewedPointsOptions gen;
  gen.count = 3000;
  gen.universe = Envelope(0, 0, 64, 64);
  const auto centroids = Centroids(GenerateSkewedPoints(gen));
  BSPartitioner::Options options;
  options.max_cost = 250;
  BSPartitioner bsp(gen.universe, centroids, options);

  double total_area = 0.0;
  for (size_t i = 0; i < bsp.NumPartitions(); ++i) {
    total_area += bsp.PartitionBounds(i).Area();
    for (size_t j = i + 1; j < bsp.NumPartitions(); ++j) {
      EXPECT_EQ(bsp.PartitionBounds(i)
                    .Intersection(bsp.PartitionBounds(j))
                    .Area(),
                0.0);
    }
  }
  EXPECT_NEAR(total_area, 64.0 * 64.0, 1e-6);
}

TEST(BSPartitionerTest, BalancesSkewBetterThanGrid) {
  // The paper's motivation: on skewed data the fixed grid has empty and
  // overfull cells; BSP equalizes the per-partition cost.
  SkewedPointsOptions gen;
  gen.count = 20'000;
  gen.universe = Envelope(0, 0, 100, 100);
  gen.clusters = 3;
  gen.cluster_spread = 0.01;
  gen.noise_fraction = 0.02;
  const auto centroids = Centroids(GenerateSkewedPoints(gen));

  BSPartitioner::Options options;
  options.max_cost = 2000;
  BSPartitioner bsp(gen.universe, centroids, options);
  GridPartitioner grid(gen.universe, 4);  // 16 cells, comparable count

  auto max_load = [&](const SpatialPartitioner& part) {
    std::vector<size_t> counts(part.NumPartitions(), 0);
    for (const auto& c : centroids) counts[part.PartitionFor(c)]++;
    return *std::max_element(counts.begin(), counts.end());
  };
  EXPECT_LT(max_load(bsp), max_load(grid));
  EXPECT_LE(max_load(bsp), options.max_cost);
}

TEST(BSPartitionerTest, MinSideLengthStopsRecursion) {
  // All points identical: splitting can never help; the granularity
  // threshold and the degenerate-split guard must terminate the recursion.
  std::vector<Coordinate> centroids(1000, Coordinate{5, 5});
  BSPartitioner::Options options;
  options.max_cost = 10;
  options.min_side_length = 1.0;
  BSPartitioner bsp(Envelope(0, 0, 10, 10), centroids, options);
  EXPECT_GE(bsp.NumPartitions(), 1u);
  // Every leaf respects the minimum side length.
  for (size_t i = 0; i < bsp.NumPartitions(); ++i) {
    const Envelope& b = bsp.PartitionBounds(i);
    EXPECT_GE(b.Width() + 1e-9, options.min_side_length);
    EXPECT_GE(b.Height() + 1e-9, options.min_side_length);
  }
}

TEST(BSPartitionerTest, EmptyInputYieldsSingleLeaf) {
  BSPartitioner bsp(Envelope(0, 0, 1, 1), {}, BSPartitioner::Options{});
  EXPECT_EQ(bsp.NumPartitions(), 1u);
  EXPECT_EQ(bsp.PartitionFor({0.5, 0.5}), 0u);
}

TEST(PartitionerTest, PartitionsWithinDistance) {
  GridPartitioner grid(Envelope(0, 0, 10, 10), 2);
  // Point at the center is near all four cells.
  EXPECT_EQ(grid.PartitionsWithinDistance({5, 5}, 0.5).size(), 4u);
  // Point deep inside cell 0 is near only cell 0.
  EXPECT_EQ(grid.PartitionsWithinDistance({1, 1}, 0.5).size(), 1u);
}

TEST(ExplicitPartitionerTest, RoutesAndFallsBackToNearest) {
  std::vector<Envelope> bounds = {Envelope(0, 0, 5, 10),
                                  Envelope(5, 0, 10, 10)};
  ExplicitPartitioner part(bounds, {});
  EXPECT_EQ(part.NumPartitions(), 2u);
  EXPECT_EQ(part.PartitionFor({2, 5}), 0u);
  EXPECT_EQ(part.PartitionFor({7, 5}), 1u);
  // Out-of-universe point routes to the nearest bounds.
  EXPECT_EQ(part.PartitionFor({-3, 5}), 0u);
  EXPECT_EQ(part.PartitionFor({14, 5}), 1u);
  EXPECT_EQ(part.Name(), "explicit");
}

TEST(ExplicitPartitionerTest, PreloadedExtentsAreKept) {
  std::vector<Envelope> bounds = {Envelope(0, 0, 5, 10)};
  std::vector<Envelope> extents = {Envelope(-1, -1, 6, 11)};
  ExplicitPartitioner part(bounds, extents);
  EXPECT_TRUE(part.PartitionExtent(0).Contains(Envelope(-1, -1, 6, 11)));
}

}  // namespace
}  // namespace stark
