// Tests for SpatialRDD: filters with every predicate, partition pruning,
// kNN, and the live/persistent indexing modes — all verified against brute
// force over the same data.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "test_util.h"

#include "common/rng.h"
#include "geometry/predicates.h"
#include "io/generator.h"
#include "partition/bsp_partitioner.h"
#include "partition/grid_partitioner.h"
#include "partition/st_grid_partitioner.h"
#include "obs/metrics.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {
namespace {

using Element = std::pair<STObject, int64_t>;

class SpatialRddTest : public ::testing::Test {
 protected:
  SpatialRddTest() {
    SkewedPointsOptions gen;
    gen.count = 2000;
    gen.universe = Envelope(0, 0, 100, 100);
    gen.seed = 51;
    auto points = GenerateSkewedPoints(gen);
    Rng rng(52);
    for (size_t i = 0; i < points.size(); ++i) {
      // Half the objects carry a temporal instant, matching real event data.
      STObject obj = (i % 2 == 0)
                         ? STObject(points[i].geo(), rng.UniformInt(0, 1000))
                         : points[i];
      data_.emplace_back(std::move(obj), static_cast<int64_t>(i));
    }
    universe_ = Envelope(0, 0, 100, 100);
  }

  SpatialRDD<int64_t> MakeSpatial(size_t partitions = 4) {
    return SpatialRDD<int64_t>::FromVector(&ctx_, data_, partitions);
  }

  std::set<int64_t> BruteForce(const STObject& query,
                               const JoinPredicate& pred) {
    std::set<int64_t> ids;
    for (const auto& [obj, id] : data_) {
      if (pred.Eval(obj, query)) ids.insert(id);
    }
    return ids;
  }

  static std::set<int64_t> Ids(const std::vector<Element>& elems) {
    std::set<int64_t> ids;
    for (const auto& [obj, id] : elems) ids.insert(id);
    return ids;
  }

  Context ctx_{4};
  std::vector<Element> data_;
  Envelope universe_;
};

STObject QueryPolygon() {
  // A polygon window over part of the universe, no temporal component.
  return STObject(Geometry::MakeBox(Envelope(20, 20, 60, 55)));
}

STObject QueryPolygonWithTime() {
  return STObject(Geometry::MakeBox(Envelope(20, 20, 60, 55)), 100, 500);
}

TEST_F(SpatialRddTest, IntersectsMatchesBruteForce) {
  const STObject qry = QueryPolygon();
  auto got = Ids(MakeSpatial().Intersects(qry).Collect());
  EXPECT_EQ(got, BruteForce(qry, JoinPredicate::Intersects()));
  EXPECT_FALSE(got.empty());
}

TEST_F(SpatialRddTest, ContainedByMatchesBruteForce) {
  const STObject qry = QueryPolygon();
  auto got = Ids(MakeSpatial().ContainedBy(qry).Collect());
  EXPECT_EQ(got, BruteForce(qry, JoinPredicate::ContainedBy()));
}

TEST_F(SpatialRddTest, TemporalComponentFiltersResults) {
  const STObject plain = QueryPolygon();
  const STObject timed = QueryPolygonWithTime();
  auto ids_plain = Ids(MakeSpatial().Intersects(plain).Collect());
  auto ids_timed = Ids(MakeSpatial().Intersects(timed).Collect());
  // The timed query only matches objects that carry time (formula (3));
  // the plain query only matches objects without time (formula (2)).
  EXPECT_EQ(ids_timed, BruteForce(timed, JoinPredicate::Intersects()));
  for (int64_t id : ids_timed) {
    EXPECT_TRUE(data_[static_cast<size_t>(id)].first.HasTime());
  }
  for (int64_t id : ids_plain) {
    EXPECT_FALSE(data_[static_cast<size_t>(id)].first.HasTime());
  }
}

TEST_F(SpatialRddTest, WithinDistanceMatchesBruteForce) {
  const STObject qry(Geometry::MakePoint(50, 50));
  const auto pred = JoinPredicate::WithinDistance(7.5);
  auto got = Ids(MakeSpatial().WithinDistance(qry, 7.5).Collect());
  EXPECT_EQ(got, BruteForce(qry, pred));
}

TEST_F(SpatialRddTest, WithinDistanceCustomFunction) {
  const STObject qry(Geometry::MakePoint(50, 50));
  DistanceFunction manhattan = ManhattanDistance;
  auto got = Ids(MakeSpatial().WithinDistance(qry, 10.0, manhattan).Collect());
  std::set<int64_t> expect;
  for (const auto& [obj, id] : data_) {
    if (ManhattanDistance(obj, qry) <= 10.0) expect.insert(id);
  }
  EXPECT_EQ(got, expect);
}

TEST_F(SpatialRddTest, GridPartitioningPreservesFilterResults) {
  const STObject qry = QueryPolygon();
  auto grid = std::make_shared<GridPartitioner>(universe_, 5);
  auto parted = MakeSpatial().PartitionBy(grid);
  EXPECT_EQ(parted.NumPartitions(), 25u);
  EXPECT_EQ(parted.rdd().Count(), data_.size());  // nothing lost or duplicated
  auto got = Ids(parted.Intersects(qry).Collect());
  EXPECT_EQ(got, BruteForce(qry, JoinPredicate::Intersects()));
}

TEST_F(SpatialRddTest, BspPartitioningPreservesFilterResults) {
  const STObject qry = QueryPolygon();
  std::vector<Coordinate> centroids;
  for (const auto& [obj, id] : data_) centroids.push_back(obj.Centroid());
  BSPartitioner::Options opt;
  opt.max_cost = 200;
  auto bsp = std::make_shared<BSPartitioner>(universe_, centroids, opt);
  auto parted = MakeSpatial().PartitionBy(bsp);
  EXPECT_EQ(parted.rdd().Count(), data_.size());
  EXPECT_EQ(Ids(parted.Intersects(qry).Collect()),
            BruteForce(qry, JoinPredicate::Intersects()));
  EXPECT_EQ(Ids(parted.ContainedBy(qry).Collect()),
            BruteForce(qry, JoinPredicate::ContainedBy()));
}

TEST_F(SpatialRddTest, PartitionPruningSkipsIrrelevantPartitions) {
  // Count evaluated elements through a side-effect counter: with a small
  // query window and a grid partitioner, pruning must touch fewer elements
  // than the full scan.
  auto grid = std::make_shared<GridPartitioner>(universe_, 5);
  auto parted = MakeSpatial().PartitionBy(grid);
  const STObject qry(Geometry::MakeBox(Envelope(1, 1, 6, 6)));

  // Pruned path: partitions whose extent misses the query return empty
  // without scanning. We verify via partition-level result counts.
  auto result_parts = parted.Intersects(qry).CollectPartitions();
  size_t non_empty = 0;
  for (const auto& p : result_parts) non_empty += p.empty() ? 0 : 1;
  EXPECT_LE(non_empty, 4u);  // the window overlaps at most 4 cells
  EXPECT_EQ(result_parts.size(), 25u);
}

TEST_F(SpatialRddTest, KnnReturnsSortedNearest) {
  const STObject qry(Geometry::MakePoint(42, 42));
  auto knn = MakeSpatial().Knn(qry, 10);
  ASSERT_EQ(knn.size(), 10u);
  for (size_t i = 1; i < knn.size(); ++i) {
    EXPECT_LE(knn[i - 1].first, knn[i].first);
  }
  // Verify against brute force distances.
  std::vector<double> dists;
  for (const auto& [obj, id] : data_) {
    dists.push_back(Distance(obj.geo(), qry.geo()));
  }
  std::sort(dists.begin(), dists.end());
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_DOUBLE_EQ(knn[i].first, dists[i]);
  }
}

TEST_F(SpatialRddTest, KnnWithKLargerThanData) {
  auto small = SpatialRDD<int64_t>::FromVector(
      &ctx_, {data_.begin(), data_.begin() + 5}, 2);
  EXPECT_EQ(small.Knn(STObject(Geometry::MakePoint(0, 0)), 50).size(), 5u);
}

// A user distance function that returns NaN for part of the data — e.g. a
// haversine formula fed coordinates outside its domain. NaN used to break
// partial_sort's strict weak ordering (undefined behavior, garbage
// neighbors); it must rank as "infinitely far" instead.
double NanWestOfFifty(const STObject& a, const STObject& b) {
  if (a.Centroid().x < 50.0) return std::nan("");
  return Distance(a.geo(), b.geo());
}

TEST_F(SpatialRddTest, KnnTreatsNanDistanceAsInfinitelyFar) {
  const STObject qry(Geometry::MakePoint(42, 42));
  auto knn = MakeSpatial().Knn(qry, 10, NanWestOfFifty);
  ASSERT_EQ(knn.size(), 10u);
  // Brute force over the finite-distance subset only.
  std::vector<double> dists;
  for (const auto& [obj, id] : data_) {
    const double d = NanWestOfFifty(obj, qry);
    if (!std::isnan(d)) dists.push_back(d);
  }
  std::sort(dists.begin(), dists.end());
  ASSERT_GE(dists.size(), 10u);
  for (size_t i = 0; i < knn.size(); ++i) {
    EXPECT_DOUBLE_EQ(knn[i].first, dists[i]) << i;
    // No NaN-distance element may surface as a neighbor.
    EXPECT_GE(knn[i].second.first.Centroid().x, 50.0) << i;
  }
}

TEST_F(SpatialRddTest, KnnAllNanDistancesReturnsInfinities) {
  const STObject qry(Geometry::MakePoint(42, 42));
  auto knn = MakeSpatial().Knn(
      qry, 5, [](const STObject&, const STObject&) { return std::nan(""); });
  ASSERT_EQ(knn.size(), 5u);  // k results still come back, ranked +inf
  for (const auto& [dist, elem] : knn) {
    EXPECT_TRUE(std::isinf(dist));
  }
}

TEST_F(SpatialRddTest, IndexedKnnWithCustomFunctionMatchesScan) {
  const STObject qry(Geometry::MakePoint(42, 42));
  auto indexed = MakeSpatial().Index(8);
  auto knn_indexed = indexed.Knn(qry, 10, NanWestOfFifty);
  auto knn_scan = MakeSpatial().Knn(qry, 10, NanWestOfFifty);
  ASSERT_EQ(knn_indexed.size(), knn_scan.size());
  for (size_t i = 0; i < knn_indexed.size(); ++i) {
    EXPECT_DOUBLE_EQ(knn_indexed[i].first, knn_scan[i].first) << i;
    EXPECT_GE(knn_indexed[i].second.first.Centroid().x, 50.0) << i;
  }
}

TEST_F(SpatialRddTest, LiveIndexMatchesScan) {
  const STObject qry = QueryPolygon();
  for (size_t order : {2u, 5u, 16u}) {
    auto indexed = MakeSpatial().LiveIndex(order);
    EXPECT_EQ(Ids(indexed.Intersects(qry).Collect()),
              BruteForce(qry, JoinPredicate::Intersects()))
        << "order " << order;
  }
}

TEST_F(SpatialRddTest, LiveIndexWithPartitionerMatchesScan) {
  const STObject qry = QueryPolygon();
  auto grid = std::make_shared<GridPartitioner>(universe_, 4);
  auto indexed = MakeSpatial().LiveIndex(5, grid);
  EXPECT_EQ(indexed.NumPartitions(), 16u);
  EXPECT_EQ(Ids(indexed.Intersects(qry).Collect()),
            BruteForce(qry, JoinPredicate::Intersects()));
  EXPECT_EQ(Ids(indexed.WithinDistance(qry, 5.0).Collect()),
            BruteForce(qry, JoinPredicate::WithinDistance(5.0)));
}

TEST_F(SpatialRddTest, IndexedKnnMatchesScanKnn) {
  const STObject qry(Geometry::MakePoint(42, 42));
  auto indexed = MakeSpatial().Index(8);
  auto knn_indexed = indexed.Knn(qry, 15);
  auto knn_scan = MakeSpatial().Knn(qry, 15);
  ASSERT_EQ(knn_indexed.size(), knn_scan.size());
  for (size_t i = 0; i < knn_indexed.size(); ++i) {
    EXPECT_DOUBLE_EQ(knn_indexed[i].first, knn_scan[i].first);
  }
}

TEST_F(SpatialRddTest, ToElementsRoundTrips) {
  auto indexed = MakeSpatial().Index(8);
  EXPECT_EQ(Ids(indexed.ToElements().Collect()), Ids(data_));
}

TEST_F(SpatialRddTest, PersistentIndexSaveLoadQueryEquivalence) {
  const std::string dir = test::UniqueTempPath("stark_index");
  std::remove((dir + "/index.meta").c_str());
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);

  auto grid = std::make_shared<GridPartitioner>(universe_, 3);
  auto indexed = MakeSpatial().Index(6, grid);
  ASSERT_TRUE(indexed.Save(dir).ok());

  auto loaded = IndexedSpatialRDD<int64_t>::Load(&ctx_, dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& reloaded = loaded.ValueOrDie();
  EXPECT_EQ(reloaded.NumPartitions(), indexed.NumPartitions());

  const STObject qry = QueryPolygon();
  EXPECT_EQ(Ids(reloaded.Intersects(qry).Collect()),
            Ids(indexed.Intersects(qry).Collect()));
  EXPECT_EQ(Ids(reloaded.ToElements().Collect()), Ids(data_));

  const STObject pt(Geometry::MakePoint(42, 42));
  auto knn_a = indexed.Knn(pt, 7);
  auto knn_b = reloaded.Knn(pt, 7);
  ASSERT_EQ(knn_a.size(), knn_b.size());
  for (size_t i = 0; i < knn_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(knn_a[i].first, knn_b[i].first);
  }
}

TEST_F(SpatialRddTest, LoadFromMissingDirectoryFails) {
  auto loaded =
      IndexedSpatialRDD<int64_t>::Load(&ctx_, "/nonexistent/stark_idx");
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

// A part file whose element count exceeds its size must be a clean
// IOError, not a length_error/bad_alloc thrown out of reserve().
TEST_F(SpatialRddTest, LoadRejectsElementCountBeyondPartSize) {
  const std::string dir = test::UniqueTempPath("stark_index_count");
  ASSERT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()), 0);
  ASSERT_TRUE(MakeSpatial(1).Index(6).Save(dir).ok());

  BinaryWriter part;
  part.WriteU32(0x53544950);  // "STIP"
  part.WriteU64(uint64_t{1} << 60);
  part.WriteU64(0);
  ASSERT_TRUE(WriteFileBytes(dir + "/part-0.idx", part.buffer()).ok());

  auto loaded = IndexedSpatialRDD<int64_t>::Load(&ctx_, dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("count"), std::string::npos);
  std::system(("rm -rf " + dir).c_str());
}

// A count the bytes left could hold at one byte per row, but not at the
// ten bytes every row takes (geometry tag, u64 count, time flag), is
// rejected by the count check before reserve() — which would otherwise ask
// for sizeof(Element) plus an envelope per row.
TEST_F(SpatialRddTest, LoadRejectsACountBeyondTheMinimumRowSize) {
  const std::string dir = test::UniqueTempPath("stark_index_row_size");
  ASSERT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()), 0);
  ASSERT_TRUE(MakeSpatial(1).Index(6).Save(dir).ok());

  BinaryWriter part;
  part.WriteU32(0x53544950);  // "STIP"
  part.WriteU64(100);         // 500 bytes follow: room for 50 rows at most
  for (int i = 0; i < 500; ++i) part.WriteU8(0);
  ASSERT_TRUE(WriteFileBytes(dir + "/part-0.idx", part.buffer()).ok());

  auto loaded = IndexedSpatialRDD<int64_t>::Load(&ctx_, dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("element count"),
            std::string::npos)
      << loaded.status().ToString();
  std::system(("rm -rf " + dir).c_str());
}

// ---- Persistent index: one engine task per part file --------------------

/// An empty directory unique to this test process.
std::string FreshDir(const std::string& stem) {
  const std::string dir = test::UniqueTempPath(stem);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The elements of every partition, in tree storage order.
std::vector<std::vector<Element>> PartitionElements(
    const IndexedSpatialRDD<int64_t>& indexed) {
  std::vector<std::vector<Element>> out;
  for (const auto& trees : indexed.trees().CollectPartitions()) {
    out.emplace_back();
    for (const auto& tree : trees) {
      tree->ForEach([&](const Envelope&, const Element& e) {
        out.back().push_back(e);
      });
    }
  }
  return out;
}

class PersistentIndexTest : public SpatialRddTest {
 protected:
  /// The fixture's data with every 4th element a 1x1 box footprint (time
  /// kept), BSP-partitioned into at least 16 parts and indexed.
  IndexedSpatialRDD<int64_t> MixedBspIndex() {
    std::vector<Element> mixed = data_;
    std::vector<Coordinate> centroids;
    for (size_t i = 0; i < mixed.size(); ++i) {
      STObject& obj = mixed[i].first;
      if (i % 4 == 3) {
        const Coordinate c = obj.Centroid();
        obj = STObject(Geometry::MakeBox(Envelope(c.x - 0.5, c.y - 0.5,
                                                  c.x + 0.5, c.y + 0.5)),
                       obj.time());
      }
      centroids.push_back(obj.Centroid());
    }
    BSPartitioner::Options opt;
    opt.max_cost = 100;
    auto bsp = std::make_shared<BSPartitioner>(universe_, centroids, opt);
    return SpatialRDD<int64_t>::FromVector(&ctx_, std::move(mixed), 4)
        .Index(6, bsp);
  }

  static Result<IndexedSpatialRDD<int64_t>> Load(Context* ctx,
                                                 const std::string& dir) {
    return IndexedSpatialRDD<int64_t>::Load(ctx, dir);
  }
};

TEST_F(PersistentIndexTest, LoadOnOneAndFourWorkersIsIdentical) {
  const std::string dir = FreshDir("stark_index_parallel");
  const auto indexed = MixedBspIndex();
  ASSERT_GE(indexed.NumPartitions(), 16u);
  ASSERT_TRUE(indexed.Save(dir).ok());

  Context serial(1);
  Context parallel(4);
  auto one_or = Load(&serial, dir);
  auto four_or = Load(&parallel, dir);
  ASSERT_TRUE(one_or.ok()) << one_or.status().ToString();
  ASSERT_TRUE(four_or.ok()) << four_or.status().ToString();
  const auto& one = one_or.ValueOrDie();
  const auto& four = four_or.ValueOrDie();

  const auto parts = PartitionElements(one);
  EXPECT_EQ(parts, PartitionElements(four));
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  EXPECT_EQ(total, data_.size());
  ASSERT_NE(one.extents(), nullptr);
  ASSERT_NE(four.extents(), nullptr);
  EXPECT_EQ(*one.extents(), *four.extents());
  EXPECT_EQ(*one.extents(), *indexed.extents());

  const STObject qry = QueryPolygon();
  const std::vector<Element> filtered = one.Intersects(qry).Collect();
  EXPECT_EQ(filtered, four.Intersects(qry).Collect());
  EXPECT_EQ(Ids(filtered), Ids(indexed.Intersects(qry).Collect()));

  const STObject pt(Geometry::MakePoint(42, 42));
  const auto knn = one.Knn(pt, 9);
  ASSERT_EQ(knn.size(), 9u);
  EXPECT_EQ(knn, four.Knn(pt, 9));

  std::vector<Element> regions;
  for (int r = 0; r < 25; ++r) {
    const double x = 4.0 * r;
    regions.emplace_back(
        STObject(Geometry::MakeBox(Envelope(x, x, x + 6.0, x + 6.0))), r);
  }
  auto join = [&regions](Context* ctx, const IndexedSpatialRDD<int64_t>& in) {
    auto pairs =
        SpatialJoinProject(in, SpatialRDD<int64_t>::FromVector(ctx, regions),
                           JoinPredicate::Intersects(), JoinOptions{},
                           [](const Element& l, const Element& r) {
                             return std::make_pair(l.second, r.second);
                           })
            .Collect();
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  const auto joined = join(&serial, one);
  EXPECT_FALSE(joined.empty());
  EXPECT_EQ(joined, join(&parallel, four));
  std::filesystem::remove_all(dir);
}

TEST_F(PersistentIndexTest, LoadReturnsTheLowestIndexBadPartEveryTime) {
  const std::string dir = FreshDir("stark_index_two_bad_parts");
  const auto indexed = MixedBspIndex();
  ASSERT_GE(indexed.NumPartitions(), 12u);
  ASSERT_TRUE(indexed.Save(dir).ok());

  // Part 3 fails late (its last element is cut short), part 11 at once.
  auto part3 = ReadFileBytes(dir + "/part-3.idx");
  ASSERT_TRUE(part3.ok());
  std::vector<char> truncated = part3.ValueOrDie();
  truncated.pop_back();
  ASSERT_TRUE(WriteFileBytes(dir + "/part-3.idx", truncated).ok());
  BinaryWriter bad_magic;
  bad_magic.WriteU32(0xDEADBEEF);
  bad_magic.WriteU64(0);
  ASSERT_TRUE(WriteFileBytes(dir + "/part-11.idx", bad_magic.buffer()).ok());

  for (int i = 0; i < 20; ++i) {
    auto loaded = Load(&ctx_, dir);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
    EXPECT_NE(loaded.status().message().find("end of binary stream"),
              std::string::npos)
        << loaded.status().ToString();
  }
  std::filesystem::remove_all(dir);
}

// An order read from index.meta used to reach PackedRTree unchecked:
// UINT64_MAX wrapped the STR leaf count to zero (a division by zero), and a
// large finite order made every probe allocate `order` scratch slots.
TEST_F(PersistentIndexTest, LoadRejectsAnOrderAboveTheMaximum) {
  const std::string dir = FreshDir("stark_index_order");
  ASSERT_TRUE(MakeSpatial(1).Index(6).Save(dir).ok());
  for (const uint64_t order : {UINT64_MAX, uint64_t{1} << 40,
                               uint64_t{PackedRTree<Element>::kMaxOrder} + 1}) {
    BinaryWriter meta;
    meta.WriteU32(0x53544958);  // "STIX"
    meta.WriteU64(1);
    meta.WriteU64(order);
    WriteEnvelope(&meta, Envelope());
    ASSERT_TRUE(WriteFileBytes(dir + "/index.meta", meta.buffer()).ok());
    Result<IndexedSpatialRDD<int64_t>> loaded = Status::UnknownError("unset");
    EXPECT_NO_THROW(loaded = Load(&ctx_, dir));
    ASSERT_FALSE(loaded.ok()) << order;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << order;
    EXPECT_NE(loaded.status().message().find("order"), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(PersistentIndexTest, IndexClampsTheOrderItSaves) {
  const std::string dir = FreshDir("stark_index_clamped_order");
  const auto indexed = MakeSpatial(2).Index(size_t{1} << 40);
  EXPECT_EQ(indexed.order(), PackedRTree<Element>::kMaxOrder);
  ASSERT_TRUE(indexed.Save(dir).ok());
  auto loaded = Load(&ctx_, dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().order(), PackedRTree<Element>::kMaxOrder);
  EXPECT_EQ(Ids(loaded.ValueOrDie().ToElements().Collect()), Ids(data_));
  std::filesystem::remove_all(dir);
}

TEST_F(PersistentIndexTest, FailedSaveLeavesNoLoadableIndex) {
  const std::string dir = FreshDir("stark_index_failed_save");
  const auto indexed = MixedBspIndex();
  ASSERT_TRUE(indexed.Save(dir).ok());
  ASSERT_TRUE(Load(&ctx_, dir).ok());

  // A directory where part 3 belongs makes that part's write fail; the
  // meta of the earlier Save must not survive to describe the new parts.
  std::filesystem::remove(dir + "/part-3.idx");
  std::filesystem::create_directory(dir + "/part-3.idx");
  const Status saved = indexed.Save(dir);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kIOError);
  EXPECT_NE(saved.message().find("part-3.idx"), std::string::npos)
      << saved.ToString();
  EXPECT_FALSE(std::filesystem::exists(dir + "/index.meta"));
  auto loaded = Load(&ctx_, dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  std::filesystem::remove_all(dir);
}

// Save writes an empty extent per part of an unpartitioned index; Load used
// to keep them and prune every part, so every filter came back empty.
TEST_F(PersistentIndexTest, UnpartitionedIndexLoadsWithoutPruning) {
  const std::string dir = FreshDir("stark_index_unpartitioned");
  ASSERT_TRUE(MakeSpatial(4).Index(6).Save(dir).ok());
  auto loaded = Load(&ctx_, dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().extents(), nullptr);
  const STObject qry = QueryPolygon();
  const std::set<int64_t> want = BruteForce(qry, JoinPredicate::Intersects());
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(Ids(loaded.ValueOrDie().Intersects(qry).Collect()), want);
  std::filesystem::remove_all(dir);
}

// A polygon count in a part used to throw out of reserve(), which the
// task turned into a retried UnknownError instead of a typed IOError.
TEST_F(PersistentIndexTest, LoadRejectsABogusPolygonCount) {
  const std::string dir = FreshDir("stark_index_polygon_count");
  ASSERT_TRUE(MakeSpatial(1).Index(6).Save(dir).ok());
  for (const uint64_t n_polys : {uint64_t{1} << 60, uint64_t{1} << 40}) {
    BinaryWriter part;
    part.WriteU32(0x53544950);  // "STIP"
    part.WriteU64(1);
    part.WriteU8(3);  // POLYGON tag
    part.WriteU64(n_polys);
    part.WriteU64(0);
    ASSERT_TRUE(WriteFileBytes(dir + "/part-0.idx", part.buffer()).ok());
    Result<IndexedSpatialRDD<int64_t>> loaded = Status::UnknownError("unset");
    EXPECT_NO_THROW(loaded = Load(&ctx_, dir));
    ASSERT_FALSE(loaded.ok()) << n_polys;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("polygon"), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

/// \p n mixed rows (points, boxes, star polygons, lines, multipoints),
/// every other one timed, with ids counting up from \p *next_id. Every 5th
/// row repeats the geometry before it, so the STR sorts meet ties.
std::vector<Element> MixedRows(uint64_t seed, size_t n, int64_t* next_id) {
  const std::vector<Geometry> pop = test::RandomPopulation(seed, n);
  std::vector<Element> rows;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const Geometry& g = pop[i % 5 == 4 ? i - 1 : i];
    STObject obj = i % 2 == 0 ? STObject(g, rng.UniformInt(0, 1000))
                              : STObject(g);
    rows.emplace_back(std::move(obj), (*next_id)++);
  }
  return rows;
}

/// Requires \p loaded to be \p saved node for node: the same shape, node
/// boxes, storage order, and Query and Knn emission order.
void ExpectSameTree(const PackedRTree<Element>& saved,
                    const PackedRTree<Element>& loaded, uint64_t seed) {
  ASSERT_EQ(loaded.size(), saved.size());
  EXPECT_EQ(loaded.num_nodes(), saved.num_nodes());
  EXPECT_EQ(loaded.num_leaf_nodes(), saved.num_leaf_nodes());
  EXPECT_EQ(loaded.Depth(), saved.Depth());
  EXPECT_EQ(loaded.bounds(), saved.bounds());

  auto rows = [](const PackedRTree<Element>& tree) {
    std::vector<std::pair<Envelope, Element>> out;
    tree.ForEach([&](const Envelope& env, const Element& e) {
      out.emplace_back(env, e);
    });
    return out;
  };
  EXPECT_TRUE(rows(loaded) == rows(saved));

  auto query_ids = [](const PackedRTree<Element>& tree, const Envelope& q) {
    std::vector<int64_t> ids;
    tree.Query(q, [&](const Envelope&, const Element& e) {
      ids.push_back(e.second);
    });
    return ids;
  };
  auto knn = [](const PackedRTree<Element>& tree, const Geometry& probe,
                size_t k) {
    std::vector<std::pair<double, int64_t>> out;
    for (const auto& [d, e] : tree.Knn(
             probe.envelope(), k,
             [&](const Element& e) { return Distance(e.first.geo(), probe); },
             [](const auto& a, const auto& b) {
               return a.first < b.first ||
                      (a.first == b.first && a.second->second <
                                                 b.second->second);
             })) {
      out.emplace_back(d, e->second);
    }
    return out;
  };
  Rng rng(seed);
  for (int q = 0; q < 40; ++q) {
    const Envelope box = test::RandomEnvelope(&rng, 30.0);
    EXPECT_EQ(query_ids(loaded, box), query_ids(saved, box)) << "query " << q;
    const Geometry probe = Geometry::MakePoint(box.Center());
    const size_t k = 1 + q % 9;
    EXPECT_EQ(knn(loaded, probe, k), knn(saved, probe, k)) << "kNN " << q;
  }
}

/// Partition sizes 0, 1, cap - 1 and cap + 1, then one whose STR slices
/// end in a short leaf (ceil(n / slices) not a multiple of cap).
std::vector<size_t> PartSizesFor(size_t cap) {
  size_t short_leaf = 3 * cap + 1;
  for (;; ++short_leaf) {
    const size_t leaves = (short_leaf + cap - 1) / cap;
    const size_t slices = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(leaves))));
    if (((short_leaf + slices - 1) / slices) % cap != 0) break;
  }
  return {0, 1, cap - 1, cap + 1, short_leaf};
}

// Save writes each tree in its STR storage order and Load adopts that order
// with no sort, so every loaded tree is the saved tree.
TEST_F(PersistentIndexTest, LoadedTreeIsTheSavedTree) {
  for (const size_t order : {size_t{2}, size_t{3}, size_t{10}, size_t{5000}}) {
    SCOPED_TRACE("order " + std::to_string(order));
    const size_t cap = PackedRTree<Element>::ClampOrder(order);
    std::vector<std::vector<Element>> parts;
    int64_t next_id = 0;
    for (const size_t n : PartSizesFor(cap)) {
      parts.push_back(MixedRows(order * 31 + n, n, &next_id));
    }
    const auto indexed =
        SpatialRDD<int64_t>(MakeRDDFromPartitions(&ctx_, std::move(parts)))
            .Index(order);
    const std::string dir = FreshDir("stark_index_same_tree");
    ASSERT_TRUE(indexed.Save(dir).ok());
    auto loaded = Load(&ctx_, dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.ValueOrDie().order(), cap);

    const auto saved_trees = indexed.trees().CollectPartitions();
    const auto loaded_trees = loaded.ValueOrDie().trees().CollectPartitions();
    ASSERT_EQ(loaded_trees.size(), saved_trees.size());
    for (size_t p = 0; p < saved_trees.size(); ++p) {
      SCOPED_TRACE("part " + std::to_string(p));
      ASSERT_EQ(saved_trees[p].size(), 1u);
      ASSERT_EQ(loaded_trees[p].size(), 1u);
      ExpectSameTree(*saved_trees[p][0], *loaded_trees[p][0], 100 + p);
    }
    std::filesystem::remove_all(dir);
  }
}

// A part need not be one tree in its own storage order: trees built with
// an order other than the index's order(), or two trees in one partition,
// are saved back to back and still load as exact (if less tight) trees.
TEST_F(PersistentIndexTest, PartsInAForeignOrderLoadExact) {
  using TreePtr = IndexedSpatialRDD<int64_t>::TreePtr;
  int64_t next_id = 0;
  std::vector<Element> all;
  std::vector<std::vector<TreePtr>> parts;
  for (size_t p = 0; p < 4; ++p) {
    std::vector<Element> rows = MixedRows(700 + p, 150, &next_id);
    all.insert(all.end(), rows.begin(), rows.end());
    auto tree = [](std::vector<Element> elems, size_t order) {
      std::vector<std::pair<Envelope, Element>> entries;
      for (Element& e : elems) {
        const Envelope env = e.first.envelope();
        entries.emplace_back(env, std::move(e));
      }
      return std::make_shared<const PackedRTree<Element>>(order,
                                                          std::move(entries));
    };
    if (p == 3) {
      const auto mid = rows.begin() + 60;
      parts.push_back({tree({rows.begin(), mid}, 5), tree({mid, rows.end()}, 2)});
    } else {
      parts.push_back({tree(std::move(rows), 3)});
    }
  }
  const IndexedSpatialRDD<int64_t> indexed(
      MakeRDDFromPartitions(&ctx_, std::move(parts)), nullptr, 10);
  const std::string dir = FreshDir("stark_index_foreign_order");
  ASSERT_TRUE(indexed.Save(dir).ok());
  auto loaded_or = Load(&ctx_, dir);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const auto& loaded = loaded_or.ValueOrDie();

  auto brute = [&all](const STObject& query, const JoinPredicate& pred) {
    std::set<int64_t> ids;
    for (const auto& [obj, id] : all) {
      if (pred.Eval(obj, query)) ids.insert(id);
    }
    return ids;
  };
  EXPECT_EQ(Ids(loaded.ToElements().Collect()), Ids(all));
  Rng rng(77);
  for (int q = 0; q < 30; ++q) {
    const STObject query(Geometry::MakeBox(test::RandomEnvelope(&rng, 30.0)));
    EXPECT_EQ(Ids(loaded.Intersects(query).Collect()),
              brute(query, JoinPredicate::Intersects()))
        << "query " << q;
    EXPECT_EQ(Ids(loaded.WithinDistance(query, 3.0).Collect()),
              brute(query, JoinPredicate::WithinDistance(3.0)))
        << "query " << q;

    const STObject pt(Geometry::MakePoint(query.envelope().Center()));
    std::vector<double> want;
    for (const auto& [obj, id] : all) {
      want.push_back(Distance(obj.geo(), pt.geo()));
    }
    std::sort(want.begin(), want.end());
    want.resize(7);
    std::vector<double> got;
    for (const auto& [d, e] : loaded.Knn(pt, 7)) got.push_back(d);
    EXPECT_EQ(got, want) << "kNN " << q;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(SpatialRddTest, SpatialWrapperMirrorsImplicitConversion) {
  RDD<Element> plain = MakeRDD(&ctx_, data_, 4);
  SpatialRDD<int64_t> wrapped = Spatial(plain);
  EXPECT_EQ(wrapped.NumPartitions(), 4u);
  EXPECT_EQ(wrapped.rdd().Count(), data_.size());
}

// ---- The spatial shuffle's extents and in-place join inputs ---------------

/// Every shuffled element sits in the partition PartitionForST assigns it,
/// and every extent is that partition's bounds grown by the envelopes of
/// exactly the elements routed to it — what growing the extent element by
/// element gives.
void ExpectExtentsMatchBruteForce(const SpatialRDD<int64_t>& parted) {
  const SpatialPartitioner& part = *parted.partitioner();
  const std::vector<std::vector<Element>> parts =
      parted.rdd().CollectPartitions();
  ASSERT_EQ(parts.size(), part.NumPartitions());
  for (size_t t = 0; t < parts.size(); ++t) {
    Envelope want = part.PartitionBounds(t);
    for (const Element& e : parts[t]) {
      EXPECT_EQ(part.PartitionForST(e.first.Centroid(), e.first.time()), t);
      want.ExpandToInclude(e.first.envelope());
    }
    EXPECT_EQ(part.PartitionExtent(t), want) << "partition " << t;
  }
}

TEST_F(SpatialRddTest, ShuffledExtentsEqualPerPartitionEnvelopeUnions) {
  // Boxes of up to 6x6 around the points, so extents outgrow the bounds.
  std::vector<Element> boxes;
  Rng rng(53);
  for (const auto& [obj, id] : data_) {
    const Coordinate c = obj.Centroid();
    const double w = rng.Uniform(0, 6);
    const double h = rng.Uniform(0, 6);
    Geometry box = Geometry::MakeBox(Envelope(c.x - w / 2, c.y - h / 2,
                                              c.x + w / 2, c.y + h / 2));
    boxes.emplace_back(STObject(std::move(box), obj.time()), id);
  }
  // A second dataset in one corner leaves most partitions empty.
  std::vector<Element> corner;
  for (const Element& e : boxes) {
    if (e.first.Centroid().x < 15 && e.first.Centroid().y < 15) {
      corner.push_back(e);
    }
  }
  ASSERT_FALSE(corner.empty());

  std::vector<Coordinate> centroids;
  for (const Element& e : boxes) centroids.push_back(e.first.Centroid());
  BSPartitioner::Options bsp_options;
  bsp_options.max_cost = 200;
  const std::vector<std::shared_ptr<SpatialPartitioner>> partitioners = {
      std::make_shared<GridPartitioner>(universe_, 5),
      std::make_shared<BSPartitioner>(universe_, centroids, bsp_options),
      std::make_shared<SpatioTemporalGridPartitioner>(universe_, 4, 0, 1000,
                                                      3)};
  for (const auto& partitioner : partitioners) {
    SCOPED_TRACE(partitioner->Name());
    // One partitioner reused for both datasets: each shuffle's extents
    // come from its own elements only.
    const auto all =
        SpatialRDD<int64_t>::FromVector(&ctx_, boxes, 4).PartitionBy(partitioner);
    const auto few =
        SpatialRDD<int64_t>::FromVector(&ctx_, corner, 3).PartitionBy(partitioner);
    ExpectExtentsMatchBruteForce(all);
    ExpectExtentsMatchBruteForce(few);
    size_t empty = 0;
    for (size_t t = 0; t < few.NumPartitions(); ++t) {
      if (few.partitioner()->PartitionExtent(t) ==
          partitioner->PartitionBounds(t)) {
        ++empty;
      }
    }
    EXPECT_GT(empty, 0u);
    // The caller's instance is never grown.
    for (size_t t = 0; t < partitioner->NumPartitions(); ++t) {
      EXPECT_EQ(partitioner->PartitionExtent(t),
                partitioner->PartitionBounds(t));
    }
  }
}

/// A join payload that counts every copy made of it, anywhere.
struct CountedId {
  static std::atomic<int64_t> copies;
  int64_t id = 0;

  CountedId() = default;
  explicit CountedId(int64_t v) : id(v) {}
  CountedId(const CountedId& other) : id(other.id) { copies.fetch_add(1); }
  CountedId& operator=(const CountedId& other) {
    id = other.id;
    copies.fetch_add(1);
    return *this;
  }
  CountedId(CountedId&&) noexcept = default;
  CountedId& operator=(CountedId&&) noexcept = default;
};
std::atomic<int64_t> CountedId::copies{0};

TEST_F(SpatialRddTest, JoinReadsStoredInputsWithoutCopying) {
  using Counted = std::pair<STObject, CountedId>;
  constexpr size_t kRows = 600;
  constexpr double kDistance = 3.0;
  const JoinPredicate pred = JoinPredicate::WithinDistance(kDistance);
  std::vector<std::vector<Counted>> parts(3);
  for (size_t i = 0; i < kRows; ++i) {
    parts[i % 3].emplace_back(data_[i].first, CountedId(data_[i].second));
  }
  size_t expected = 0;
  for (size_t i = 0; i < kRows; ++i) {
    for (size_t j = 0; j < kRows; ++j) {
      if (pred.Eval(data_[i].first, data_[j].first)) ++expected;
    }
  }
  ASSERT_GT(expected, kRows);

  const SpatialRDD<CountedId> in_memory(
      MakeRDDFromPartitions(&ctx_, std::move(parts)));
  const SpatialRDD<CountedId> cached =
      in_memory.PartitionBy(std::make_shared<GridPartitioner>(universe_, 4))
          .Cache();
  const auto ids = [](const Counted& l, const Counted& r) {
    return std::pair<int64_t, int64_t>(l.second.id, r.second.id);
  };
  auto cache_delta = [](auto&& action) {
    obs::MetricsRegistry& m = obs::DefaultMetrics();
    const uint64_t hits = m.GetCounter("engine.cache.hits")->Value();
    const uint64_t misses = m.GetCounter("engine.cache.misses")->Value();
    action();
    return std::pair<uint64_t, uint64_t>(
        m.GetCounter("engine.cache.hits")->Value() - hits,
        m.GetCounter("engine.cache.misses")->Value() - misses);
  };
  using Delta = std::pair<uint64_t, uint64_t>;  // (hits, misses)
  const size_t n = cached.NumPartitions();

  CountedId::copies = 0;
  EXPECT_EQ(SpatialJoinProject(in_memory, in_memory, pred, {}, ids).Count(),
            expected);
  // Cold cache: a self-join reads its one input once, so every read misses.
  EXPECT_EQ(cache_delta([&] {
              EXPECT_EQ(SpatialJoinProject(cached, cached, pred, {}, ids)
                            .Count(),
                        expected);
            }),
            (Delta{0, n}));
  EXPECT_EQ(cache_delta([&] {
              EXPECT_EQ(SpatialJoinProject(cached, in_memory, pred, {}, ids)
                            .Count(),
                        expected);
            }),
            (Delta{n, 0}));
  EXPECT_EQ(CountedId::copies.load(), 0);
}

}  // namespace
}  // namespace stark
