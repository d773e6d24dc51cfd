// Tests for DBSCAN: the sequential reference implementation and the
// distributed MR-DBSCAN-style operator, including the equivalence property
// distributed == sequential (as partitions of the point set).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "clustering/distributed_dbscan.h"
#include "clustering/union_find.h"
#include "common/rng.h"
#include "fault/failpoint.h"
#include "io/generator.h"
#include "partition/bsp_partitioner.h"
#include "partition/grid_partitioner.h"

namespace stark {
namespace {

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(6);
  EXPECT_FALSE(uf.Connected(0, 1));
  uf.Union(0, 1);
  uf.Union(2, 3);
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(1, 2));
  uf.Union(1, 3);
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 5));
  EXPECT_EQ(uf.Find(0), uf.Find(3));
}

TEST(DbscanLocalTest, EmptyInput) {
  auto result = DbscanLocal({}, {1.0, 3});
  EXPECT_TRUE(result.labels.empty());
  EXPECT_EQ(result.num_clusters, 0u);
}

TEST(DbscanLocalTest, TwoClustersAndNoise) {
  // Two tight groups of 4 points each, plus one far-away noise point.
  std::vector<Coordinate> pts = {
      {0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1},          // cluster A
      {10, 10}, {10.1, 10}, {10, 10.1}, {10.1, 10.1},  // cluster B
      {50, 50},                                        // noise
  };
  auto result = DbscanLocal(pts, {0.5, 3});
  EXPECT_EQ(result.num_clusters, 2u);
  EXPECT_EQ(result.labels[0], result.labels[1]);
  EXPECT_EQ(result.labels[0], result.labels[3]);
  EXPECT_EQ(result.labels[4], result.labels[7]);
  EXPECT_NE(result.labels[0], result.labels[4]);
  EXPECT_EQ(result.labels[8], kNoise);
  EXPECT_FALSE(result.core[8]);
  EXPECT_TRUE(result.core[0]);
}

TEST(DbscanLocalTest, MinPtsCountsSelf) {
  // Two points within eps: with min_pts = 2 they form a cluster; with 3
  // they are noise.
  std::vector<Coordinate> pts = {{0, 0}, {0.1, 0}};
  EXPECT_EQ(DbscanLocal(pts, {0.5, 2}).num_clusters, 1u);
  EXPECT_EQ(DbscanLocal(pts, {0.5, 3}).num_clusters, 0u);
}

TEST(DbscanLocalTest, ChainOfCorePointsFormsOneCluster) {
  // Points spaced 0.9 apart with eps 1.0: density-connected chain.
  std::vector<Coordinate> pts;
  for (int i = 0; i < 20; ++i) pts.push_back({0.9 * i, 0.0});
  auto result = DbscanLocal(pts, {1.0, 2});
  EXPECT_EQ(result.num_clusters, 1u);
  for (int64_t label : result.labels) EXPECT_EQ(label, 0);
}

TEST(DbscanLocalTest, BorderPointJoinsFirstCluster) {
  // A border point (not core) adjacent to a dense cluster is labeled.
  std::vector<Coordinate> pts = {{0, 0}, {0.1, 0}, {0, 0.1},
                                 {0.1, 0.1}, {0.55, 0}};
  auto result = DbscanLocal(pts, {0.5, 4});
  EXPECT_EQ(result.num_clusters, 1u);
  EXPECT_EQ(result.labels[4], 0);
  EXPECT_FALSE(result.core[4]);
}

// ---------------------------------------------------------------------------
// Distributed DBSCAN
// ---------------------------------------------------------------------------

/// Canonical form of a clustering: set of clusters, each a set of ids.
template <typename GetLabel>
std::set<std::set<int64_t>> CanonicalClusters(size_t n, GetLabel get) {
  std::map<int64_t, std::set<int64_t>> by_label;
  for (size_t i = 0; i < n; ++i) {
    const int64_t label = get(i);
    if (label != kNoise) by_label[label].insert(static_cast<int64_t>(i));
  }
  std::set<std::set<int64_t>> out;
  for (auto& [label, members] : by_label) out.insert(std::move(members));
  return out;
}

class DistributedDbscanTest : public ::testing::Test {
 protected:
  Context ctx_{4};

  /// Runs distributed DBSCAN with the given partitioner and compares the
  /// resulting partition of points into clusters with sequential DBSCAN.
  void ExpectMatchesSequential(
      const std::vector<STObject>& points, const DbscanParams& params,
      const std::shared_ptr<SpatialPartitioner>& partitioner) {
    std::vector<std::pair<STObject, int64_t>> data;
    std::vector<Coordinate> coords;
    for (size_t i = 0; i < points.size(); ++i) {
      data.emplace_back(points[i], static_cast<int64_t>(i));
      coords.push_back(points[i].Centroid());
    }
    const DbscanResult seq = DbscanLocal(coords, params);

    auto rdd = SpatialRDD<int64_t>::FromVector(&ctx_, data, 4);
    auto clustered = DistributedDbscan(rdd, params, partitioner).Collect();
    ASSERT_EQ(clustered.size(), points.size());

    std::map<int64_t, int64_t> dist_labels;  // point id -> cluster
    for (const auto& [elem, label] : clustered) {
      dist_labels[elem.second] = label;
    }
    const auto seq_clusters = CanonicalClusters(
        points.size(), [&](size_t i) { return seq.labels[i]; });
    const auto dist_clusters = CanonicalClusters(
        points.size(),
        [&](size_t i) { return dist_labels[static_cast<int64_t>(i)]; });
    EXPECT_EQ(dist_clusters, seq_clusters);
    // Noise sets match implicitly: same clusters over the same points.
  }
};

TEST_F(DistributedDbscanTest, MatchesSequentialOnSkewedData) {
  SkewedPointsOptions gen;
  gen.count = 1500;
  gen.universe = Envelope(0, 0, 100, 100);
  gen.clusters = 6;
  gen.cluster_spread = 0.015;
  gen.seed = 71;
  const auto points = GenerateSkewedPoints(gen);
  auto grid = std::make_shared<GridPartitioner>(gen.universe, 4);
  ExpectMatchesSequential(points, {1.5, 5}, grid);
}

TEST_F(DistributedDbscanTest, MatchesSequentialWithBsp) {
  SkewedPointsOptions gen;
  gen.count = 1200;
  gen.universe = Envelope(0, 0, 100, 100);
  gen.clusters = 4;
  gen.seed = 72;
  const auto points = GenerateSkewedPoints(gen);
  std::vector<Coordinate> centroids;
  for (const auto& p : points) centroids.push_back(p.Centroid());
  BSPartitioner::Options opt;
  opt.max_cost = 150;
  auto bsp =
      std::make_shared<BSPartitioner>(gen.universe, centroids, opt);
  ExpectMatchesSequential(points, {2.0, 4}, bsp);
}

TEST_F(DistributedDbscanTest, ClusterStraddlingPartitionBorderIsMerged) {
  // A single dense chain crossing the border between grid cells: the merge
  // step must unify the two local clusters.
  std::vector<STObject> points;
  for (int i = 0; i < 40; ++i) {
    points.emplace_back(Geometry::MakePoint(30 + i, 50.0));
  }
  auto grid = std::make_shared<GridPartitioner>(Envelope(0, 0, 100, 100), 2);
  std::vector<std::pair<STObject, int64_t>> data;
  for (size_t i = 0; i < points.size(); ++i) {
    data.emplace_back(points[i], static_cast<int64_t>(i));
  }
  auto rdd = SpatialRDD<int64_t>::FromVector(&ctx_, data, 4);
  auto clustered = DistributedDbscan(rdd, {1.5, 2}, grid).Collect();
  std::set<int64_t> labels;
  for (const auto& [elem, label] : clustered) {
    EXPECT_NE(label, kNoise);
    labels.insert(label);
  }
  EXPECT_EQ(labels.size(), 1u);  // one global cluster, not two halves
}

TEST_F(DistributedDbscanTest, ClustersSharingOnlyANonCorePointStaySeparate) {
  // Two dense runs either side of the x = 50 border share the point at
  // x = 50, which is core in neither: by the merge rule (a shared point
  // must be core in one of the clusters) they stay two clusters. The right
  // run is listed first, so sequential DBSCAN also gives the shared point
  // to it, as its home partition does.
  std::vector<STObject> points;
  for (double x : {51.0, 51.5, 52.0, 52.5, 53.0, 50.0, 47.0, 47.5, 48.0, 48.5,
                   49.0}) {
    points.emplace_back(Geometry::MakePoint(x, 25.0));
  }
  auto grid = std::make_shared<GridPartitioner>(Envelope(0, 0, 100, 100), 2);
  ExpectMatchesSequential(points, {1.0, 4}, grid);
}

TEST_F(DistributedDbscanTest, RandomizedEquivalenceSweep) {
  // Property sweep over random parameters: distributed must equal
  // sequential for any eps/min_pts/partitioner granularity.
  Rng rng(73);
  for (int trial = 0; trial < 5; ++trial) {
    SkewedPointsOptions gen;
    gen.count = 600;
    gen.universe = Envelope(0, 0, 50, 50);
    gen.clusters = static_cast<size_t>(rng.UniformInt(2, 6));
    gen.seed = 100 + static_cast<uint64_t>(trial);
    const auto points = GenerateSkewedPoints(gen);
    const DbscanParams params{rng.Uniform(0.5, 2.5),
                              static_cast<size_t>(rng.UniformInt(2, 8))};
    auto grid = std::make_shared<GridPartitioner>(
        gen.universe, static_cast<size_t>(rng.UniformInt(2, 5)));
    ExpectMatchesSequential(points, params, grid);
  }
}

TEST_F(DistributedDbscanTest, AllNoiseWhenEpsTiny) {
  const auto points =
      GenerateUniformPoints(200, 74, Envelope(0, 0, 1000, 1000));
  std::vector<std::pair<STObject, int64_t>> data;
  for (size_t i = 0; i < points.size(); ++i) {
    data.emplace_back(points[i], static_cast<int64_t>(i));
  }
  auto rdd = SpatialRDD<int64_t>::FromVector(&ctx_, data, 4);
  auto grid = std::make_shared<GridPartitioner>(Envelope(0, 0, 1000, 1000), 3);
  auto clustered = DistributedDbscan(rdd, {0.001, 3}, grid).Collect();
  for (const auto& [elem, label] : clustered) EXPECT_EQ(label, kNoise);
}

// ---- Golden output and engine stages ---------------------------------------

/// The (partition, element id, label) rows of a clustering, in partition
/// and row order, folded into an FNV-1a digest, with the row count and the
/// number of clusters alongside.
struct Fingerprint {
  uint64_t digest = 1469598103934665603ull;
  size_t rows = 0;
  size_t clusters = 0;

  bool operator==(const Fingerprint&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  return os << "{0x" << std::hex << f.digest << std::dec << "ull, " << f.rows
            << ", " << f.clusters << "}";
}

Fingerprint FingerprintOf(
    const RDD<std::pair<std::pair<STObject, int64_t>, int64_t>>& clustered) {
  Fingerprint f;
  std::set<int64_t> labels;
  const auto mix = [&f](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      f.digest ^= (v >> (8 * b)) & 0xffu;
      f.digest *= 1099511628211ull;
    }
  };
  const auto parts = clustered.CollectPartitions();
  for (size_t p = 0; p < parts.size(); ++p) {
    for (const auto& [elem, label] : parts[p]) {
      mix(p);
      mix(static_cast<uint64_t>(elem.second));
      mix(static_cast<uint64_t>(label));
      ++f.rows;
      if (label != kNoise) labels.insert(label);
    }
  }
  f.clusters = labels.size();
  return f;
}

/// Points piled along the grid lines x, y in {25, 50, 75} of a 100 x 100
/// universe, plus a few dense blobs: most points lie within eps of a
/// partition border, so most are replicated.
std::vector<std::pair<STObject, int64_t>> BorderHeavyPoints() {
  Rng rng(2701);
  std::vector<std::pair<STObject, int64_t>> data;
  for (int64_t i = 0; i < 900; ++i) {
    const double line = 25.0 * static_cast<double>(rng.UniformInt(1, 3));
    const double along = rng.Uniform(0.0, 100.0);
    const double off = rng.Uniform(-3.0, 3.0);
    const bool vertical = rng.Bernoulli(0.5);
    data.emplace_back(
        STObject(vertical ? Geometry::MakePoint(line + off, along)
                          : Geometry::MakePoint(along, line + off)),
        i);
  }
  for (int64_t i = 900; i < 1100; ++i) {
    const double cx = 12.5 + 25.0 * static_cast<double>(i % 4);
    data.emplace_back(STObject(Geometry::MakePoint(
                          cx + rng.Uniform(-2.0, 2.0),
                          cx + rng.Uniform(-2.0, 2.0))),
                      i);
  }
  return data;
}

std::vector<std::pair<STObject, int64_t>> AllNoisePoints() {
  const auto points =
      GenerateUniformPoints(400, 2702, Envelope(0, 0, 100, 100));
  std::vector<std::pair<STObject, int64_t>> data;
  for (size_t i = 0; i < points.size(); ++i) {
    data.emplace_back(points[i], static_cast<int64_t>(i));
  }
  return data;
}

std::shared_ptr<SpatialPartitioner> BspOver(
    const std::vector<std::pair<STObject, int64_t>>& data) {
  std::vector<Coordinate> centroids;
  for (const auto& [obj, id] : data) centroids.push_back(obj.Centroid());
  BSPartitioner::Options opt;
  opt.max_cost = 120;
  return std::make_shared<BSPartitioner>(Envelope(0, 0, 100, 100), centroids,
                                         opt);
}

TEST_F(DistributedDbscanTest, OutputEqualsTheGolden) {
  // Captured from the driver-routed implementation this one replaced: the
  // partitions, the row order within them and the labels are unchanged.
  const auto border = BorderHeavyPoints();
  const auto noise = AllNoisePoints();
  const auto grid =
      std::make_shared<GridPartitioner>(Envelope(0, 0, 100, 100), 4);
  const auto run = [&](const std::vector<std::pair<STObject, int64_t>>& data,
                       const DbscanParams& params,
                       const std::shared_ptr<SpatialPartitioner>& part) {
    return FingerprintOf(DistributedDbscan(
        SpatialRDD<int64_t>::FromVector(&ctx_, data, 4), params, part));
  };
  EXPECT_EQ(run(border, {1.5, 4}, grid),
            (Fingerprint{0xc92a2e6ffcbc92beull, 1100, 74}));
  EXPECT_EQ(run(border, {1.5, 4}, BspOver(border)),
            (Fingerprint{0x230164146dc6975dull, 1100, 74}));
  EXPECT_EQ(run(noise, {0.5, 3}, grid),
            (Fingerprint{0xeb59513991b1b221ull, 400, 0}));
  EXPECT_EQ(run(noise, {0.5, 3}, BspOver(noise)),
            (Fingerprint{0x3af75e486744ed3ull, 400, 0}));
}

TEST_F(DistributedDbscanTest, LocalClusteringIsAnEngineStage) {
  const auto data = BorderHeavyPoints();
  std::vector<std::string> stages;
  ctx_.set_admission_hook([&](const Context::JobAdmission& job) {
    stages.emplace_back(job.stage);
    return Status::OK();
  });
  const auto grid =
      std::make_shared<GridPartitioner>(Envelope(0, 0, 100, 100), 4);
  EXPECT_EQ(DistributedDbscan(SpatialRDD<int64_t>::FromVector(&ctx_, data, 4),
                              {1.5, 4}, grid)
                .Count(),
            data.size());
  ctx_.set_admission_hook(nullptr);
  EXPECT_NE(std::find(stages.begin(), stages.end(), "dbscan.local"),
            stages.end());
}

TEST_F(DistributedDbscanTest, EveryStageRetriesAnInjectedTaskFault) {
  const auto data = BorderHeavyPoints();
  const auto rdd = SpatialRDD<int64_t>::FromVector(&ctx_, data, 4);
  const auto grid =
      std::make_shared<GridPartitioner>(Envelope(0, 0, 100, 100), 4);
  const Fingerprint expected =
      FingerprintOf(DistributedDbscan(rdd, {1.5, 4}, grid));
  fault::FailPoint* const fp =
      fault::DefaultFailPoints().Get("engine.task.run");
  for (const std::string stage : {"rdd.shuffle.map", "dbscan.local"}) {
    // Armed when the stage's job is admitted: its first task fails once.
    ctx_.set_admission_hook([&](const Context::JobAdmission& job) {
      if (job.stage == stage) {
        EXPECT_TRUE(fault::DefaultFailPoints()
                        .ArmFromSpec("engine.task.run=nth:1")
                        .ok());
      }
      return Status::OK();
    });
    const auto clustered = DistributedDbscan(rdd, {1.5, 4}, grid);
    EXPECT_EQ(fp->fires(), 1u) << stage;
    fault::DefaultFailPoints().DisarmAll();
    EXPECT_EQ(FingerprintOf(clustered), expected) << stage;
  }
  ctx_.set_admission_hook(nullptr);
}

TEST(DbscanCancelTest, LocalClusteringStopsPartwayThroughItsPartition) {
  // A 200 x 200 lattice in one partition: the local clustering runs one
  // neighborhood query per point, 40k in all, and checks for cancellation
  // every 1024 (~39 checkpoints). Cancelled a quarter of the way in, it
  // must return within a quarter of the uncancelled run (~10 checkpoint
  // intervals), long before it would have finished.
  std::vector<std::pair<STObject, int64_t>> data;
  for (int64_t i = 0; i < 200 * 200; ++i) {
    data.emplace_back(STObject(Geometry::MakePoint(
                          static_cast<double>(i % 200),
                          static_cast<double>(i / 200))),
                      i);
  }
  using Clock = std::chrono::steady_clock;
  Context ctx(2);
  const auto rdd = SpatialRDD<int64_t>::FromVector(&ctx, data, 1);
  const auto one_cell =
      std::make_shared<GridPartitioner>(Envelope(0, 0, 200, 200), 1);
  const DbscanParams params{1.5, 4};

  // Uncancelled: time the local clustering from its job's admission.
  Clock::time_point admitted;
  ctx.set_admission_hook([&](const Context::JobAdmission& job) {
    if (std::string(job.stage) == "dbscan.local") admitted = Clock::now();
    return Status::OK();
  });
  DistributedDbscan(rdd, params, one_cell);
  const Clock::duration local = Clock::now() - admitted;

  auto token = std::make_shared<CancelToken>();
  std::atomic<Clock::rep> cancelled_at{0};
  std::jthread canceller;
  ctx.set_cancel_token(token);
  ctx.set_admission_hook([&](const Context::JobAdmission& job) {
    if (std::string(job.stage) == "dbscan.local") {
      canceller = std::jthread([&, local] {
        std::this_thread::sleep_for(local / 4);
        cancelled_at = Clock::now().time_since_epoch().count();
        token->RequestCancel();
      });
    }
    return Status::OK();
  });
  Status status;
  try {
    DistributedDbscan(rdd, params, one_cell);
  } catch (const StatusError& e) {
    status = e.status();
  }
  const Clock::time_point returned = Clock::now();
  ASSERT_TRUE(canceller.joinable());
  canceller.join();
  ctx.set_cancel_token(nullptr);
  ctx.set_admission_hook(nullptr);
  ASSERT_TRUE(status.IsCancelled()) << "not cancelled: " << status.ToString();
  const Clock::time_point cancel(Clock::duration(cancelled_at.load()));
  EXPECT_LT(returned - cancel, local / 4);
}

}  // namespace
}  // namespace stark
