// Batch-kernel tests: the point-slab build, the single kernel-vs-scalar
// selection, batch-vs-scalar differentials for every refinement kernel, a
// differential of every refine site against brute-force pred.Eval loops
// over all-point, mixed point/polygon and custom-distance inputs, and what
// the engine.columnar.* counters mean. The contract everywhere is
// exactness: whichever path a batch takes, the site returns the same rows
// in the same order.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/columnar.h"
#include "core/distance.h"
#include "core/stobject.h"
#include "geometry/kernels.h"
#include "geometry/predicates.h"
#include "geometry/prepared.h"
#include "geometry/wkt.h"
#include "index/packed_rtree.h"
#include "io/generator.h"
#include "obs/metrics.h"
#include "piglet/interpreter.h"
#include "serve/catalog.h"
#include "spatial_rdd/columnar_refine.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/predicate.h"
#include "spatial_rdd/spatial_rdd.h"
#include "test_util.h"

namespace stark {
namespace {

using test::RandomPopulation;
using Element = std::pair<STObject, int64_t>;

const STObject& Self(const STObject& obj) { return obj; }

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The prepared-geometry suite's population mix: no-time, instant, and
// interval objects over mixed geometry types.
std::vector<STObject> MakeObjects(const std::vector<Geometry>& pop) {
  std::vector<STObject> out;
  out.reserve(pop.size());
  for (size_t i = 0; i < pop.size(); ++i) {
    switch (i % 3) {
      case 0:
        out.emplace_back(pop[i]);
        break;
      case 1:
        out.emplace_back(pop[i], static_cast<Instant>(100 + i % 7));
        break;
      default:
        out.emplace_back(pop[i], static_cast<Instant>(i % 5),
                         static_cast<Instant>(i % 5 + 10));
        break;
    }
  }
  return out;
}

// Every slab entry must carry its object's bits exactly: the kernels read
// the slabs in place of the objects.
void ExpectSlabsMatch(const ColumnarBatch& batch,
                      const std::vector<STObject>& points) {
  ASSERT_EQ(batch.rows(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const STObject& obj = points[i];
    const Coordinate& c = obj.geo().AsPoint();
    EXPECT_TRUE(SameBits(batch.x()[i], c.x)) << "row " << i;
    EXPECT_TRUE(SameBits(batch.y()[i], c.y)) << "row " << i;
    ASSERT_EQ(batch.has_time()[i] != 0, obj.HasTime()) << "row " << i;
    if (obj.HasTime()) {
      EXPECT_EQ(batch.t_start()[i], obj.time()->start()) << "row " << i;
      EXPECT_EQ(batch.t_end()[i], obj.time()->end()) << "row " << i;
    }
    const Envelope& env = obj.envelope();
    EXPECT_TRUE(SameBits(batch.envelopes().min_x[i], env.min_x()));
    EXPECT_TRUE(SameBits(batch.envelopes().min_y[i], env.min_y()));
    EXPECT_TRUE(SameBits(batch.envelopes().max_x[i], env.max_x()));
    EXPECT_TRUE(SameBits(batch.envelopes().max_y[i], env.max_y()));
  }
}

// ---------------------------------------------------------------------------
// Point slabs
// ---------------------------------------------------------------------------

TEST(ColumnarBatchTest, AllPointsFastPathAndPointDetection) {
  std::vector<STObject> points;
  for (int i = 0; i < 10; ++i) {
    points.emplace_back(Geometry::MakePoint({double(i), double(-i)}),
                        Instant{i});
  }
  const auto batch = ColumnarBatch::BuildPoints(points, Self);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->rows(), 10u);
  EXPECT_EQ(batch->x()[3], 3.0);
  EXPECT_EQ(batch->y()[3], -3.0);
  EXPECT_EQ(batch->t_start()[3], 3);

  // One non-point row anywhere means no slabs at all.
  points.insert(points.begin() + 4,
                STObject(Geometry::MakeBox(Envelope(0, 0, 1, 1))));
  EXPECT_EQ(ColumnarBatch::BuildPoints(points, Self), nullptr);
  EXPECT_EQ(ColumnarBatch::BuildPoints(std::vector<STObject>{}, Self),
            nullptr);
}

TEST(ColumnarBatchTest, RoundTripsFuzzCorpusBitIdentically) {
  const std::vector<STObject> corpus =
      MakeObjects(RandomPopulation(/*seed=*/9001, 150));
  std::vector<STObject> points;
  for (const STObject& obj : corpus) {
    if (obj.geo().IsPoint()) points.push_back(obj);
  }
  ASSERT_LT(points.size(), corpus.size());
  ASSERT_FALSE(points.empty());
  EXPECT_EQ(ColumnarBatch::BuildPoints(corpus, Self), nullptr);
  const auto batch = ColumnarBatch::BuildPoints(points, Self);
  ASSERT_NE(batch, nullptr);
  ExpectSlabsMatch(*batch, points);
}

TEST(ColumnarBatchTest, RoundTripsSentinelsAndDegenerateShapes) {
  const double nan = std::nan("");
  std::vector<STObject> points;
  // NaN coordinates: the point's envelope is the empty sentinel
  // (ExpandToInclude never fires), and the NaN payload bits must survive.
  points.emplace_back(Geometry::MakePoint({nan, 7.0}));
  points.emplace_back(Geometry::MakePoint({nan, nan}), Instant{42});
  points.emplace_back(Geometry::MakePoint({3.0, nan}), Instant{-5},
                      Instant{5});
  // Signed zero and extreme magnitudes.
  points.emplace_back(Geometry::MakePoint({-0.0, 0.0}));
  points.emplace_back(Geometry::MakePoint({1e308, -1e308}));
  ASSERT_TRUE(points[0].envelope().IsEmpty());
  const auto batch = ColumnarBatch::BuildPoints(points, Self);
  ASSERT_NE(batch, nullptr);
  ExpectSlabsMatch(*batch, points);
  EXPECT_TRUE(batch->envelopes().Get(0).IsEmpty());

  // Degenerate-but-accepted non-point shapes never enter the slabs: each
  // one turns the whole batch over to the scalar refine.
  std::vector<STObject> degenerate = {
      STObject(Geometry::MakeBox(Envelope(5, 5, 5 + 1e-12, 5 + 1e-12)))};
  auto line = Geometry::MakeLineString({{0, 0}, {0, 0 + 1e-300}});
  if (line.ok()) degenerate.emplace_back(line.ValueOrDie(), Instant{0});
  auto mp = Geometry::MakeMultiPoint({{1, 2}, {nan, 4}});
  if (mp.ok()) degenerate.emplace_back(mp.ValueOrDie());
  for (const STObject& shape : degenerate) {
    std::vector<STObject> with_shape = points;
    with_shape.push_back(shape);
    EXPECT_EQ(ColumnarBatch::BuildPoints(with_shape, Self), nullptr)
        << shape.geo().ToWkt();
  }
}

// ---------------------------------------------------------------------------
// Kernel differentials
// ---------------------------------------------------------------------------

TEST(ColumnarKernelsTest, PointSpecializationsMatchGenericPreparedCalls) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/515, 60);
  Rng rng(516);
  std::vector<Coordinate> probes;
  for (int i = 0; i < 40; ++i) probes.push_back(test::RandomCoord(&rng));
  probes.push_back({std::nan(""), 50.0});
  probes.push_back({std::nan(""), std::nan("")});
  for (const Geometry& g : pop) {
    const PreparedGeometry prep(g);
    for (const Coordinate& p : probes) {
      const Geometry pt = Geometry::MakePoint(p);
      ASSERT_EQ(prep.IntersectsPoint(p), prep.IntersectedBy(pt)) << g.ToWkt();
      ASSERT_EQ(prep.ContainsPoint(p), prep.Contains(pt)) << g.ToWkt();
      ASSERT_EQ(prep.ContainedByPoint(p), prep.ContainedBy(pt)) << g.ToWkt();
      const double got = prep.DistanceFromPoint(p);
      const double want = prep.DistanceFrom(pt);
      // Bit comparison so NaN==NaN and -0.0 != 0.0 are handled exactly.
      ASSERT_TRUE(SameBits(got, want)) << g.ToWkt();
    }
  }
}

TEST(ColumnarKernelsTest, TemporalOverlapBatchMatchesIntervalOps) {
  Rng rng(99);
  const size_t n = 200;
  std::vector<int64_t> ts(n), te(n);
  std::vector<uint8_t> ht(n);
  for (size_t i = 0; i < n; ++i) {
    ht[i] = static_cast<uint8_t>(rng.UniformInt(0, 1));
    const int64_t s = rng.UniformInt(-20, 20);
    ts[i] = ht[i] ? s : 0;
    te[i] = ht[i] ? s + rng.UniformInt(0, 15) : 0;
  }
  std::vector<uint32_t> cand(n);
  for (size_t i = 0; i < n; ++i) cand[i] = static_cast<uint32_t>(i);
  std::vector<uint32_t> out(n);

  for (const bool query_has_time : {false, true}) {
    const int64_t qs = -3;
    const int64_t qe = 11;
    const TemporalInterval query(qs, qe);
    for (const TemporalPredicate pred :
         {TemporalPredicate::kIntersects, TemporalPredicate::kContains,
          TemporalPredicate::kContainedBy}) {
      for (const bool query_is_left : {true, false}) {
        const size_t kept =
            TemporalOverlapBatch(ts.data(), te.data(), ht.data(),
                                 query_has_time, qs, qe, pred, query_is_left,
                                 cand.data(), n, out.data());
        std::vector<uint32_t> expect;
        for (size_t i = 0; i < n; ++i) {
          // Formulas (1)-(3): both undefined, or both defined and the
          // temporal predicate holds in the stated operand orientation.
          bool hit;
          if (!ht[i] || !query_has_time) {
            hit = !ht[i] && !query_has_time;
          } else {
            const TemporalInterval row(ts[i], te[i]);
            const TemporalInterval& lhs = query_is_left ? query : row;
            const TemporalInterval& rhs = query_is_left ? row : query;
            switch (pred) {
              case TemporalPredicate::kIntersects:
                hit = lhs.Intersects(rhs);
                break;
              case TemporalPredicate::kContains:
                hit = lhs.Contains(rhs);
                break;
              default:
                hit = rhs.Contains(lhs);
                break;
            }
          }
          if (hit) expect.push_back(static_cast<uint32_t>(i));
        }
        ASSERT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + kept),
                  expect)
            << "pred=" << static_cast<int>(pred) << " qleft=" << query_is_left
            << " qtime=" << query_has_time;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Selection and batch refinement
// ---------------------------------------------------------------------------

JoinPredicate CustomDistance(double max_distance) {
  // Euclidean-compatible, so envelope candidates stay sound and the indexed
  // sites still run; only the selection has to route it to the scalar path.
  return JoinPredicate::WithinDistance(
      max_distance,
      [](const STObject& a, const STObject& b) {
        return EuclideanDistance(a, b);
      },
      /*euclidean_compatible_fn=*/true);
}

TEST(ColumnarRefineTest, SelectsKernelsOnlyForRefinableAllPointBatches) {
  const std::vector<STObject> mixed =
      MakeObjects(RandomPopulation(/*seed=*/246810, 90));
  std::vector<STObject> points;
  for (const STObject& obj : mixed) {
    if (obj.geo().IsPoint()) points.push_back(obj);
  }
  ASSERT_FALSE(points.empty());
  size_t builds = 0;
  auto points_of = [&builds](const std::vector<STObject>& objs) {
    return [&builds, &objs] {
      ++builds;
      return ColumnarBatch::BuildPoints(objs, Self);
    };
  };
  for (const JoinPredicate& pred :
       {JoinPredicate::Intersects(), JoinPredicate::Contains(),
        JoinPredicate::ContainedBy(), JoinPredicate::WithinDistance(3.5)}) {
    EXPECT_NE(columnar_refine::SelectKernels(pred, points_of(points)),
              nullptr)
        << PredicateName(pred.type);
    EXPECT_EQ(columnar_refine::SelectKernels(pred, points_of(mixed)), nullptr)
        << PredicateName(pred.type);
  }
  EXPECT_EQ(builds, 8u);
  // A custom distance function never reaches the kernels, so no slabs are
  // even built for it.
  EXPECT_EQ(columnar_refine::SelectKernels(CustomDistance(3.5),
                                           points_of(points)),
            nullptr);
  EXPECT_EQ(builds, 8u);
}

TEST(ColumnarRefineTest, AllPointsBatchStaysOnKernels) {
  Rng rng(4242);
  std::vector<STObject> points;
  for (size_t i = 0; i < 120; ++i) {
    const Coordinate c = test::RandomCoord(&rng);
    switch (i % 3) {
      case 0:
        points.emplace_back(Geometry::MakePoint(c));
        break;
      case 1:
        points.emplace_back(Geometry::MakePoint(c), Instant(i % 11));
        break;
      default:
        points.emplace_back(Geometry::MakePoint(c), Instant(0),
                            Instant(i % 13));
        break;
    }
  }
  points.emplace_back(Geometry::MakePoint({std::nan(""), 1.0}), Instant{3});
  const auto batch = ColumnarBatch::BuildPoints(points, Self);
  ASSERT_NE(batch, nullptr);

  const STObject fixed(Geometry::MakeBox(Envelope(20, 20, 70, 70)),
                       Instant{2}, Instant{9});
  const PreparedGeometry prep(fixed.geo());
  std::vector<uint32_t> scratch;
  for (const JoinPredicate& pred :
       {JoinPredicate::Intersects(), JoinPredicate::Contains(),
        JoinPredicate::ContainedBy(), JoinPredicate::WithinDistance(12.0)}) {
    for (const bool cand_left : {true, false}) {
      BoundPredicate bound(pred, fixed,
                           cand_left ? BoundPredicate::Side::kCandidateLeft
                                     : BoundPredicate::Side::kCandidateRight);
      std::vector<uint32_t> expect;
      std::vector<uint32_t> cand;
      for (uint32_t j = 0; j < points.size(); ++j) {
        cand.push_back(j);
        if (bound.Eval(points[j])) expect.push_back(j);
      }
      columnar_refine::Stats stats;
      columnar_refine::RefineCandidates(*batch, pred, fixed, prep, cand_left,
                                        &cand, &stats, &scratch);
      ASSERT_EQ(cand, expect) << PredicateName(pred.type);
      EXPECT_EQ(stats.kernel_rows, points.size());
      EXPECT_EQ(stats.fallback_rows, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Every refine site vs brute force
// ---------------------------------------------------------------------------

enum class Shape {
  kPoints,     // every row a point: the kernels' side of the selection
  kMixed,      // a non-point row in every partition: all scalar
  kHalfMixed,  // non-point rows only in the second half: both paths at once
};

// Seeded skewed points over [0,100]^2; some rows replaced by polygons (and
// other non-point shapes) per \p shape. Untimed, instant and interval rows
// alternate unless \p all_timed (serve events always carry a time).
std::vector<Element> MakeData(Shape shape, size_t n, uint64_t seed,
                              bool all_timed, double max_extent) {
  SkewedPointsOptions gen;
  gen.count = n;
  gen.universe = Envelope(0, 0, 100, 100);
  gen.seed = seed;
  gen.clusters = 4;
  gen.cluster_spread = 0.08;
  const std::vector<STObject> points = GenerateSkewedPoints(gen);
  Rng rng(seed + 1);
  std::vector<Element> out;
  for (size_t i = 0; i < points.size(); ++i) {
    const bool non_point = shape == Shape::kMixed       ? i % 5 == 4
                           : shape == Shape::kHalfMixed ? i >= n / 2 && i % 3 == 0
                                                        : false;
    Geometry geo = points[i].geo();
    if (non_point) {
      const Coordinate c = geo.AsPoint();
      geo = i % 2 == 0 ? Geometry::MakeBox(Envelope(
                             c.x, c.y, c.x + rng.Uniform(0.1, max_extent),
                             c.y + rng.Uniform(0.1, max_extent)))
                       : test::RandomGeometry(&rng);
    }
    const Instant t = rng.UniformInt(0, 1000);
    switch (i % 3) {
      case 0:
        out.emplace_back(all_timed ? STObject(geo, t) : STObject(geo),
                         static_cast<int64_t>(i));
        break;
      case 1:
        out.emplace_back(STObject(geo, t), static_cast<int64_t>(i));
        break;
      default:
        out.emplace_back(STObject(geo, t, t + rng.UniformInt(0, 300)),
                         static_cast<int64_t>(i));
        break;
    }
  }
  return out;
}

struct Input {
  std::string name;
  std::vector<Element> data;
  std::vector<JoinPredicate> preds;
};

std::vector<JoinPredicate> StandardPredicates() {
  return {JoinPredicate::Intersects(), JoinPredicate::Contains(),
          JoinPredicate::ContainedBy(), JoinPredicate::WithinDistance(1.5)};
}

std::vector<Input> Inputs(bool all_timed) {
  return {
      {"points", MakeData(Shape::kPoints, 400, 61, all_timed, 2.0),
       StandardPredicates()},
      {"mixed", MakeData(Shape::kMixed, 400, 62, all_timed, 2.0),
       StandardPredicates()},
      {"half-mixed", MakeData(Shape::kHalfMixed, 400, 63, all_timed, 2.0),
       StandardPredicates()},
      {"custom-distance points",
       MakeData(Shape::kPoints, 400, 64, all_timed, 2.0),
       {CustomDistance(1.5)}},
      {"custom-distance mixed",
       MakeData(Shape::kMixed, 400, 65, all_timed, 2.0),
       {CustomDistance(1.5)}},
  };
}

// The other join side: points and larger regions, 500 rows so that the
// data side (400) is the smaller, broadcast one.
std::vector<Element> Probes() {
  std::vector<Element> probes =
      MakeData(Shape::kMixed, 500, 71, /*all_timed=*/false, 8.0);
  for (auto& p : probes) p.second += 100000;
  return probes;
}

std::vector<STObject> FilterQueries() {
  return {STObject(Geometry::MakeBox(Envelope(20, 20, 60, 55)), Instant{100},
                   Instant{700}),
          STObject(Geometry::MakeBox(Envelope(20, 20, 60, 55))),
          STObject(Geometry::MakePoint({50.0, 50.0}), Instant{0},
                   Instant{1000})};
}

using IdPairs = std::vector<std::pair<int64_t, int64_t>>;

template <typename Pairs>
IdPairs IdsOf(const Pairs& pairs) {
  IdPairs ids;
  for (const auto& [l, r] : pairs) ids.emplace_back(l.second, r.second);
  return ids;
}

std::vector<Element> Flatten(const std::vector<std::vector<Element>>& parts) {
  std::vector<Element> all;
  for (const auto& part : parts) all.insert(all.end(), part.begin(), part.end());
  return all;
}

PackedRTree<size_t> TreeOver(const std::vector<Element>& items,
                             size_t order) {
  std::vector<std::pair<Envelope, size_t>> entries;
  for (size_t e = 0; e < items.size(); ++e) {
    entries.emplace_back(items[e].first.envelope(), e);
  }
  return PackedRTree<size_t>(order, std::move(entries));
}

constexpr size_t kOrder = 10;

TEST(ColumnarDifferentialTest, FilterMatchesBruteForce) {
  Context ctx(4);
  for (const Input& in : Inputs(/*all_timed=*/false)) {
    for (const JoinPredicate& pred : in.preds) {
      for (const STObject& query : FilterQueries()) {
        std::vector<int64_t> expect;
        for (const auto& [obj, id] : in.data) {
          if (pred.Eval(obj, query)) expect.push_back(id);
        }
        const auto rdd = SpatialRDD<int64_t>::FromVector(&ctx, in.data, 4);
        // Twice: the second filter reuses the cached slabs (or the cached
        // "not all points" outcome).
        for (int round = 0; round < 2; ++round) {
          std::vector<int64_t> got;
          for (const auto& [obj, id] : rdd.Filter(query, pred).Collect()) {
            got.push_back(id);
          }
          ASSERT_EQ(got, expect) << in.name << " " << PredicateName(pred.type)
                                 << " query=" << query.geo().ToWkt();
        }
      }
    }
  }
}

TEST(ColumnarDifferentialTest, BroadcastJoinsMatchBruteForce) {
  Context ctx(4);
  JoinOptions options;
  options.index_order = kOrder;
  options.broadcast_threshold = 1000000;
  const std::vector<Element> probes = Probes();
  for (const Input& in : Inputs(/*all_timed=*/false)) {
    for (const JoinPredicate& pred : in.preds) {
      const double margin = pred.EnvelopeMargin();
      const std::string what =
          in.name + " " + PredicateName(pred.type);
      {
        // Right side broadcast: the data is the batched side, probes are
        // the fixed operands, one task per probe partition.
        const auto left = SpatialRDD<int64_t>::FromVector(&ctx, probes, 4);
        const auto right = SpatialRDD<int64_t>::FromVector(&ctx, in.data, 3);
        const std::vector<Element> small =
            Flatten(right.rdd().CollectPartitions());
        const PackedRTree<size_t> tree = TreeOver(small, kOrder);
        IdPairs expect;
        for (const auto& part : left.rdd().CollectPartitions()) {
          for (const Element& l : part) {
            tree.Query(l.first.envelope().Expanded(margin),
                       [&](const Envelope&, const size_t& e) {
                         if (pred.Eval(l.first, small[e].first)) {
                           expect.emplace_back(l.second, small[e].second);
                         }
                       });
          }
        }
        ASSERT_EQ(IdsOf(SpatialJoin(left, right, pred, options).Collect()),
                  expect)
            << what << " (right broadcast)";
      }
      {
        // Left side broadcast: the data is the batched side again, now in
        // the left operand slot.
        const auto left = SpatialRDD<int64_t>::FromVector(&ctx, in.data, 3);
        const auto right = SpatialRDD<int64_t>::FromVector(&ctx, probes, 4);
        const std::vector<Element> small =
            Flatten(left.rdd().CollectPartitions());
        const PackedRTree<size_t> tree = TreeOver(small, kOrder);
        IdPairs expect;
        for (const auto& part : right.rdd().CollectPartitions()) {
          for (const Element& r : part) {
            tree.Query(r.first.envelope().Expanded(margin),
                       [&](const Envelope&, const size_t& e) {
                         if (pred.Eval(small[e].first, r.first)) {
                           expect.emplace_back(small[e].second, r.second);
                         }
                       });
          }
        }
        ASSERT_EQ(IdsOf(SpatialJoin(left, right, pred, options).Collect()),
                  expect)
            << what << " (left broadcast)";
      }
    }
  }
}

TEST(ColumnarDifferentialTest, PartitionPairJoinMatchesBruteForce) {
  Context ctx(4);
  JoinOptions options;
  options.index_order = kOrder;
  options.skew_split_factor = 2.0;
  // One dense probe partition and three sparse ones, so the dense pairs
  // are skew-split into sub-range tasks.
  const std::vector<Element> probes = Probes();
  std::vector<std::vector<Element>> probe_parts(4);
  for (size_t i = 0; i < probes.size(); ++i) {
    probe_parts[i < 440 ? 0 : 1 + i % 3].push_back(probes[i]);
  }
  const SpatialRDD<int64_t> right(MakeRDDFromPartitions(&ctx, probe_parts));
  for (const Input& in : Inputs(/*all_timed=*/false)) {
    const auto left = SpatialRDD<int64_t>::FromVector(&ctx, in.data, 4);
    const std::vector<std::vector<Element>> lparts =
        left.rdd().CollectPartitions();
    std::vector<PackedRTree<size_t>> trees;
    std::vector<size_t> left_sizes, right_sizes;
    for (const auto& part : lparts) {
      trees.push_back(TreeOver(part, kOrder));
      left_sizes.push_back(part.size());
    }
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t j = 0; j < probe_parts.size(); ++j) {
      right_sizes.push_back(probe_parts[j].size());
    }
    for (size_t i = 0; i < lparts.size(); ++i) {
      for (size_t j = 0; j < probe_parts.size(); ++j) pairs.emplace_back(i, j);
    }
    size_t pairs_split = 0;
    const std::vector<join_internal::ProbeTask> tasks =
        join_internal::PlanProbeTasks(pairs, left_sizes, right_sizes,
                                      /*indexed=*/true, options, &pairs_split);
    ASSERT_GT(pairs_split, 0u);
    for (const JoinPredicate& pred : in.preds) {
      // The join's task order, each task probing its sub-range row by row.
      IdPairs expect;
      for (const join_internal::ProbeTask& task : tasks) {
        const std::vector<Element>& lv = lparts[task.left];
        for (size_t rix = task.begin; rix < task.end; ++rix) {
          const Element& r = probe_parts[task.right][rix];
          trees[task.left].Query(
              r.first.envelope().Expanded(pred.EnvelopeMargin()),
              [&](const Envelope&, const size_t& e) {
                if (pred.Eval(lv[e].first, r.first)) {
                  expect.emplace_back(lv[e].second, r.second);
                }
              });
        }
      }
      ASSERT_EQ(IdsOf(SpatialJoin(left, right, pred, options).Collect()),
                expect)
          << in.name << " " << PredicateName(pred.type);
    }
  }
}

TEST(ColumnarDifferentialTest, CachedIndexAndNestedLoopJoinsMatchBruteForce) {
  // The cached-index overload and the index_order = 0 nested loop over the
  // same inputs, compared as sorted pair lists against pred.Eval.
  Context ctx(4);
  JoinOptions nested;
  nested.index_order = 0;
  const std::vector<Element> probes = Probes();
  const auto right = SpatialRDD<int64_t>::FromVector(&ctx, probes, 4);
  auto sorted = [](IdPairs ids) {
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  for (const Input& in : Inputs(/*all_timed=*/false)) {
    const auto left = SpatialRDD<int64_t>::FromVector(&ctx, in.data, 4);
    const IndexedSpatialRDD<int64_t> indexed = left.Index(kOrder);
    for (const JoinPredicate& pred : in.preds) {
      IdPairs expect;
      for (const Element& l : in.data) {
        for (const Element& r : probes) {
          if (pred.Eval(l.first, r.first)) {
            expect.emplace_back(l.second, r.second);
          }
        }
      }
      std::sort(expect.begin(), expect.end());
      const std::string what = in.name + " " + PredicateName(pred.type);
      ASSERT_EQ(sorted(IdsOf(SpatialJoin(indexed, right, pred).Collect())),
                expect)
          << what << " (cached index)";
      ASSERT_EQ(
          sorted(IdsOf(SpatialJoin(left, right, pred, nested).Collect())),
          expect)
          << what << " (nested loop)";
    }
  }
}

TEST(ColumnarDifferentialTest, SnapshotFilterMatchesBruteForce) {
  const struct {
    const char* name;
    PredicateType type;
    std::string args;  // Piglet arguments after the WKT literal
    double max_distance;
  } kPreds[] = {
      {"INTERSECTS", PredicateType::kIntersects, "", 0.0},
      {"CONTAINS", PredicateType::kContains, "", 0.0},
      {"CONTAINEDBY", PredicateType::kContainedBy, "", 0.0},
      {"WITHINDISTANCE", PredicateType::kWithinDistance, ", 1.5", 1.5},
  };
  const std::vector<std::string> wkts = {
      "POLYGON ((20 20, 60 20, 60 55, 20 55, 20 20))", "POINT (50 50)"};
  // Custom distance functions cannot be written in Piglet, so the snapshot
  // site sees the all-point and mixed shapes only.
  for (const Input& in : Inputs(/*all_timed=*/true)) {
    if (in.preds.front().distance != nullptr) continue;
    std::vector<stream::StreamEvent> events;
    for (const auto& [obj, id] : in.data) events.emplace_back(id, "c", obj);
    const auto snap = std::make_shared<const serve::DatasetSnapshot>(
        serve::BuildSnapshot(1, events, 8));
    for (const auto& p : kPreds) {
      for (const std::string& wkt : wkts) {
        const std::string call =
            std::string(p.name) + "('" + wkt + "'" + p.args + ", 0, 600)";
        auto query = STObject::FromWkt(wkt, Instant{0}, Instant{600});
        ASSERT_TRUE(query.ok());
        JoinPredicate pred;
        pred.type = p.type;
        pred.max_distance = p.max_distance;
        std::vector<int64_t> expect;
        snap->tree->Query(
            query.ValueOrDie().envelope().Expanded(pred.EnvelopeMargin()),
            [&](const Envelope&, const uint32_t& idx) {
              if (pred.Eval((*snap->events)[idx].obj, query.ValueOrDie())) {
                expect.push_back((*snap->events)[idx].id);
              }
            });

        Context ctx(1);
        std::ostringstream out;
        piglet::Interpreter interp(&ctx, &out);
        piglet::PigRelation rel;
        rel.schema = {"id", "category", "time", "wkt"};
        rel.spatialized = true;
        rel.snapshot = snap;
        std::vector<piglet::PigRow> rows;
        for (const stream::StreamEvent& e : events) {
          rows.push_back(piglet::RowFromStreamEvent(e));
        }
        rel.rdd = MakeRDD(&ctx, std::move(rows));
        interp.BindRelation("events", std::move(rel));
        // Twice: the second query reuses the epoch's cached selection.
        for (int round = 0; round < 2; ++round) {
          ASSERT_TRUE(
              interp.RunScript("hits = FILTER events BY " + call + ";").ok())
              << call;
          auto hits = interp.relation("hits");
          ASSERT_TRUE(hits.ok());
          std::vector<int64_t> got;
          for (const piglet::PigRow& row : hits.ValueOrDie()->rdd.Collect()) {
            got.push_back(std::get<int64_t>(row.fields[0]));
          }
          ASSERT_EQ(got, expect) << in.name << " " << call;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Counter semantics
// ---------------------------------------------------------------------------

struct RefineDelta {
  uint64_t rows;
  uint64_t fallbacks;
};

template <typename Fn>
RefineDelta MeasureRefine(Fn&& fn) {
  const ColumnarMetricSet& m = GlobalColumnarMetrics();
  const uint64_t rows = m.rows->Value();
  const uint64_t fallbacks = m.fallbacks->Value();
  fn();
  return {m.rows->Value() - rows, m.fallbacks->Value() - fallbacks};
}

// engine.columnar.fallbacks counts the rows handed to the scalar refine at
// a site that considered the kernels; engine.columnar.rows the rows the
// kernels refined.
TEST(ColumnarCountersTest, FallbacksCountRowsRefinedByTheScalarPath) {
  Context ctx(4);
  const STObject query(Geometry::MakeBox(Envelope(20, 20, 60, 55)));
  const std::vector<Element> points =
      MakeData(Shape::kPoints, 400, 81, /*all_timed=*/false, 2.0);
  const std::vector<Element> mixed =
      MakeData(Shape::kMixed, 400, 82, /*all_timed=*/false, 2.0);

  const RefineDelta all_point_filter = MeasureRefine([&] {
    SpatialRDD<int64_t>::FromVector(&ctx, points, 4)
        .Filter(query, JoinPredicate::Intersects())
        .Collect();
  });
  EXPECT_GT(all_point_filter.rows, 0u);
  EXPECT_EQ(all_point_filter.fallbacks, 0u);

  const RefineDelta mixed_join = MeasureRefine([&] {
    SpatialJoin(SpatialRDD<int64_t>::FromVector(&ctx, mixed, 4),
                SpatialRDD<int64_t>::FromVector(&ctx, Probes(), 4),
                JoinPredicate::Intersects())
        .Collect();
  });
  EXPECT_EQ(mixed_join.rows, 0u);
  EXPECT_GT(mixed_join.fallbacks, 0u);

  const RefineDelta custom_filter = MeasureRefine([&] {
    SpatialRDD<int64_t>::FromVector(&ctx, points, 4)
        .Filter(query, CustomDistance(1.5))
        .Collect();
  });
  EXPECT_EQ(custom_filter.rows, 0u);
  EXPECT_EQ(custom_filter.fallbacks, points.size());
}

TEST(CsvColumnarTest, ParsePointWktAgreesWithFullParser) {
  const std::vector<std::string> accepted = {
      "POINT (3 4)", "POINT(3 4)", "  point ( 1.5 -2e3 )  ",
      "POINT (0.1 100000000000000000001)"};
  for (const std::string& wkt : accepted) {
    double x = 0.0, y = 0.0;
    ASSERT_TRUE(ParsePointWkt(wkt, &x, &y)) << wkt;
    auto full = ParseWkt(wkt);
    ASSERT_TRUE(full.ok()) << wkt;
    const Coordinate& c = full.ValueOrDie().AsPoint();
    EXPECT_EQ(x, c.x) << wkt;
    EXPECT_EQ(y, c.y) << wkt;
  }
  const std::vector<std::string> rejected = {
      "LINESTRING (0 0, 1 1)", "POINT (1 2) x", "POINT (1)", "POINT",
      "POLYGON ((0 0, 1 0, 1 1, 0 0))", "", "POINT (a b)"};
  for (const std::string& wkt : rejected) {
    double x = 0.0, y = 0.0;
    EXPECT_FALSE(ParsePointWkt(wkt, &x, &y)) << wkt;
  }
}

}  // namespace
}  // namespace stark
