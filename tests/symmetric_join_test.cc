// Symmetric self-join tests. A join of one lineage node with itself on a
// symmetric predicate (intersects, built-in withinDistance) walks only the
// partition pairs (i, j) with i <= j, refines each unordered pair of rows
// once and emits both orders. Under every partitioner, index mode and skew
// split, and for point and mixed inputs, it must give exactly the multiset
// of the same join over two distinct nodes and of a brute-force Eval loop.
// Every other same-node join keeps the two-node path and its counters.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/distance.h"
#include "engine/job_control.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "partition/bsp_partitioner.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/join.h"
#include "test_util.h"

namespace stark {
namespace {

using Element = std::pair<STObject, int64_t>;
using Pair = std::pair<int64_t, int64_t>;
using Pairs = std::vector<Pair>;  // a sorted multiset of (left, right) ids

const Envelope kUniverse(0, 0, 100, 100);

/// Seeded rows clustered around six centres over [0,100]^2, so that dense
/// partitions meet many neighbours. Every seventh row equals the previous
/// one (an equal row that is not the same row), and the row after it
/// repeats its geometry with its own time. With \p mixed, a row is a
/// point, a 2-4 vertex line string or a 4-8 vertex star polygon. A row is
/// untimed, an instant or an interval.
std::vector<Element> MakeRows(bool mixed, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Coordinate> centres;
  for (int c = 0; c < 6; ++c) {
    centres.push_back({rng.Uniform(10.0, 90.0), rng.Uniform(10.0, 90.0)});
  }
  std::vector<Element> rows;
  for (size_t i = 0; i < n; ++i) {
    const auto id = static_cast<int64_t>(i);
    if (i % 7 == 6) {
      rows.emplace_back(rows.back().first, id);
      continue;
    }
    const Coordinate& centre = centres[rng.UniformInt(0, 5)];
    const Coordinate c{centre.x + rng.Uniform(-6.0, 6.0),
                       centre.y + rng.Uniform(-6.0, 6.0)};
    const int64_t kind = mixed ? rng.UniformInt(0, 2) : 0;
    Geometry geo = Geometry::MakePoint(c);
    if (i % 7 == 0 && i > 0) {
      geo = rows.back().first.geo();
    } else if (kind == 1) {
      std::vector<Coordinate> coords = {c};
      const int vertices = static_cast<int>(rng.UniformInt(2, 4));
      for (int v = 1; v < vertices; ++v) {
        coords.push_back({c.x + rng.Uniform(-2.0, 2.0),
                          c.y + rng.Uniform(-2.0, 2.0)});
      }
      geo = Geometry::MakeLineString(std::move(coords)).ValueOrDie();
    } else if (kind == 2) {
      geo = test::StarPolygonAround(&rng, c, rng.Uniform(0.3, 2.0),
                                    static_cast<int>(rng.UniformInt(4, 8)));
    }
    const Instant t = rng.UniformInt(0, 1000);
    switch (rng.UniformInt(0, 2)) {
      case 0:
        rows.emplace_back(STObject(geo), id);
        break;
      case 1:
        rows.emplace_back(STObject(geo, t), id);
        break;
      default:
        rows.emplace_back(STObject(geo, t, t + rng.UniformInt(0, 400)), id);
        break;
    }
  }
  return rows;
}

Pairs BruteForce(const std::vector<Element>& rows, const JoinPredicate& pred) {
  Pairs out;
  for (const auto& [a, aid] : rows) {
    for (const auto& [b, bid] : rows) {
      if (pred.Eval(a, b)) out.emplace_back(aid, bid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

template <typename JoinedRdd>
Pairs IdsOf(const JoinedRdd& joined) {
  Pairs out;
  for (const auto& [l, r] : joined.Collect()) {
    out.emplace_back(l.second, r.second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every counter a join moves: engine.join.*, the columnar refine
/// counters and the packed-probe counter.
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

uint64_t CounterValue(const char* name) {
  return obs::DefaultMetrics().GetCounter(name)->Value();
}

/// The pairs \p join_fn returns and the deltas of kJoinCounters across it
/// (zero deltas included, so two maps compare name by name).
template <typename JoinFn>
std::pair<Pairs, Deltas> RunJoin(JoinFn&& join_fn) {
  std::vector<uint64_t> before;
  for (const char* name : kJoinCounters) before.push_back(CounterValue(name));
  Pairs pairs = IdsOf(join_fn());
  Deltas deltas;
  for (size_t i = 0; i < before.size(); ++i) {
    deltas[kJoinCounters[i]] = CounterValue(kJoinCounters[i]) - before[i];
  }
  return {std::move(pairs), std::move(deltas)};
}

enum class Partitioning { kNone, kGrid, kBsp };

const char* Name(Partitioning p) {
  switch (p) {
    case Partitioning::kNone: return "none";
    case Partitioning::kGrid: return "grid";
    case Partitioning::kBsp: return "bsp";
  }
  return "?";
}

/// A fresh lineage node over \p rows: three input partitions, then
/// partitioned as \p p asks. Two calls give two distinct nodes over equal
/// partitions.
SpatialRDD<int64_t> Build(Context* ctx, const std::vector<Element>& rows,
                          Partitioning p) {
  auto rdd = SpatialRDD<int64_t>::FromVector(ctx, rows, 3);
  switch (p) {
    case Partitioning::kNone:
      return rdd;
    case Partitioning::kGrid:
      return rdd.PartitionBy(std::make_shared<GridPartitioner>(kUniverse, 3));
    case Partitioning::kBsp: {
      std::vector<Coordinate> centroids;
      for (const auto& [obj, id] : rows) centroids.push_back(obj.Centroid());
      BSPartitioner::Options opt;
      opt.max_cost = rows.size() / 8;
      return rdd.PartitionBy(
          std::make_shared<BSPartitioner>(kUniverse, centroids, opt));
    }
  }
  return rdd;
}

TEST(SymmetricSelfJoinTest, SymmetricPredicatesAreSymmetricOnTheInputs) {
  // The symmetric path emits (b, a) from the refine of (a, b), so it is
  // exact only where Eval(a, b) == Eval(b, a) holds for every pair of rows:
  // checked here on the very inputs the differential tests join.
  for (const bool mixed : {false, true}) {
    const std::vector<Element> rows = MakeRows(mixed, 300, 2101);
    for (const JoinPredicate& pred :
         {JoinPredicate::Intersects(), JoinPredicate::WithinDistance(1.5)}) {
      size_t asymmetric = 0;
      for (const auto& [a, aid] : rows) {
        for (const auto& [b, bid] : rows) {
          if (pred.Eval(a, b) != pred.Eval(b, a)) ++asymmetric;
        }
      }
      EXPECT_EQ(asymmetric, 0u)
          << PredicateName(pred.type) << (mixed ? " mixed" : " points");
    }
  }
}

TEST(SymmetricSelfJoinTest, SameNodeEqualsTwoNodesAndBruteForce) {
  Context ctx(4);
  for (const bool mixed : {false, true}) {
    const std::vector<Element> rows = MakeRows(mixed, 600, 2102);
    for (const JoinPredicate& pred :
         {JoinPredicate::Intersects(), JoinPredicate::WithinDistance(1.5)}) {
      const Pairs expect = BruteForce(rows, pred);
      ASSERT_GT(expect.size(), rows.size() + 100) << "too few matches";
      for (const Partitioning p :
           {Partitioning::kNone, Partitioning::kGrid, Partitioning::kBsp}) {
        for (const size_t order : {size_t{10}, size_t{0}}) {
          const std::string label =
              std::string(mixed ? "mixed " : "points ") +
              PredicateName(pred.type) + " partitioner=" + Name(p) +
              " index_order=" + std::to_string(order);
          JoinOptions options;
          options.index_order = order;
          options.skew_split_factor = 1.5;
          const SpatialRDD<int64_t> one = Build(&ctx, rows, p);
          const SpatialRDD<int64_t> other = Build(&ctx, rows, p);
          const auto self =
              RunJoin([&] { return SpatialJoin(one, one, pred, options); });
          const auto two =
              RunJoin([&] { return SpatialJoin(one, other, pred, options); });
          EXPECT_EQ(self.first, expect) << label;
          EXPECT_EQ(two.first, expect) << label;

          // The self-join took the symmetric path: it walked only the
          // pairs with i <= j and refined fewer candidates.
          Deltas s = self.second;
          Deltas t = two.second;
          EXPECT_EQ(s["engine.join.results"], expect.size()) << label;
          EXPECT_EQ(t["engine.join.results"], expect.size()) << label;
          const uint64_t n = one.NumPartitions();
          if (one.partitioner() == nullptr) {
            EXPECT_EQ(s["engine.join.pairs_enumerated"], n * (n + 1) / 2)
                << label;
            EXPECT_EQ(t["engine.join.pairs_enumerated"], n * n) << label;
          } else {
            EXPECT_LT(s["engine.join.pairs_enumerated"],
                      t["engine.join.pairs_enumerated"])
                << label;
          }
          EXPECT_LT(s["engine.columnar.rows"] + s["engine.columnar.fallbacks"] +
                        s["engine.join.prefilter_skips"],
                    t["engine.columnar.rows"] + t["engine.columnar.fallbacks"] +
                        t["engine.join.prefilter_skips"])
              << label;
          if (order > 0) {
            EXPECT_LT(s["engine.index.packed_probes"],
                      t["engine.index.packed_probes"])
                << label;
          }
        }
      }
    }
  }
}

TEST(SymmetricSelfJoinTest, FallbackCasesKeepTheTwoNodePathAndItsCounters) {
  // Contains, a custom distance and the broadcast strategy are not taken
  // by the symmetric path: a same-node join moves exactly the counters of
  // the two-node join over equal partitions, which is today's path.
  Context ctx(4);
  const std::vector<Element> rows = MakeRows(/*mixed=*/true, 400, 2103);
  const JoinPredicate custom = JoinPredicate::WithinDistance(
      1.5,
      [](const STObject& a, const STObject& b) {
        return EuclideanDistance(a, b);
      },
      /*euclidean_compatible_fn=*/true);
  JoinOptions broadcast;
  broadcast.broadcast_threshold = rows.size();
  JoinOptions skewed;
  skewed.skew_split_factor = 1.5;
  struct Case {
    std::string name;
    JoinPredicate pred;
    JoinOptions options;
  };
  const std::vector<Case> cases = {
      {"contains", JoinPredicate::Contains(), skewed},
      {"containedBy", JoinPredicate::ContainedBy(), skewed},
      {"custom distance", custom, skewed},
      {"broadcast intersects", JoinPredicate::Intersects(), broadcast},
      {"broadcast withinDistance", JoinPredicate::WithinDistance(1.5),
       broadcast},
  };
  for (const Case& c : cases) {
    for (const Partitioning p : {Partitioning::kNone, Partitioning::kGrid}) {
      const std::string label = c.name + " partitioner=" + Name(p);
      const Pairs expect = BruteForce(rows, c.pred);
      const SpatialRDD<int64_t> one = Build(&ctx, rows, p);
      const SpatialRDD<int64_t> other = Build(&ctx, rows, p);
      const auto self =
          RunJoin([&] { return SpatialJoin(one, one, c.pred, c.options); });
      const auto two =
          RunJoin([&] { return SpatialJoin(one, other, c.pred, c.options); });
      EXPECT_EQ(self.first, expect) << label;
      EXPECT_EQ(two.first, expect) << label;
      EXPECT_EQ(self.second, two.second) << label;
    }
  }
  // Distinct nodes over equal data on a symmetric predicate stay on the
  // two-node path: every ordered partition pair is walked.
  const SpatialRDD<int64_t> a = Build(&ctx, rows, Partitioning::kNone);
  const SpatialRDD<int64_t> b = Build(&ctx, rows, Partitioning::kNone);
  const auto two = RunJoin(
      [&] { return SpatialJoin(a, b, JoinPredicate::WithinDistance(1.5)); });
  EXPECT_EQ(two.first, BruteForce(rows, JoinPredicate::WithinDistance(1.5)));
  EXPECT_EQ(two.second.at("engine.join.pairs_enumerated"), 9u);
}

// ---- Retry and cancel on the symmetric path ---------------------------------

TEST(SymmetricSelfJoinTest, DiagonalTaskFaultIsRetriedAndFlushedOnce) {
  Context ctx(4);
  const std::vector<Element> rows = MakeRows(/*mixed=*/false, 600, 2105);
  const JoinPredicate pred = JoinPredicate::WithinDistance(1.5);
  const size_t expected = BruteForce(rows, pred).size();
  const auto ids = [](const Element& a, const Element& b) {
    return Pair(a.second, b.second);
  };
  const auto keep_all = [](const Pair&) { return true; };
  const auto rdd = Build(&ctx, rows, Partitioning::kGrid);
  const auto joined = SpatialJoinProject(rdd, rdd, pred, JoinOptions{}, ids);
  const uint64_t clean_rows = CounterValue("engine.columnar.rows");
  ASSERT_EQ(joined.Filter(keep_all).Count(), expected);
  const uint64_t rows_per_run =
      CounterValue("engine.columnar.rows") - clean_rows;
  ASSERT_GT(rows_per_run, 0u);

  // A row meets itself only in a diagonal task, so the first identity pair
  // a task pushes throws inside one, after it has pushed others.
  std::atomic<bool> thrown{false};
  const auto faulty = [&](const Pair& p) {
    if (p.first == p.second && !thrown.exchange(true)) {
      throw std::runtime_error("injected fault in a diagonal task");
    }
    return true;
  };
  uint64_t retries = CounterValue("engine.task.retries");
  uint64_t results = CounterValue("engine.join.results");
  uint64_t kernel_rows = CounterValue("engine.columnar.rows");
  EXPECT_EQ(joined.Filter(faulty).Count(), expected);
  EXPECT_TRUE(thrown.load());
  EXPECT_GE(CounterValue("engine.task.retries") - retries, 1u);
  // The failed attempt flushed nothing; its retry counted everything once.
  EXPECT_EQ(CounterValue("engine.join.results") - results, expected);
  EXPECT_EQ(CounterValue("engine.columnar.rows") - kernel_rows, rows_per_run);

  // One input partition: the join's only task is the diagonal pair (0, 0),
  // and the armed fail point fails its first attempt.
  const auto single = SpatialRDD<int64_t>::FromVector(&ctx, rows, 1);
  const auto diagonal =
      SpatialJoinProject(single, single, pred, JoinOptions{}, ids);
  ASSERT_EQ(diagonal.NumPartitions(), 1u);
  kernel_rows = CounterValue("engine.columnar.rows");
  ASSERT_EQ(diagonal.Filter(keep_all).Count(), expected);
  const uint64_t diagonal_rows =
      CounterValue("engine.columnar.rows") - kernel_rows;
  ASSERT_GT(diagonal_rows, 0u);
  fault::FailPoint* const fp =
      fault::DefaultFailPoints().Get("engine.task.run");
  ASSERT_TRUE(
      fault::DefaultFailPoints().ArmFromSpec("engine.task.run=nth:1").ok());
  results = CounterValue("engine.join.results");
  kernel_rows = CounterValue("engine.columnar.rows");
  EXPECT_EQ(diagonal.Filter(keep_all).Count(), expected);
  EXPECT_EQ(fp->fires(), 1u);
  fault::DefaultFailPoints().DisarmAll();
  EXPECT_EQ(CounterValue("engine.join.results") - results, expected);
  EXPECT_EQ(CounterValue("engine.columnar.rows") - kernel_rows, diagonal_rows);
}

TEST(SymmetricSelfJoinTest, CancelledSelfJoinStopsPartway) {
  // 20k points in one partition: the join is one diagonal task refining
  // hundreds of thousands of pairs. The consumer requests cancellation at
  // its 100th pair; the task must stop at its next checkpoint.
  Context ctx(2);
  std::vector<Element> rows;
  Rng rng(2106);
  for (int64_t i = 0; i < 20000; ++i) {
    rows.emplace_back(
        Geometry::MakePoint({rng.Uniform(0.0, 30.0), rng.Uniform(0.0, 30.0)}),
        i);
  }
  const JoinPredicate pred = JoinPredicate::WithinDistance(0.5);
  const auto rdd = SpatialRDD<int64_t>::FromVector(&ctx, rows, 1);
  const auto joined = SpatialJoin(rdd, rdd, pred);
  ASSERT_EQ(joined.NumPartitions(), 1u);
  const size_t total = joined.Count();
  ASSERT_GT(total, 300000u);

  auto token = std::make_shared<CancelToken>();
  std::atomic<size_t> seen{0};
  const auto cancel_at_100 = [&](const auto&) {
    if (seen.fetch_add(1) + 1 == 100) token->RequestCancel();
    return true;
  };
  ctx.set_cancel_token(token);
  const Result<size_t> count = joined.Filter(cancel_at_100).TryCount();
  ctx.set_cancel_token(nullptr);
  EXPECT_FALSE(count.ok());
  EXPECT_TRUE(count.status().IsCancelled()) << count.status().ToString();
  EXPECT_GE(seen.load(), 100u);
  EXPECT_LT(seen.load(), total / 10);
}

}  // namespace
}  // namespace stark
