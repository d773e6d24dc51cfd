// Grouped self-join probe tests. A symmetric self-join whose partitions
// hold only points probes one leaf of the probe partition's own R-tree at a
// time: one tree query per leaf, after which each row keeps the listed
// candidates that pass its own grown-envelope test and the diagonal's row
// bound. Per row that must be exactly the candidate list of the row's own
// query, so the results equal brute force and the two-node join, and
// engine.columnar.rows equals an independent count of the (probe row, row)
// pairs whose envelopes pass that test — under every partitioning, with
// and without skew splits, on timed points, duplicates, NaN and inverted
// envelopes, and one-row and empty partitions. A grouped probe cancelled
// partway stops at its row checkpoint and flushes nothing. And at an
// infinite distance, where no envelope pruning is sound, every join
// strategy equals brute force on NaN-bearing rows.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/job_control.h"
#include "obs/metrics.h"
#include "partition/bsp_partitioner.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/join.h"

namespace stark {
namespace {

using Element = std::pair<STObject, int64_t>;
using Pair = std::pair<int64_t, int64_t>;
using Pairs = std::vector<Pair>;  // a sorted multiset of (left, right) ids

const Envelope kUniverse(0, 0, 100, 100);
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Seeded points clustered around five centres over [0,100]^2. Every other
/// point is snapped to the unit lattice, so many points coincide, and every
/// seventh repeats the previous point. A row is untimed, an instant or an
/// interval. With \p hostile, some rows are POINT(NaN NaN) or POINT(NaN y),
/// whose envelopes are empty, or POINT(x NaN), whose y range is inverted.
std::vector<Element> MakePoints(size_t n, uint64_t seed, bool hostile) {
  Rng rng(seed);
  std::vector<Coordinate> centres;
  for (int c = 0; c < 5; ++c) {
    centres.push_back({rng.Uniform(10.0, 90.0), rng.Uniform(10.0, 90.0)});
  }
  std::vector<Element> rows;
  Coordinate last{0, 0};
  for (size_t i = 0; i < n; ++i) {
    const Coordinate& centre = centres[rng.UniformInt(0, 4)];
    Coordinate c{centre.x + rng.Uniform(-4.0, 4.0),
                 centre.y + rng.Uniform(-4.0, 4.0)};
    if (i % 2 == 0) c = {std::round(c.x), std::round(c.y)};
    if (i % 7 == 6) c = last;
    last = c;
    if (hostile && i % 37 == 5) c = {kNaN, kNaN};
    if (hostile && i % 41 == 7) c.y = kNaN;
    if (hostile && i % 43 == 9) c.x = kNaN;
    const Geometry geo = Geometry::MakePoint(c);
    const auto id = static_cast<int64_t>(i);
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

uint64_t CounterValue(const char* name) {
  return obs::DefaultMetrics().GetCounter(name)->Value();
}

enum class Layout { kNone, kGrid, kBsp, kTinyParts };

const char* Name(Layout l) {
  switch (l) {
    case Layout::kNone: return "none";
    case Layout::kGrid: return "grid";
    case Layout::kBsp: return "bsp";
    case Layout::kTinyParts: return "tiny parts";
  }
  return "?";
}

/// A fresh lineage node over \p rows: three input partitions, partitioned
/// by a grid or BSP partitioner, or, for kTinyParts, four unpartitioned
/// partitions of which one holds a single row and one is empty.
SpatialRDD<int64_t> Build(Context* ctx, const std::vector<Element>& rows,
                          Layout layout) {
  switch (layout) {
    case Layout::kNone:
      return SpatialRDD<int64_t>::FromVector(ctx, rows, 3);
    case Layout::kGrid:
      return SpatialRDD<int64_t>::FromVector(ctx, rows, 3).PartitionBy(
          std::make_shared<GridPartitioner>(kUniverse, 3));
    case Layout::kBsp: {
      std::vector<Coordinate> centroids;
      for (const auto& [obj, id] : rows) centroids.push_back(obj.Centroid());
      BSPartitioner::Options opt;
      opt.max_cost = rows.size() / 8;
      return SpatialRDD<int64_t>::FromVector(ctx, rows, 3).PartitionBy(
          std::make_shared<BSPartitioner>(kUniverse, centroids, opt));
    }
    case Layout::kTinyParts: {
      const size_t half = rows.size() / 2;
      std::vector<std::vector<Element>> parts(4);
      parts[0].assign(rows.begin(), rows.begin() + half);
      parts[1].push_back(rows[half]);
      parts[3].assign(rows.begin() + half + 1, rows.end());
      return SpatialRDD<int64_t>(
          MakeRDDFromPartitions(ctx, std::move(parts)));
    }
  }
  return SpatialRDD<int64_t>::FromVector(ctx, rows, 3);
}

/// The candidates a per-row probe of the symmetric self-join of \p rdd
/// refines, counted without the join: over the partition pairs (i, j),
/// i <= j, that survive extent pruning, each row b of partition j meets
/// each row a of partition i whose envelope passes the FilterEnvelopesBatch
/// test against b's grown envelope, with a at or after b when i == j. A
/// row whose grown envelope is empty meets none. Also returns, in
/// \p probe_rows, how many rows those pairs probe.
uint64_t BruteForceCandidates(const SpatialRDD<int64_t>& rdd,
                              const JoinPredicate& pred,
                              uint64_t* probe_rows) {
  std::vector<std::vector<Element>> storage;
  const auto parts = rdd.rdd().PartitionViews(&storage);
  const auto extents = rdd.Extents();
  const double margin = pred.EnvelopeMargin();
  uint64_t count = 0;
  *probe_rows = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    for (size_t j = i; j < parts.size(); ++j) {
      if (extents != nullptr &&
          !(*extents)[i].Expanded(margin).Intersects((*extents)[j])) {
        continue;
      }
      const std::vector<Element>& left = *parts[i];
      const std::vector<Element>& right = *parts[j];
      *probe_rows += right.size();
      for (size_t b = 0; b < right.size(); ++b) {
        const Envelope q = right[b].first.envelope().Expanded(margin);
        if (q.IsEmpty()) continue;
        for (size_t a = i == j ? b : 0; a < left.size(); ++a) {
          const Envelope& e = left[a].first.envelope();
          if (!(e.min_x() > q.max_x()) && !(e.max_x() < q.min_x()) &&
              !(e.min_y() > q.max_y()) && !(e.max_y() < q.min_y())) {
            ++count;
          }
        }
      }
    }
  }
  return count;
}

TEST(GroupedProbeTest, EveryRowKeepsItsOwnCandidates) {
  Context ctx(4);
  // The BSP build splits at the nth_element of the centroids, which a NaN
  // leaves unordered, so only its layout gets no NaN rows.
  const std::vector<Element> clean = MakePoints(700, 2501, false);
  const std::vector<Element> hostile = MakePoints(700, 2502, true);
  for (const Layout layout :
       {Layout::kNone, Layout::kGrid, Layout::kBsp, Layout::kTinyParts}) {
    const std::vector<Element>& rows =
        layout == Layout::kBsp ? clean : hostile;
    for (const JoinPredicate& pred :
         {JoinPredicate::Intersects(), JoinPredicate::WithinDistance(0.0),
          JoinPredicate::WithinDistance(0.25)}) {
      const Pairs expect = BruteForce(rows, pred);
      ASSERT_GT(std::count_if(expect.begin(), expect.end(),
                              [](const Pair& p) { return p.first != p.second; }),
                100)
          << "too few pairs of distinct rows";
      for (const double skew : {0.0, 1.5}) {
        const std::string label =
            std::string(Name(layout)) + " " + PredicateName(pred.type) +
            " d=" + std::to_string(pred.max_distance) +
            " skew=" + std::to_string(skew);
        JoinOptions options;
        options.skew_split_factor = skew;
        const SpatialRDD<int64_t> one = Build(&ctx, rows, layout);
        const SpatialRDD<int64_t> other = Build(&ctx, rows, layout);
        uint64_t probe_rows = 0;
        const uint64_t candidates =
            BruteForceCandidates(one, pred, &probe_rows);

        const uint64_t kernel_rows = CounterValue("engine.columnar.rows");
        const uint64_t probes = CounterValue("engine.index.packed_probes");
        EXPECT_EQ(IdsOf(SpatialJoin(one, one, pred, options)), expect)
            << label;
        EXPECT_EQ(CounterValue("engine.columnar.rows") - kernel_rows,
                  candidates)
            << label;
        // One query per probe leaf, not per probe row.
        EXPECT_LT(CounterValue("engine.index.packed_probes") - probes,
                  probe_rows)
            << label;
        EXPECT_EQ(IdsOf(SpatialJoin(one, other, pred, options)), expect)
            << label;
      }
    }
  }
}

TEST(GroupedProbeTest, CancelledProbeStopsAtItsRowCheckpoint) {
  // One partition, so the join is one diagonal task: twelve equal points,
  // whose 144 pairs come first in the probe tree's storage order (their x
  // is the smallest), then 30k NaN rows that find no candidates at all.
  // The consumer cancels at its 100th pair, among the first twelve rows;
  // from there only the checkpoint every 1024 probe rows can stop the
  // task before it ends and flushes its tallies.
  Context ctx(2);
  std::vector<Element> rows;
  for (int64_t i = 0; i < 12; ++i) {
    rows.emplace_back(STObject(Geometry::MakePoint({-20.0, -20.0})), i);
  }
  for (int64_t i = 12; i < 30012; ++i) {
    rows.emplace_back(STObject(Geometry::MakePoint({kNaN, kNaN})), i);
  }
  const JoinPredicate pred = JoinPredicate::WithinDistance(0.5);
  const auto rdd = SpatialRDD<int64_t>::FromVector(&ctx, rows, 1);
  const auto joined = SpatialJoin(rdd, rdd, pred);
  ASSERT_EQ(joined.NumPartitions(), 1u);
  ASSERT_EQ(joined.Count(), 144u);

  constexpr const char* kTallies[] = {
      "engine.columnar.rows",       "engine.index.packed_probes",
      "engine.join.results",        "spatial.prepared.hits",
      "spatial.prepared.misses",
  };
  std::vector<uint64_t> before;
  for (const char* name : kTallies) before.push_back(CounterValue(name));
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
  EXPECT_EQ(seen.load(), 144u);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(CounterValue(kTallies[i]), before[i]) << kTallies[i];
  }
}

/// 40 grid points plus POINT(NaN NaN) and POINT(3 NaN).
std::vector<Element> NanBearingRows() {
  std::vector<Element> rows;
  for (int64_t i = 0; i < 40; ++i) {
    rows.emplace_back(STObject(Geometry::MakePoint(
                          {static_cast<double>(i % 8) * 0.5,
                           static_cast<double>(i / 8) * 0.5})),
                      i);
  }
  rows.emplace_back(STObject(Geometry::MakePoint({kNaN, kNaN})), 40);
  rows.emplace_back(STObject(Geometry::MakePoint({3.0, kNaN})), 41);
  return rows;
}

TEST(InfiniteDistanceTest, EveryJoinStrategyMatchesBruteForceOnNanRows) {
  Context ctx(2);
  const std::vector<Element> rows = NanBearingRows();
  JoinOptions nested;
  nested.index_order = 0;
  JoinOptions broadcast;
  broadcast.broadcast_threshold = rows.size();
  for (const double d : {kInf, 0.0, 0.25}) {
    const JoinPredicate pred = JoinPredicate::WithinDistance(d);
    const Pairs expect = BruteForce(rows, pred);
    // Distance folds NaN to +inf, so at d = +inf every pair matches.
    if (d == kInf) {
      EXPECT_EQ(expect.size(), rows.size() * rows.size());
    }
    for (const size_t parts : {size_t{1}, size_t{3}}) {
      const std::string label =
          "d=" + std::to_string(d) + " parts=" + std::to_string(parts);
      const auto one = SpatialRDD<int64_t>::FromVector(&ctx, rows, parts);
      const auto other = SpatialRDD<int64_t>::FromVector(&ctx, rows, parts);
      EXPECT_EQ(IdsOf(SpatialJoin(one, one, pred)), expect)
          << label << " symmetric";
      EXPECT_EQ(IdsOf(SpatialJoin(one, other, pred)), expect)
          << label << " two-node";
      EXPECT_EQ(IdsOf(SpatialJoin(one, one, pred, nested)), expect)
          << label << " symmetric nested loop";
      EXPECT_EQ(IdsOf(SpatialJoin(one, other, pred, nested)), expect)
          << label << " nested loop";
      EXPECT_EQ(IdsOf(SpatialJoin(one, other, pred, broadcast)), expect)
          << label << " broadcast";
      EXPECT_EQ(IdsOf(SpatialJoin(one.Index(4), other, pred)), expect)
          << label << " cached index";
      EXPECT_EQ(IdsOf(SpatialJoin(one.LiveIndex(4), other, pred)), expect)
          << label << " cached live index";
    }
  }
}

}  // namespace
}  // namespace stark
