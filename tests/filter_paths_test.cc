// Filter-path tests: the scan filter, the live and persistent indexed
// filters (also after Save/Load) and the served snapshot FILTER, each
// against a brute-force pred.Eval loop and its own emission order; the
// exact counter deltas each path moves on fixed seeded input; the
// cooperative cancellation checkpoint inside one long filter task; and
// NaN rows at d = +inf, 0 and 0.25 on every path.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/distance.h"
#include "engine/job_control.h"
#include "obs/metrics.h"
#include "partition/grid_partitioner.h"
#include "piglet/interpreter.h"
#include "serve/catalog.h"
#include "spatial_rdd/spatial_rdd.h"
#include "test_util.h"

namespace stark {
namespace {

using Element = std::pair<STObject, int64_t>;
using Ids = std::vector<int64_t>;

/// Seeded rows over [0,100]^2: all points, or with \p mixed every fourth
/// row a 4-8 vertex footprint polygon. Untimed, instant and interval rows
/// alternate unless \p all_timed (served events always carry a time).
std::vector<Element> MakeRows(bool mixed, bool all_timed, size_t n,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<Element> rows;
  for (size_t i = 0; i < n; ++i) {
    const Coordinate c{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    const Geometry geo =
        mixed && i % 4 == 3
            ? test::StarPolygonAround(&rng, c, rng.Uniform(0.3, 3.0),
                                      static_cast<int>(rng.UniformInt(4, 8)))
            : Geometry::MakePoint(c);
    const Instant t = rng.UniformInt(0, 1000);
    const auto id = static_cast<int64_t>(i);
    switch (i % 3) {
      case 0:
        rows.emplace_back(all_timed ? STObject(geo, t) : STObject(geo), id);
        break;
      case 1:
        rows.emplace_back(STObject(geo, t), id);
        break;
      default:
        rows.emplace_back(STObject(geo, t, t + rng.UniformInt(0, 300)), id);
        break;
    }
  }
  return rows;
}

/// A custom withinDistance function; \p euclidean_compatible decides
/// whether the filters may still prune by envelope.
JoinPredicate CustomDistance(double max_distance, bool euclidean_compatible) {
  return JoinPredicate::WithinDistance(
      max_distance,
      [](const STObject& a, const STObject& b) {
        return EuclideanDistance(a, b);
      },
      euclidean_compatible);
}

struct NamedPredicate {
  std::string name;
  JoinPredicate pred;
  std::string piglet;  // Piglet call prefix; empty when not expressible
};

std::vector<NamedPredicate> Predicates() {
  return {
      {"intersects", JoinPredicate::Intersects(), "INTERSECTS('"},
      {"contains", JoinPredicate::Contains(), "CONTAINS('"},
      {"containedBy", JoinPredicate::ContainedBy(), "CONTAINEDBY('"},
      {"withinDistance", JoinPredicate::WithinDistance(2.0),
       "WITHINDISTANCE('"},
      {"custom prunable", CustomDistance(2.0, true), ""},
      {"custom unprunable", CustomDistance(2.0, false), ""},
  };
}

struct Query {
  std::string wkt;
  bool timed;
  STObject obj;
};

std::vector<Query> Queries() {
  std::vector<Query> out;
  for (const std::string wkt :
       {"POLYGON ((20 20, 60 20, 60 55, 20 55, 20 20))", "POINT (50 50)"}) {
    for (const bool timed : {true, false}) {
      auto obj = timed ? STObject::FromWkt(wkt, Instant{100}, Instant{700})
                       : STObject::FromWkt(wkt);
      out.push_back({wkt, timed, obj.ValueOrDie()});
    }
  }
  return out;
}

/// The Piglet spelling of \p pred against \p q, e.g.
/// "WITHINDISTANCE('POINT (50 50)', 2, 100, 700)".
std::string PigletCall(const NamedPredicate& pred, const Query& q) {
  std::string call = pred.piglet + q.wkt + "'";
  if (pred.pred.type == PredicateType::kWithinDistance) {
    std::ostringstream d;
    d << pred.pred.max_distance;
    call += ", " + d.str();
  }
  if (q.timed) call += ", 100, 700";
  return call + ")";
}

Ids IdsOf(const std::vector<Element>& rows) {
  Ids ids;
  for (const auto& [obj, id] : rows) ids.push_back(id);
  return ids;
}

Ids Sorted(Ids ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The ids of \p rows that satisfy pred.Eval(row, query), in row order.
Ids BruteForce(const std::vector<Element>& rows, const JoinPredicate& pred,
               const STObject& query) {
  Ids ids;
  for (const auto& [obj, id] : rows) {
    if (pred.Eval(obj, query)) ids.push_back(id);
  }
  return ids;
}

/// The indexed filters' emission order: partition by partition, each tree
/// probed with the grown query envelope (walked whole for an unprunable
/// predicate), candidates in tree order.
Ids TreeOrder(const IndexedSpatialRDD<int64_t>& indexed,
              const JoinPredicate& pred, const STObject& query) {
  const Envelope probe = query.envelope().Expanded(pred.EnvelopeMargin());
  Ids ids;
  const auto visit = [&](const Envelope&, const Element& e) {
    if (pred.Eval(e.first, query)) ids.push_back(e.second);
  };
  for (const auto& part : indexed.trees().CollectPartitions()) {
    for (const auto& tree : part) {
      if (pred.Prunable()) {
        tree->Query(probe, visit);
      } else {
        tree->ForEach(visit);
      }
    }
  }
  return ids;
}

/// A Piglet session over one served snapshot, bound as `events`.
class SnapshotSession {
 public:
  explicit SnapshotSession(const std::vector<Element>& rows)
      : interp_(&ctx_, &out_) {
    std::vector<stream::StreamEvent> events;
    for (const auto& [obj, id] : rows) events.emplace_back(id, "c", obj);
    snap_ = std::make_shared<const serve::DatasetSnapshot>(
        serve::BuildSnapshot(1, events, 8));
    piglet::PigRelation rel;
    rel.schema = {"id", "category", "time", "wkt"};
    rel.spatialized = true;
    rel.snapshot = snap_;
    std::vector<piglet::PigRow> pig_rows;
    for (const stream::StreamEvent& e : events) {
      pig_rows.push_back(piglet::RowFromStreamEvent(e));
    }
    rel.rdd = MakeRDD(&ctx_, std::move(pig_rows));
    interp_.BindRelation("events", std::move(rel));
  }

  /// The ids `FILTER events BY call` returns, in emission order.
  Ids Filter(const std::string& call) {
    const Status status =
        interp_.RunScript("hits = FILTER events BY " + call + ";");
    EXPECT_TRUE(status.ok()) << call << ": " << status.ToString();
    Ids ids;
    auto hits = interp_.relation("hits");
    if (!hits.ok()) return ids;
    for (const piglet::PigRow& row : hits.ValueOrDie()->rdd.Collect()) {
      ids.push_back(std::get<int64_t>(row.fields[0]));
    }
    return ids;
  }

  /// The served filter's emission order: the epoch tree probed with the
  /// grown query envelope, candidates in tree order.
  Ids TreeOrder(const JoinPredicate& pred, const STObject& query) const {
    Ids ids;
    snap_->tree->Query(
        query.envelope().Expanded(pred.EnvelopeMargin()),
        [&](const Envelope&, const uint32_t& idx) {
          const stream::StreamEvent& ev = (*snap_->events)[idx];
          if (pred.Eval(ev.obj, query)) ids.push_back(ev.id);
        });
    return ids;
  }

 private:
  Context ctx_{1};
  std::ostringstream out_;
  piglet::Interpreter interp_;
  std::shared_ptr<const serve::DatasetSnapshot> snap_;
};

TEST(FilterPathsTest, EveryPathMatchesBruteForceInItsOwnOrder) {
  Context ctx(4);
  const auto grid =
      std::make_shared<GridPartitioner>(Envelope(0, 0, 100, 100), 3);
  const std::string dir = test::UniqueTempPath("filter_paths_index");
  for (const bool mixed : {false, true}) {
    const std::string shape = mixed ? "mixed" : "points";
    const std::vector<Element> rows =
        MakeRows(mixed, /*all_timed=*/false, 600, mixed ? 2002 : 2001);
    const SpatialRDD<int64_t> rdd =
        SpatialRDD<int64_t>::FromVector(&ctx, rows, 3).PartitionBy(grid);
    const IndexedSpatialRDD<int64_t> live = rdd.LiveIndex(8);
    const IndexedSpatialRDD<int64_t> persistent = rdd.Index(8);
    std::filesystem::create_directories(dir);
    ASSERT_TRUE(persistent.Save(dir).ok());
    auto loaded_or = IndexedSpatialRDD<int64_t>::Load(&ctx, dir);
    ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
    const IndexedSpatialRDD<int64_t> loaded = loaded_or.ValueOrDie();
    const std::vector<Element> events =
        MakeRows(mixed, /*all_timed=*/true, 600, mixed ? 2004 : 2003);
    SnapshotSession served(events);

    for (const NamedPredicate& p : Predicates()) {
      for (const Query& q : Queries()) {
        const std::string what = shape + " " + p.name + " " + q.wkt +
                                 (q.timed ? " timed" : " untimed");
        const Ids expect = Sorted(BruteForce(rows, p.pred, q.obj));

        // The scan filter emits partition by partition, in row order.
        Ids scan_order;
        for (const auto& part : rdd.rdd().CollectPartitions()) {
          for (const Element& e : part) {
            if (p.pred.Eval(e.first, q.obj)) scan_order.push_back(e.second);
          }
        }
        const Ids scan = IdsOf(rdd.Filter(q.obj, p.pred).Collect());
        EXPECT_EQ(Sorted(scan), expect) << what << " (scan)";
        EXPECT_EQ(scan, scan_order) << what << " (scan order)";

        const std::pair<const char*, const IndexedSpatialRDD<int64_t>*>
            indexed[] = {{"live", &live},
                         {"persistent", &persistent},
                         {"loaded", &loaded}};
        for (const auto& [name, index] : indexed) {
          const Ids got = IdsOf(index->Filter(q.obj, p.pred).Collect());
          EXPECT_EQ(Sorted(got), expect) << what << " (" << name << ")";
          EXPECT_EQ(got, TreeOrder(*index, p.pred, q.obj))
              << what << " (" << name << " order)";
        }

        // Custom distance functions cannot be written in Piglet.
        if (p.piglet.empty()) continue;
        const std::string call = PigletCall(p, q);
        const Ids got = served.Filter(call);
        EXPECT_EQ(Sorted(got), Sorted(BruteForce(events, p.pred, q.obj)))
            << what << " (served " << call << ")";
        EXPECT_EQ(got, served.TreeOrder(p.pred, q.obj))
            << what << " (served order " << call << ")";
      }
    }
  }
  std::filesystem::remove_all(dir);
}

/// The served filter's refine over \p snap, called as the Piglet FILTER
/// calls it, for distances Piglet cannot spell.
Ids ServedRefine(const serve::DatasetSnapshot& snap, const JoinPredicate& pred,
                 const STObject& query) {
  struct EventObj {
    const STObject& operator()(const stream::StreamEvent& e) const {
      return e.obj;
    }
  };
  columnar_refine::TaskState task;
  Ids ids;
  columnar_refine::RefineFixed(
      pred,
      columnar_refine::SelectSource(pred, snap.events.get(),
                                    snap.columnar.get(), snap.tree.get(),
                                    EventObj{}),
      query, /*cand_left=*/true, nullptr, &task,
      [&](const stream::StreamEvent& e) { ids.push_back(e.id); });
  return ids;
}

TEST(FilterPathsTest, NanRowsMatchBruteForceAtEveryDistance) {
  // Distance folds NaN to +inf, so a NaN row is within +inf of every
  // query, though its envelope is empty (POINT(NaN NaN)) or inverted
  // (POINT(3 NaN)): at d = +inf no filter path may prune by envelope.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Context ctx(2);
  std::vector<Element> rows;
  for (int64_t i = 0; i < 40; ++i) {
    rows.emplace_back(STObject(Geometry::MakePoint(
                          {static_cast<double>(i % 8) * 0.5,
                           static_cast<double>(i / 8) * 0.5}),
                          Instant{100}),
                      i);
  }
  rows.emplace_back(STObject(Geometry::MakePoint({nan, nan}), Instant{100}),
                    40);
  rows.emplace_back(STObject(Geometry::MakePoint({3.0, nan}), Instant{100}),
                    41);
  const SpatialRDD<int64_t> rdd = SpatialRDD<int64_t>::FromVector(&ctx, rows, 3);
  const IndexedSpatialRDD<int64_t> live = rdd.LiveIndex(4);
  const IndexedSpatialRDD<int64_t> persistent = rdd.Index(4);
  std::vector<stream::StreamEvent> events;
  for (const auto& [obj, id] : rows) events.emplace_back(id, "c", obj);
  const serve::DatasetSnapshot snap = serve::BuildSnapshot(1, events, 4);
  SnapshotSession served(rows);
  const std::vector<STObject> queries = {
      STObject(Geometry::MakePoint({1.0, 1.0})),
      STObject(Geometry::MakePoint({nan, nan})),
      STObject(Geometry::MakePoint({3.0, nan})),
  };
  for (const double d : {std::numeric_limits<double>::infinity(), 0.0,
                         0.25}) {
    const JoinPredicate pred = JoinPredicate::WithinDistance(d);
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string what =
          "d=" + std::to_string(d) + " query " + std::to_string(q);
      const Ids expect = Sorted(BruteForce(rows, pred, queries[q]));
      if (std::isinf(d)) {
        EXPECT_EQ(expect.size(), rows.size()) << what;
      }
      EXPECT_EQ(Sorted(IdsOf(rdd.Filter(queries[q], pred).Collect())), expect)
          << what << " (scan)";
      EXPECT_EQ(Sorted(IdsOf(live.Filter(queries[q], pred).Collect())),
                expect)
          << what << " (live)";
      EXPECT_EQ(Sorted(IdsOf(persistent.Filter(queries[q], pred).Collect())),
                expect)
          << what << " (persistent)";
      EXPECT_EQ(Sorted(ServedRefine(snap, pred, queries[q])), expect)
          << what << " (served refine)";
    }
    // The served FILTER through Piglet, where it can spell the query.
    if (std::isinf(d)) continue;
    const Query point{"POINT (1 1)", false, queries[0]};
    const NamedPredicate named{"withinDistance", pred, "WITHINDISTANCE('"};
    EXPECT_EQ(Sorted(served.Filter(PigletCall(named, point))),
              Sorted(BruteForce(rows, pred, queries[0])))
        << "d=" << d << " (served)";
  }
}

// ---- Counter parity ---------------------------------------------------------

/// Every counter a filter path moves.
constexpr const char* kFilterCounters[] = {
    "spatial.filter.partitions_pruned",
    "spatial.filter.partitions_scanned",
    "spatial.filter.candidates",
    "spatial.filter.results",
    "serve.snapshot.probes",
    "serve.snapshot.candidates",
    "serve.snapshot.results",
    "engine.columnar.batches",
    "engine.columnar.rows",
    "engine.columnar.fallbacks",
    "engine.columnar.slab_reuse",
    "spatial.prepared.hits",
    "spatial.prepared.misses",
    "engine.index.packed_probes",
};

using Deltas = std::map<std::string, uint64_t>;

/// The non-zero deltas of kFilterCounters across \p run.
template <typename Fn>
Deltas DeltasOf(Fn&& run) {
  std::vector<uint64_t> before;
  for (const char* name : kFilterCounters) {
    before.push_back(obs::DefaultMetrics().GetCounter(name)->Value());
  }
  run();
  Deltas deltas;
  for (size_t i = 0; i < before.size(); ++i) {
    const uint64_t after =
        obs::DefaultMetrics().GetCounter(kFilterCounters[i])->Value();
    if (after != before[i]) deltas[kFilterCounters[i]] = after - before[i];
  }
  return deltas;
}

TEST(FilterPathsTest, EveryPathKeepsItsExactCounterDeltas) {
  // Fixed seeded input per path; the expected deltas pin what each filter
  // prunes, probes, prepares and refines on which path, so a change to how
  // the filters are organised cannot silently change the work they do.
  Context ctx(4);
  const auto grid =
      std::make_shared<GridPartitioner>(Envelope(0, 0, 100, 100), 3);
  const std::vector<Element> points =
      MakeRows(/*mixed=*/false, /*all_timed=*/false, 600, 3001);
  const std::vector<Element> mixed =
      MakeRows(/*mixed=*/true, /*all_timed=*/false, 600, 3002);
  const SpatialRDD<int64_t> point_rdd =
      SpatialRDD<int64_t>::FromVector(&ctx, points, 3).PartitionBy(grid);
  const SpatialRDD<int64_t> mixed_rdd =
      SpatialRDD<int64_t>::FromVector(&ctx, mixed, 3).PartitionBy(grid);
  const STObject box(Geometry::MakeBox(Envelope(20, 20, 60, 55)),
                     Instant{100}, Instant{700});
  const auto intersects = JoinPredicate::Intersects();
  const auto custom = CustomDistance(2.0, /*euclidean_compatible=*/false);

  // Scan filter: kernels over cached slabs (twice: the second reuses
  // them), the scalar refine over a mixed partition, a custom distance.
  EXPECT_EQ(DeltasOf([&] {
              point_rdd.Filter(box, intersects).Count();
              point_rdd.Filter(box, intersects).Count();
            }),
            (Deltas{{"engine.columnar.batches", 4},
                    {"engine.columnar.rows", 150},
                    {"engine.columnar.slab_reuse", 4},
                    {"spatial.filter.candidates", 498},
                    {"spatial.filter.partitions_pruned", 10},
                    {"spatial.filter.partitions_scanned", 8},
                    {"spatial.filter.results", 52},
                    {"spatial.prepared.hits", 142},
                    {"spatial.prepared.misses", 8}}))
      << "scan, point kernels";
  EXPECT_EQ(DeltasOf([&] { mixed_rdd.Filter(box, intersects).Count(); }),
            (Deltas{{"engine.columnar.fallbacks", 250},
                    {"spatial.filter.candidates", 250},
                    {"spatial.filter.partitions_pruned", 5},
                    {"spatial.filter.partitions_scanned", 4},
                    {"spatial.filter.results", 26},
                    {"spatial.prepared.hits", 246},
                    {"spatial.prepared.misses", 4}}))
      << "scan, scalar refine";
  EXPECT_EQ(DeltasOf([&] { point_rdd.Filter(box, custom).Count(); }),
            (Deltas{{"engine.columnar.fallbacks", 600},
                    {"spatial.filter.candidates", 600},
                    {"spatial.filter.partitions_scanned", 9},
                    {"spatial.filter.results", 92}}))
      << "scan, custom distance";

  // Live and persistent indexed filters: tree probes and the scalar
  // refine, or a whole-tree walk for the unprunable custom distance.
  const IndexedSpatialRDD<int64_t> live = point_rdd.LiveIndex(8);
  const IndexedSpatialRDD<int64_t> persistent = mixed_rdd.Index(8);
  persistent.trees().Count();
  EXPECT_EQ(DeltasOf([&] { live.Filter(box, intersects).Count(); }),
            (Deltas{{"engine.index.packed_probes", 4},
                    {"spatial.filter.candidates", 75},
                    {"spatial.filter.partitions_pruned", 5},
                    {"spatial.filter.partitions_scanned", 4},
                    {"spatial.filter.results", 26},
                    {"spatial.prepared.hits", 71},
                    {"spatial.prepared.misses", 4}}))
      << "live index";
  EXPECT_EQ(DeltasOf([&] { live.Filter(box, custom).Count(); }),
            (Deltas{{"spatial.filter.candidates", 600},
                    {"spatial.filter.partitions_scanned", 9},
                    {"spatial.filter.results", 92}}))
      << "live index, custom distance";
  EXPECT_EQ(DeltasOf([&] { persistent.Filter(box, intersects).Count(); }),
            (Deltas{{"engine.index.packed_probes", 4},
                    {"spatial.filter.candidates", 77},
                    {"spatial.filter.partitions_pruned", 5},
                    {"spatial.filter.partitions_scanned", 4},
                    {"spatial.filter.results", 26},
                    {"spatial.prepared.hits", 73},
                    {"spatial.prepared.misses", 4}}))
      << "persistent index";

  // Served snapshot FILTER: kernels over the epoch's slabs (twice: the
  // second reuses them), the scalar refine over a mixed epoch. Like the
  // indexed filters it counts its tree probe and its prepared query.
  SnapshotSession point_epoch(
      MakeRows(/*mixed=*/false, /*all_timed=*/true, 600, 3003));
  SnapshotSession mixed_epoch(
      MakeRows(/*mixed=*/true, /*all_timed=*/true, 600, 3004));
  const std::string call =
      "INTERSECTS('POLYGON ((20 20, 60 20, 60 55, 20 55, 20 20))', 100, 700)";
  EXPECT_EQ(DeltasOf([&] {
              point_epoch.Filter(call);
              point_epoch.Filter(call);
            }),
            (Deltas{{"engine.columnar.batches", 1},
                    {"engine.columnar.rows", 170},
                    {"engine.columnar.slab_reuse", 1},
                    {"engine.index.packed_probes", 2},
                    {"serve.snapshot.candidates", 170},
                    {"serve.snapshot.probes", 2},
                    {"serve.snapshot.results", 96},
                    {"spatial.prepared.hits", 168},
                    {"spatial.prepared.misses", 2}}))
      << "snapshot, point kernels";
  EXPECT_EQ(DeltasOf([&] { mixed_epoch.Filter(call); }),
            (Deltas{{"engine.columnar.fallbacks", 94},
                    {"engine.index.packed_probes", 1},
                    {"serve.snapshot.candidates", 94},
                    {"serve.snapshot.probes", 1},
                    {"serve.snapshot.results", 52},
                    {"spatial.prepared.hits", 93},
                    {"spatial.prepared.misses", 1}}))
      << "snapshot, scalar refine";
}

// ---- Cancellation -----------------------------------------------------------

/// Runs \p count_filter over one 50k-row partition with a custom-distance
/// predicate that requests cancellation on its 100th call, and returns how
/// often the function ran. The filter task must stop at its next
/// checkpoint instead of refining the rest of the partition.
template <typename CountFilter>
size_t CallsUntilCancelled(Context* ctx, CountFilter&& count_filter) {
  auto token = std::make_shared<CancelToken>();
  std::atomic<size_t> calls{0};
  const JoinPredicate pred = JoinPredicate::WithinDistance(
      1.0, [&](const STObject& a, const STObject& b) {
        if (calls.fetch_add(1) + 1 == 100) token->RequestCancel();
        return EuclideanDistance(a, b);
      });
  ctx->set_cancel_token(token);
  const Result<size_t> count = count_filter(pred);
  ctx->set_cancel_token(nullptr);
  EXPECT_FALSE(count.ok());
  EXPECT_TRUE(count.status().IsCancelled()) << count.status().ToString();
  return calls.load();
}

std::vector<Element> FiftyThousandPoints() {
  return MakeRows(/*mixed=*/false, /*all_timed=*/false, 50000, 4001);
}

constexpr size_t kFiftyThousand = 50000;

TEST(FilterCancelTest, ScanFilterStopsPartwayThroughItsPartition) {
  Context ctx(2);
  const auto rdd =
      SpatialRDD<int64_t>::FromVector(&ctx, FiftyThousandPoints(), 1);
  const STObject query(Geometry::MakePoint({50.0, 50.0}));
  const size_t calls = CallsUntilCancelled(&ctx, [&](const JoinPredicate& p) {
    return rdd.Filter(query, p).TryCount();
  });
  EXPECT_GE(calls, 100u);
  EXPECT_LT(calls, kFiftyThousand / 10);
}

TEST(FilterCancelTest, IndexedFilterStopsPartwayThroughItsPartition) {
  Context ctx(2);
  const IndexedSpatialRDD<int64_t> indexed =
      SpatialRDD<int64_t>::FromVector(&ctx, FiftyThousandPoints(), 1)
          .Index(10);
  ASSERT_EQ(indexed.trees().Count(), 1u);
  const STObject query(Geometry::MakePoint({50.0, 50.0}));
  const size_t calls = CallsUntilCancelled(&ctx, [&](const JoinPredicate& p) {
    return indexed.Filter(query, p).TryCount();
  });
  EXPECT_GE(calls, 100u);
  EXPECT_LT(calls, kFiftyThousand / 10);
}

}  // namespace
}  // namespace stark
