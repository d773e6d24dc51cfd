// kNN-path tests: every kNN path — the scan (Euclidean and a custom
// distance), the live, persistent and reloaded indexes, the kNN join, Piglet
// KNN over an unbound, an INDEXed and a snapshot-bound relation, and a served
// Session::Run — against a brute-force oracle in the kNN order (distance,
// then the tie key); the thin-polygon regression of the envelope bound; the
// exact counter deltas each path moves; and the cooperative cancellation
// checkpoint inside one long kNN task.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
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
#include "serve/server.h"
#include "spatial_rdd/knn.h"
#include "spatial_rdd/knn_join.h"
#include "spatial_rdd/spatial_rdd.h"
#include "test_util.h"

namespace stark {
namespace {

using Element = std::pair<STObject, int64_t>;

/// One row of a kNN answer.
struct Hit {
  double dist;
  STObject obj;
  int64_t id;
};
using Answer = std::vector<Hit>;

Answer FromPairs(const std::vector<std::pair<double, Element>>& hits) {
  Answer out;
  for (const auto& [dist, e] : hits) out.push_back({dist, e.first, e.second});
  return out;
}

/// The oracle: every row's plain Distance to the query, sorted by
/// (distance, tie key), the first \p k.
Answer BruteForce(const std::vector<Element>& rows, const STObject& query,
                  size_t k) {
  Answer all;
  for (const auto& [obj, id] : rows) {
    all.push_back({Distance(obj.geo(), query.geo()), obj, id});
  }
  std::sort(all.begin(), all.end(), [](const Hit& a, const Hit& b) {
    return a.dist < b.dist ||
           (a.dist == b.dist && knn::KeyLess(a.obj, b.obj));
  });
  all.erase(all.begin() + static_cast<ptrdiff_t>(std::min(k, all.size())),
            all.end());
  return all;
}

bool SameKey(const STObject& a, const STObject& b) {
  return !knn::KeyLess(a, b) && !knn::KeyLess(b, a);
}

/// \p got must be \p want's (distance, key) sequence exactly; rows equal
/// in both distance and key compare as multisets of ids.
void ExpectSameAnswer(const Answer& got, const Answer& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].dist, want[i].dist) << what << " rank " << i;
    EXPECT_TRUE(SameKey(got[i].obj, want[i].obj))
        << what << " rank " << i << ": " << got[i].obj.ToString() << " vs "
        << want[i].obj.ToString();
  }
  for (size_t i = 0; i < want.size();) {
    size_t j = i + 1;
    while (j < want.size() && want[j].dist == want[i].dist &&
           SameKey(want[j].obj, want[i].obj)) {
      ++j;
    }
    std::multiset<int64_t> got_ids, want_ids;
    for (size_t r = i; r < j; ++r) {
      got_ids.insert(got[r].id);
      want_ids.insert(want[r].id);
    }
    EXPECT_EQ(got_ids, want_ids) << what << " ranks " << i << ".." << j;
    i = j;
  }
}

std::vector<stream::StreamEvent> EventsOf(const std::vector<Element>& rows) {
  std::vector<stream::StreamEvent> events;
  for (const auto& [obj, id] : rows) events.emplace_back(id, "c", obj);
  return events;
}

/// A Piglet interpreter with the rows bound three ways: `plain` (scanned),
/// `indexed` (INDEX ... ORDER 4 by a statement) and `served`, bound to a
/// snapshot of the rows as the serving layer binds its datasets.
class PigletKnn {
 public:
  explicit PigletKnn(const std::vector<Element>& rows)
      : interp_(&ctx_, &out_) {
    const std::vector<stream::StreamEvent> events = EventsOf(rows);
    snap_ = std::make_shared<const serve::DatasetSnapshot>(
        serve::BuildSnapshot(1, events, 8));
    std::vector<piglet::PigRow> pig_rows;
    for (const stream::StreamEvent& e : events) {
      pig_rows.push_back(piglet::RowFromStreamEvent(e));
    }
    piglet::PigRelation rel;
    rel.schema = {"id", "category", "time", "wkt"};
    rel.spatialized = true;
    rel.rdd = MakeRDD(&ctx_, std::move(pig_rows), 3);
    interp_.BindRelation("plain", rel);
    rel.snapshot = snap_;
    interp_.BindRelation("served", rel);
    EXPECT_TRUE(interp_.RunScript("indexed = INDEX plain ORDER 4;").ok());
  }

  /// `KNN relation QUERY 'wkt' K k` as a statement.
  static std::string Script(const std::string& relation,
                            const std::string& wkt, size_t k) {
    return "nearest = KNN " + relation + " QUERY '" + wkt + "' K " +
           std::to_string(k) + ";\n";
  }

  /// The answer of `KNN relation ...`.
  Answer Knn(const std::string& relation, const std::string& wkt, size_t k) {
    const Status status = interp_.RunScript(Script(relation, wkt, k));
    EXPECT_TRUE(status.ok()) << relation << ": " << status.ToString();
    return Rows();
  }

  /// The DUMP text of `KNN relation ...`.
  std::string Dump(const std::string& relation, const std::string& wkt,
                   size_t k) {
    out_.str("");
    EXPECT_TRUE(
        interp_.RunScript(Script(relation, wkt, k) + "DUMP nearest;\n").ok());
    return out_.str();
  }

  /// The KNN statement's EXPLAIN ANALYZE counters.
  QueryStats::Snapshot Analyze(const std::string& relation,
                               const std::string& wkt, size_t k) {
    piglet::AnalyzeReport report;
    EXPECT_TRUE(
        interp_.RunScriptAnalyze(Script(relation, wkt, k), &report).ok());
    EXPECT_EQ(report.operators.size(), 1u);
    return report.operators.empty() ? QueryStats::Snapshot{}
                                    : report.operators[0].filter;
  }

 private:
  Answer Rows() {
    Answer out;
    auto nearest = interp_.relation("nearest");
    if (!nearest.ok()) return out;
    for (const piglet::PigRow& row : nearest.ValueOrDie()->rdd.Collect()) {
      out.push_back({std::get<double>(row.fields.back()), *row.st,
                     std::get<int64_t>(row.fields[0])});
    }
    return out;
  }

  Context ctx_{2};
  std::ostringstream out_;
  piglet::Interpreter interp_;
  std::shared_ptr<const serve::DatasetSnapshot> snap_;
};

/// Seeded timed rows over [0,100]^2 (served events always carry a time):
/// points, star polygons and lines, plus rows that tie on purpose — one
/// point at three times (same envelope, distinct keys) and a duplicated
/// row (same distance and key) in a far corner.
std::vector<Element> MixedRows(uint64_t seed) {
  Rng rng(seed);
  std::vector<Element> rows;
  auto add = [&](Geometry geo) {
    const auto id = static_cast<int64_t>(rows.size());
    const Instant t = rng.UniformInt(0, 1000);
    rows.emplace_back(id % 2 == 0
                          ? STObject(std::move(geo), t)
                          : STObject(std::move(geo), t,
                                     t + rng.UniformInt(0, 300)),
                      id);
  };
  for (int i = 0; i < 240; ++i) {
    add(Geometry::MakePoint(
        Coordinate{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)}));
  }
  for (int i = 0; i < 30; ++i) {
    const Coordinate c{rng.Uniform(5.0, 95.0), rng.Uniform(5.0, 95.0)};
    add(test::StarPolygonAround(&rng, c, rng.Uniform(0.5, 3.0),
                                static_cast<int>(rng.UniformInt(4, 8))));
  }
  for (int i = 0; i < 30; ++i) {
    const Coordinate a{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
    const Coordinate b{a.x + rng.Uniform(-5.0, 5.0),
                       a.y + rng.Uniform(-5.0, 5.0)};
    add(Geometry::MakeLineString({a, b}).ValueOrDie());
  }
  const Geometry same = Geometry::MakePoint(43.0, 56.0);
  for (const auto& [t0, t1] : {std::pair<Instant, Instant>{5, 5}, {5, 9},
                               {9, 9}}) {
    rows.emplace_back(STObject(same, t0, t1),
                      static_cast<int64_t>(rows.size()));
  }
  for (int i = 0; i < 2; ++i) {
    rows.emplace_back(STObject(Geometry::MakePoint(99.5, 0.5), Instant{1}),
                      static_cast<int64_t>(rows.size()));
  }
  return rows;
}

/// A 21x21 grid of points spaced 5 apart over [0,100]^2: queried at its
/// centre, equal distances come in rings of four or eight that k cuts.
std::vector<Element> GridRows() {
  std::vector<Element> rows;
  for (int i = 0; i <= 20; ++i) {
    for (int j = 0; j <= 20; ++j) {
      const auto id = static_cast<int64_t>(rows.size());
      rows.emplace_back(
          STObject(Geometry::MakePoint(5.0 * i, 5.0 * j), Instant{id}), id);
    }
  }
  return rows;
}

constexpr const char* kThinPolygon =
    "POLYGON ((0 50, 100 50, 100 50.1, 0 50.1, 0 50))";

std::vector<std::string> QueryWkts() {
  return {"POINT (50 50)", "POINT (42.5 57.3)",
          "LINESTRING (10 80, 40 70, 60 90)",
          "POLYGON ((60 10, 80 15, 75 35, 62 30, 60 10))", kThinPolygon};
}

/// The kNN join's matches for a one-row left side holding \p query.
Answer JoinAnswer(Context* ctx, const STObject& query,
                  const SpatialRDD<int64_t>& right, size_t k) {
  const auto left = SpatialRDD<int64_t>::FromVector(ctx, {{query, -1}}, 1);
  const auto joined = KnnJoin(left, right, k).Collect();
  EXPECT_EQ(joined.size(), 1u);
  Answer out;
  if (joined.empty()) return out;
  for (const auto& [dist, r] : joined[0].second) {
    out.push_back({dist, r.first, r.second});
  }
  return out;
}

/// The rows of \p rows a KNN's DUMP \p text lists, in its order, each at
/// its exact distance to \p query. A DUMP line opens with "(id, ".
Answer DumpedRows(const std::string& text, const std::vector<Element>& rows,
                  const STObject& query) {
  Answer out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const Element& row = rows.at(std::stoul(line.substr(1)));
    out.push_back(
        {Distance(row.first.geo(), query.geo()), row.first, row.second});
  }
  return out;
}

std::vector<std::string> SortedLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(KnnPathsTest, EveryPathMatchesBruteForce) {
  Context ctx(4);
  const auto grid =
      std::make_shared<GridPartitioner>(Envelope(0, 0, 100, 100), 3);
  const std::string dir = test::UniqueTempPath("knn_paths_index");
  for (const bool mixed : {true, false}) {
    const std::string shape = mixed ? "mixed" : "grid";
    const std::vector<Element> rows = mixed ? MixedRows(5001) : GridRows();
    const size_t n = rows.size();
    const auto rdd = SpatialRDD<int64_t>::FromVector(&ctx, rows, 3);
    const auto parted = rdd.PartitionBy(grid);
    const IndexedSpatialRDD<int64_t> live = rdd.LiveIndex(4);
    const IndexedSpatialRDD<int64_t> persistent = rdd.Index(4, grid);
    std::filesystem::create_directories(dir);
    ASSERT_TRUE(persistent.Save(dir).ok());
    auto loaded_or = IndexedSpatialRDD<int64_t>::Load(&ctx, dir);
    ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
    const IndexedSpatialRDD<int64_t> loaded = loaded_or.ValueOrDie();
    PigletKnn piglet(rows);

    serve::Catalog catalog;
    ASSERT_TRUE(catalog.CreateDataset("events", 8).ok());
    ASSERT_TRUE(catalog.Ingest("events", EventsOf(rows)).ok());
    serve::ServerOptions options;
    options.query_threads = 1;
    options.engine_threads = 2;
    serve::Server server(&catalog, options);
    ASSERT_TRUE(server.Start().ok());
    std::unique_ptr<serve::Session> session = server.OpenSession();

    for (const std::string& wkt : QueryWkts()) {
      const STObject query = STObject::FromWkt(wkt).ValueOrDie();
      for (const size_t k : {size_t{0}, size_t{1}, size_t{3}, n + 5}) {
        const std::string what =
            shape + " " + wkt + " k=" + std::to_string(k);
        const Answer want = BruteForce(rows, query, k);
        ExpectSameAnswer(FromPairs(rdd.Knn(query, k)), want, what + " scan");
        ExpectSameAnswer(FromPairs(rdd.Knn(query, k, EuclideanDistance)),
                         want, what + " scan, custom distance");
        ExpectSameAnswer(FromPairs(live.Knn(query, k)), want, what + " live");
        ExpectSameAnswer(FromPairs(persistent.Knn(query, k)), want,
                         what + " persistent");
        ExpectSameAnswer(FromPairs(loaded.Knn(query, k)), want,
                         what + " loaded");
        ExpectSameAnswer(JoinAnswer(&ctx, query, rdd, k), want,
                         what + " kNN join");
        ExpectSameAnswer(JoinAnswer(&ctx, query, parted, k), want,
                         what + " kNN join, partitioned");

        // Piglet's K is at least 1.
        if (k == 0) continue;
        for (const char* relation : {"plain", "indexed", "served"}) {
          ExpectSameAnswer(piglet.Knn(relation, wkt, k), want,
                           what + " Piglet " + relation);
        }
        // A served answer is DUMP text: its rows are checked by id, in
        // order, and its lines against a snapshot-bound interpreter's.
        const serve::QueryResult served = session->Run(
            PigletKnn::Script("events", wkt, k) + "DUMP nearest;\n");
        ASSERT_TRUE(served.status.ok()) << served.status.ToString();
        ExpectSameAnswer(DumpedRows(served.output, rows, query), want,
                         what + " Session::Run");
        EXPECT_EQ(SortedLines(served.output),
                  SortedLines(piglet.Dump("served", wkt, k)))
            << what << " Session::Run";
      }
    }
    session.reset();
    server.Shutdown();
  }
  std::filesystem::remove_all(dir);
}

TEST(KnnPathsTest, KeyOrdersAnAbsentTimeFirst) {
  const Geometry p = Geometry::MakePoint(1, 1);
  EXPECT_TRUE(knn::KeyLess(STObject(p), STObject(p, Instant{0})));
  EXPECT_FALSE(knn::KeyLess(STObject(p, Instant{0}), STObject(p)));
  EXPECT_TRUE(knn::KeyLess(STObject(p, Instant{3}), STObject(p, 3, 4)));
  EXPECT_TRUE(knn::KeyLess(STObject(p, 9, 9),
                           STObject(Geometry::MakePoint(1, 2), Instant{0})));
}

// ---- Thin-polygon regression ----------------------------------------------

/// 200 points well above the strip y in [50, 50.1], one just above it at
/// (1, 50.2), and a decoy at (50, 52) next to the strip's centroid.
std::vector<Element> ThinPolygonRows() {
  std::vector<Element> rows;
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 10; ++j) {
      rows.emplace_back(STObject(Geometry::MakePoint(5.0 * i, 70.0 + 3 * j),
                                 Instant{1}),
                        static_cast<int64_t>(rows.size()));
    }
  }
  rows.emplace_back(STObject(Geometry::MakePoint(1, 50.2), Instant{1}), 200);
  rows.emplace_back(STObject(Geometry::MakePoint(50, 52), Instant{1}), 201);
  return rows;
}

TEST(KnnPathsTest, ThinPolygonFindsTheNearPointOnEveryPath) {
  // The tree bound must be the distance to the query envelope: a bound
  // anchored at the strip's centroid stops at the decoy, 1.9 away.
  Context ctx(2);
  const std::vector<Element> rows = ThinPolygonRows();
  const STObject query = STObject::FromWkt(kThinPolygon).ValueOrDie();
  const double near =
      Distance(Geometry::MakePoint(1, 50.2), query.geo());
  ASSERT_NEAR(near, 0.1, 1e-9);
  const auto rdd = SpatialRDD<int64_t>::FromVector(&ctx, rows, 1);
  const IndexedSpatialRDD<int64_t> persistent = rdd.Index(4);
  const std::string dir = test::UniqueTempPath("knn_thin_index");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(persistent.Save(dir).ok());
  auto loaded = IndexedSpatialRDD<int64_t>::Load(&ctx, dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  PigletKnn piglet(rows);

  const std::pair<std::string, Answer> paths[] = {
      {"scan", FromPairs(rdd.Knn(query, 1))},
      {"live", FromPairs(rdd.LiveIndex(4).Knn(query, 1))},
      {"persistent", FromPairs(persistent.Knn(query, 1))},
      {"loaded", FromPairs(loaded.ValueOrDie().Knn(query, 1))},
      {"kNN join", JoinAnswer(&ctx, query, rdd, 1)},
      {"Piglet plain", piglet.Knn("plain", kThinPolygon, 1)},
      {"Piglet indexed", piglet.Knn("indexed", kThinPolygon, 1)},
      {"Piglet served", piglet.Knn("served", kThinPolygon, 1)},
  };
  for (const auto& [name, answer] : paths) {
    ASSERT_EQ(answer.size(), 1u) << name;
    EXPECT_EQ(answer[0].id, 200) << name;
    EXPECT_EQ(answer[0].dist, near) << name;
  }
  std::filesystem::remove_all(dir);
}

// ---- Counter parity ---------------------------------------------------------

/// Every counter a kNN path moves, and the filter counters it must not.
constexpr const char* kKnnCounters[] = {
    "spatial.filter.candidates",  "spatial.filter.results",
    "serve.snapshot.probes",      "serve.snapshot.candidates",
    "serve.snapshot.results",     "engine.columnar.rows",
    "engine.columnar.fallbacks",  "spatial.prepared.hits",
    "spatial.prepared.misses",    "engine.index.packed_probes",
};

using Deltas = std::map<std::string, uint64_t>;

/// The non-zero deltas of kKnnCounters across \p run.
template <typename Fn>
Deltas DeltasOf(Fn&& run) {
  std::vector<uint64_t> before;
  for (const char* name : kKnnCounters) {
    before.push_back(obs::DefaultMetrics().GetCounter(name)->Value());
  }
  run();
  Deltas deltas;
  for (size_t i = 0; i < before.size(); ++i) {
    const uint64_t after =
        obs::DefaultMetrics().GetCounter(kKnnCounters[i])->Value();
    if (after != before[i]) deltas[kKnnCounters[i]] = after - before[i];
  }
  return deltas;
}

QueryStats::Snapshot Stats(size_t candidates, size_t results) {
  QueryStats::Snapshot s;
  s.candidates = candidates;
  s.results = results;
  return s;
}

TEST(KnnPathsTest, EveryPathKeepsItsExactCounterDeltas) {
  // Fixed seeded input per path; the expected deltas pin how many exact
  // distances each path measures, how often it probes a tree and prepares
  // the query, so a change to the kNN core cannot silently change the
  // work it does. A scan measures every row; a tree far fewer.
  Context ctx(4);
  const std::vector<Element> rows = MixedRows(5002);
  ASSERT_EQ(rows.size(), 305u);
  const auto rdd = SpatialRDD<int64_t>::FromVector(&ctx, rows, 3);
  const auto grid =
      std::make_shared<GridPartitioner>(Envelope(0, 0, 100, 100), 3);
  const STObject point(Geometry::MakePoint(42.5, 57.3));
  const STObject polygon =
      STObject::FromWkt("POLYGON ((60 10, 80 15, 75 35, 62 30, 60 10))")
          .ValueOrDie();

  QueryStats stats;
  EXPECT_EQ(DeltasOf([&] { rdd.Knn(point, 5, nullptr, &stats); }),
            (Deltas{{"spatial.prepared.hits", 302},
                    {"spatial.prepared.misses", 3}}))
      << "scan";
  EXPECT_EQ(stats.Snap(), Stats(305, 5)) << "scan";
  EXPECT_EQ(DeltasOf([&] { rdd.Knn(point, 5, EuclideanDistance); }),
            Deltas{})
      << "scan, custom distance";

  const IndexedSpatialRDD<int64_t> live = rdd.LiveIndex(4);
  stats.Reset();
  EXPECT_EQ(DeltasOf([&] { live.Knn(point, 5, nullptr, &stats); }),
            (Deltas{{"engine.index.packed_probes", 3},
                    {"spatial.prepared.hits", 25},
                    {"spatial.prepared.misses", 3}}))
      << "live index";
  EXPECT_EQ(stats.Snap(), Stats(28, 5)) << "live index";

  const IndexedSpatialRDD<int64_t> persistent = rdd.Index(4, grid);
  persistent.trees().Count();
  stats.Reset();
  EXPECT_EQ(DeltasOf([&] { persistent.Knn(polygon, 3, nullptr, &stats); }),
            (Deltas{{"engine.index.packed_probes", 9},
                    {"spatial.prepared.hits", 82},
                    {"spatial.prepared.misses", 9}}))
      << "persistent index";
  EXPECT_EQ(stats.Snap(), Stats(91, 3)) << "persistent index";

  const SpatialRDD<int64_t> parted = rdd.PartitionBy(grid);
  EXPECT_EQ(DeltasOf([&] { JoinAnswer(&ctx, polygon, parted, 3); }),
            (Deltas{{"engine.index.packed_probes", 4},
                    {"spatial.prepared.hits", 93},
                    {"spatial.prepared.misses", 1}}))
      << "kNN join";

  // Piglet KNN: EXPLAIN ANALYZE reports the distances measured and the
  // rows returned; the snapshot path also moves serve.snapshot.*.
  PigletKnn piglet(rows);
  const std::string wkt = "POINT (42.5 57.3)";
  QueryStats::Snapshot analyzed;
  EXPECT_EQ(DeltasOf([&] { analyzed = piglet.Analyze("plain", wkt, 5); }),
            (Deltas{{"spatial.prepared.hits", 302},
                    {"spatial.prepared.misses", 3}}))
      << "Piglet plain";
  EXPECT_EQ(analyzed, Stats(305, 5)) << "Piglet plain";
  EXPECT_EQ(DeltasOf([&] { analyzed = piglet.Analyze("indexed", wkt, 5); }),
            (Deltas{{"engine.index.packed_probes", 3},
                    {"spatial.prepared.hits", 25},
                    {"spatial.prepared.misses", 3}}))
      << "Piglet indexed";
  EXPECT_EQ(analyzed, Stats(28, 5)) << "Piglet indexed";
  EXPECT_EQ(DeltasOf([&] { analyzed = piglet.Analyze("served", wkt, 5); }),
            (Deltas{{"engine.index.packed_probes", 1},
                    {"serve.snapshot.candidates", 16},
                    {"serve.snapshot.probes", 1},
                    {"serve.snapshot.results", 5},
                    {"spatial.prepared.hits", 15},
                    {"spatial.prepared.misses", 1}}))
      << "Piglet served";
  EXPECT_EQ(analyzed, Stats(16, 5)) << "Piglet served";
}

// ---- Cancellation -----------------------------------------------------------

/// Runs \p knn over one 50k-row partition with a custom distance that
/// requests cancellation on its 100th call, and returns how often the
/// function ran. The kNN task must stop at its next checkpoint, within
/// 1024 candidates, instead of measuring the rest of the partition.
template <typename Knn>
size_t CallsUntilCancelled(Context* ctx, Knn&& knn) {
  auto token = std::make_shared<CancelToken>();
  std::atomic<size_t> calls{0};
  const DistanceFunction fn = [&](const STObject& a, const STObject& b) {
    if (calls.fetch_add(1) + 1 == 100) token->RequestCancel();
    return EuclideanDistance(a, b);
  };
  ctx->set_cancel_token(token);
  try {
    knn(fn);
    ADD_FAILURE() << "the kNN search was not cancelled";
  } catch (const StatusError& e) {
    EXPECT_TRUE(e.status().IsCancelled()) << e.status().ToString();
  }
  ctx->set_cancel_token(nullptr);
  return calls.load();
}

std::vector<Element> FiftyThousandPoints() {
  Rng rng(4001);
  std::vector<Element> rows;
  for (int64_t i = 0; i < 50000; ++i) {
    rows.emplace_back(STObject(Geometry::MakePoint(rng.Uniform(0.0, 100.0),
                                                   rng.Uniform(0.0, 100.0))),
                      i);
  }
  return rows;
}

TEST(KnnCancelTest, ScanKnnStopsPartwayThroughItsPartition) {
  Context ctx(2);
  const auto rdd =
      SpatialRDD<int64_t>::FromVector(&ctx, FiftyThousandPoints(), 1);
  const STObject query(Geometry::MakePoint({50.0, 50.0}));
  const size_t calls = CallsUntilCancelled(
      &ctx, [&](const DistanceFunction& fn) { rdd.Knn(query, 10, fn); });
  EXPECT_GE(calls, 100u);
  EXPECT_LE(calls, 100u + 1024u);
}

TEST(KnnCancelTest, IndexedKnnStopsPartwayThroughItsPartition) {
  Context ctx(2);
  const IndexedSpatialRDD<int64_t> indexed =
      SpatialRDD<int64_t>::FromVector(&ctx, FiftyThousandPoints(), 1)
          .Index(10);
  ASSERT_EQ(indexed.trees().Count(), 1u);
  const STObject query(Geometry::MakePoint({50.0, 50.0}));
  const size_t calls = CallsUntilCancelled(
      &ctx, [&](const DistanceFunction& fn) { indexed.Knn(query, 10, fn); });
  EXPECT_GE(calls, 100u);
  EXPECT_LE(calls, 100u + 1024u);
}

}  // namespace
}  // namespace stark
