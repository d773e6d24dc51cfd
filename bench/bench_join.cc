/// \file bench_join.cc
/// Experiment E3 (spatialbm extended suite): spatial join predicates —
/// point-in-polygon (containedBy) and polygon-polygon (intersects) joins,
/// partitioned vs. unpartitioned, indexed vs. nested loop vs. cached-index
/// vs. broadcast.
///
/// `bench_join --smoke` runs a fast self-checking mode instead of the
/// benchmark suite: it asserts the join strategies agree on result counts
/// (the symmetric self-join included) and that the broadcast plan skips
/// pair enumeration on a 1-large × 1-small workload (exit code 1 on
/// violation). CI runs this on every push.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/join.h"

namespace stark {
namespace {

size_t NPoints() { return bench::EnvSize("STARK_BENCH_JOIN_N", 150'000); }
size_t NPolys() { return bench::EnvSize("STARK_BENCH_JOIN_POLYS", 1'500); }

Context* Ctx() {
  static Context ctx;
  return &ctx;
}

using Rdd = SpatialRDD<int64_t>;

Rdd FromObjects(std::vector<STObject> objects) {
  std::vector<std::pair<STObject, int64_t>> data;
  data.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    data.emplace_back(std::move(objects[i]), static_cast<int64_t>(i));
  }
  return Rdd::FromVector(Ctx(), std::move(data)).Cache();
}

const Rdd& Points() {
  static const Rdd rdd = FromObjects(bench::BenchPoints(NPoints()));
  return rdd;
}

const Rdd& Polygons() {
  static const Rdd rdd = FromObjects(bench::BenchPolygons(NPolys()));
  return rdd;
}

const Rdd& PointsPartitioned() {
  static const Rdd rdd = [] {
    auto grid = std::make_shared<GridPartitioner>(bench::BenchUniverse(), 4);
    return Points().PartitionBy(grid).Cache();
  }();
  return rdd;
}

const Rdd& PolygonsPartitioned() {
  static const Rdd rdd = [] {
    auto grid = std::make_shared<GridPartitioner>(bench::BenchUniverse(), 4);
    return Polygons().PartitionBy(grid).Cache();
  }();
  return rdd;
}

using E = std::pair<STObject, int64_t>;

std::pair<int64_t, int64_t> ProjectIds(const E& l, const E& r) {
  return {l.second, r.second};
}

size_t CountJoin(const Rdd& left, const Rdd& right, const JoinPredicate& pred,
                 size_t index_order, size_t broadcast_threshold = 0) {
  JoinOptions options;
  options.index_order = index_order;
  options.broadcast_threshold = broadcast_threshold;
  return SpatialJoinProject(left, right, pred, options, ProjectIds).Count();
}

/// The cached-index variant: the left trees exist before the join runs, so
/// each iteration measures probe cost only (engine.join.tree_builds = 0).
const IndexedSpatialRDD<int64_t>& PointsIndexed() {
  static const IndexedSpatialRDD<int64_t> indexed = [] {
    IndexedSpatialRDD<int64_t> idx = PointsPartitioned().Index(10);
    idx.trees().Count();  // materialize outside the timed region
    return idx;
  }();
  return indexed;
}

size_t CountJoinCached(const IndexedSpatialRDD<int64_t>& left,
                       const Rdd& right, const JoinPredicate& pred) {
  return SpatialJoinProject(left, right, pred, JoinOptions(), ProjectIds)
      .Count();
}

void BM_Join_PointInPolygon_Unpartitioned(benchmark::State& state) {
  size_t results = 0;
  for (auto _ : state) {
    results =
        CountJoin(Points(), Polygons(), JoinPredicate::ContainedBy(), 10);
  }
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_Join_PointInPolygon_Unpartitioned)
    ->Unit(benchmark::kMillisecond);

void BM_Join_PointInPolygon_Partitioned(benchmark::State& state) {
  size_t results = 0;
  for (auto _ : state) {
    results = CountJoin(PointsPartitioned(), PolygonsPartitioned(),
                        JoinPredicate::ContainedBy(), 10);
  }
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_Join_PointInPolygon_Partitioned)->Unit(benchmark::kMillisecond);

void BM_Join_PointInPolygon_NoIndex(benchmark::State& state) {
  size_t results = 0;
  for (auto _ : state) {
    results = CountJoin(PointsPartitioned(), PolygonsPartitioned(),
                        JoinPredicate::ContainedBy(), 0);
  }
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_Join_PointInPolygon_NoIndex)->Unit(benchmark::kMillisecond);

void BM_Join_PolygonIntersects_Unpartitioned(benchmark::State& state) {
  size_t results = 0;
  for (auto _ : state) {
    results =
        CountJoin(Polygons(), Polygons(), JoinPredicate::Intersects(), 10);
  }
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_Join_PolygonIntersects_Unpartitioned)
    ->Unit(benchmark::kMillisecond);

void BM_Join_PolygonIntersects_Partitioned(benchmark::State& state) {
  size_t results = 0;
  for (auto _ : state) {
    results = CountJoin(PolygonsPartitioned(), PolygonsPartitioned(),
                        JoinPredicate::Intersects(), 10);
  }
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_Join_PolygonIntersects_Partitioned)
    ->Unit(benchmark::kMillisecond);

void BM_Join_WithinDistance_Partitioned(benchmark::State& state) {
  size_t results = 0;
  for (auto _ : state) {
    results = CountJoin(PointsPartitioned(), PolygonsPartitioned(),
                        JoinPredicate::WithinDistance(0.5), 10);
  }
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_Join_WithinDistance_Partitioned)->Unit(benchmark::kMillisecond);

void BM_Join_PointInPolygon_CachedIndex(benchmark::State& state) {
  size_t results = 0;
  for (auto _ : state) {
    results = CountJoinCached(PointsIndexed(), PolygonsPartitioned(),
                              JoinPredicate::ContainedBy());
  }
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_Join_PointInPolygon_CachedIndex)->Unit(benchmark::kMillisecond);

void BM_Join_PointInPolygon_Broadcast(benchmark::State& state) {
  size_t results = 0;
  for (auto _ : state) {
    // Threshold above the polygon count: the small side is broadcast and
    // no partition pairs are enumerated.
    results = CountJoin(PointsPartitioned(), PolygonsPartitioned(),
                        JoinPredicate::ContainedBy(), 10, NPolys() + 1);
  }
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_Join_PointInPolygon_Broadcast)->Unit(benchmark::kMillisecond);

// ---- --smoke mode ---------------------------------------------------------

double MedianSeconds(const std::vector<double>& samples) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() / 2];
}

/// Fast self-checking run for CI: strategy agreement, the broadcast plan,
/// and the packed-index/prepared-geometry plumbing.
int RunSmoke(const std::string& json_path) {
  // Shrink the workload unless the caller pinned sizes explicitly.
  setenv("STARK_BENCH_JOIN_N", "20000", /*overwrite=*/0);
  setenv("STARK_BENCH_JOIN_POLYS", "800", /*overwrite=*/0);
  const JoinPredicate pred = JoinPredicate::ContainedBy();
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    std::fprintf(stderr, "[smoke] %s: %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };

  obs::Counter* packed_probes =
      obs::DefaultMetrics().GetCounter("engine.index.packed_probes");
  obs::Counter* prepared_misses =
      obs::DefaultMetrics().GetCounter("spatial.prepared.misses");
  const uint64_t probes_before = packed_probes->Value();
  const uint64_t misses_before = prepared_misses->Value();

  const size_t live = CountJoin(PointsPartitioned(), PolygonsPartitioned(),
                                pred, 10);
  check(packed_probes->Value() > probes_before,
        "live join probed the packed index (packed_probes advanced)");
  check(prepared_misses->Value() > misses_before,
        "live join prepared probe geometries (prepared.misses advanced)");
  const size_t nested = CountJoin(PointsPartitioned(), PolygonsPartitioned(),
                                  pred, 0);
  const size_t cached = CountJoinCached(PointsIndexed(),
                                        PolygonsPartitioned(), pred);
  const size_t broadcast = CountJoin(PointsPartitioned(),
                                     PolygonsPartitioned(), pred, 10,
                                     NPolys() + 1);
  std::fprintf(stderr,
               "[smoke] results: live=%zu nested=%zu cached=%zu "
               "broadcast=%zu\n",
               live, nested, cached, broadcast);
  check(live == nested, "live matches nested loop");
  check(live == cached, "live matches cached index");
  check(live == broadcast, "live matches broadcast");
  check(obs::DefaultMetrics().GetCounter("engine.join.broadcast_joins")
                ->Value() > 0,
        "broadcast plan actually taken");

  // The symmetric self-join (one node on both sides, a symmetric
  // predicate) refines each unordered pair once and emits both orders: it
  // counts what the join over two distinct nodes with equal partitions
  // counts, over fewer partition pairs.
  const JoinPredicate near = JoinPredicate::WithinDistance(0.25);
  const Rdd other = Points()
                        .PartitionBy(std::make_shared<GridPartitioner>(
                            bench::BenchUniverse(), 4))
                        .Cache();
  obs::Counter* pairs =
      obs::DefaultMetrics().GetCounter("engine.join.pairs_enumerated");
  uint64_t pairs_before = pairs->Value();
  const size_t self = CountJoin(PointsPartitioned(), PointsPartitioned(),
                                near, 10);
  const uint64_t self_pairs = pairs->Value() - pairs_before;
  pairs_before = pairs->Value();
  const size_t two_nodes = CountJoin(PointsPartitioned(), other, near, 10);
  const uint64_t two_node_pairs = pairs->Value() - pairs_before;
  std::fprintf(stderr,
               "[smoke] self-join results: symmetric=%zu two-node=%zu "
               "(partition pairs %llu vs %llu)\n",
               self, two_nodes, static_cast<unsigned long long>(self_pairs),
               static_cast<unsigned long long>(two_node_pairs));
  check(self == two_nodes && self > 0,
        "symmetric self-join matches the two-node join");
  check(self_pairs < two_node_pairs,
        "symmetric self-join walks fewer partition pairs");

  // The broadcast plan on 1 large side x 1 small side: it skips partition
  // pair enumeration altogether. That is checked on the work counter; the
  // wall times (median of 5 runs each, interleaved so background noise
  // hits both strategies alike) are printed and reported, not gated. At
  // smoke size the two plans are within a few percent of each other, and
  // at larger sizes the flattened small side is the slower plan.
  std::vector<double> pair_s, bcast_s;
  uint64_t pair_pairs = 0;
  uint64_t bcast_pairs = 0;
  for (int i = 0; i < 5; ++i) {
    pairs_before = pairs->Value();
    Stopwatch w;
    CountJoin(PointsPartitioned(), PolygonsPartitioned(), pred, 10);
    pair_s.push_back(w.ElapsedSeconds());
    pair_pairs += pairs->Value() - pairs_before;
    pairs_before = pairs->Value();
    w.Restart();
    CountJoin(PointsPartitioned(), PolygonsPartitioned(), pred, 10,
              NPolys() + 1);
    bcast_s.push_back(w.ElapsedSeconds());
    bcast_pairs += pairs->Value() - pairs_before;
  }
  const double pair_med = MedianSeconds(pair_s);
  const double bcast_med = MedianSeconds(bcast_s);
  std::fprintf(stderr,
               "[smoke] median join time: pair-enumeration=%.4fs "
               "broadcast=%.4fs (partition pairs %llu vs %llu)\n",
               pair_med, bcast_med, static_cast<unsigned long long>(pair_pairs),
               static_cast<unsigned long long>(bcast_pairs));
  check(pair_pairs > 0 && bcast_pairs == 0,
        "broadcast enumerates no partition pairs, pair plan does");

  if (!json_path.empty()) {
    bench::JsonReport report;
    report.Add("join.n_points", static_cast<double>(NPoints()));
    report.Add("join.n_polygons", static_cast<double>(NPolys()));
    report.Add("join.results", static_cast<double>(live));
    report.Add("join.pair_enumeration_s", pair_med);
    report.Add("join.broadcast_s", bcast_med);
    report.Add("join.packed_probes",
               static_cast<double>(packed_probes->Value() - probes_before));
    report.Add("join.prepared_misses",
               static_cast<double>(prepared_misses->Value() - misses_before));
    report.WriteTo(json_path);
  }

  std::fprintf(stderr, "[smoke] %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace stark

int main(int argc, char** argv) {
  const std::string json = stark::bench::JsonPathFromArgs(argc, argv);
  if (stark::bench::SmokeRequested(argc, argv) || !json.empty()) {
    return stark::RunSmoke(json);
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
