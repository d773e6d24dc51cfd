/// \file bench_filter.cc
/// Experiment E2 (spatialbm extended suite): range-query filters —
/// intersects and containedBy against a query polygon — under every
/// combination of partitioner (none / grid / BSP) and indexing mode
/// (scan / live index). Shows the §2.1 claim that partition pruning
/// "can decrease the number of data items to process significantly".
///
/// `bench_filter --smoke` runs a fast self-checking mode: scan, live-index
/// and persistent-index filters must return identical counts, the packed
/// index must actually be probed (engine.index.packed_probes > 0) and the
/// prepared-geometry path exercised (spatial.prepared.misses > 0), and
/// both sides of the refine selection must run: the all-point data on the
/// batch kernels (engine.columnar.rows), the same points plus polygons on
/// the scalar refine (engine.columnar.fallbacks), each matching a
/// brute-force count. Pass
/// `--json=<path>` (with or without --smoke) to write median stage timings
/// as a flat JSON report for the BENCH_*.json snapshots.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "partition/bsp_partitioner.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {
namespace {

size_t N() { return bench::EnvSize("STARK_BENCH_FILTER_N", 400'000); }

Context* Ctx() {
  static Context ctx;
  return &ctx;
}

using Rdd = SpatialRDD<int64_t>;

std::vector<std::pair<STObject, int64_t>> MakeData() {
  // STARK_TRACE=<file> captures this binary's run as a Chrome trace.
  static bench::TraceFromEnv trace_guard;
  bench::ScopedStage stage("filter.make_data");
  auto points = bench::BenchPoints(N());
  std::vector<std::pair<STObject, int64_t>> data;
  data.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    data.emplace_back(std::move(points[i]), static_cast<int64_t>(i));
  }
  return data;
}

const Rdd& Unpartitioned() {
  static const Rdd rdd = Rdd::FromVector(Ctx(), MakeData()).Cache();
  return rdd;
}

const Rdd& GridPartitioned() {
  static const Rdd rdd = [] {
    auto grid = std::make_shared<GridPartitioner>(bench::BenchUniverse(), 4);
    return Unpartitioned().PartitionBy(grid).Cache();
  }();
  return rdd;
}

const Rdd& BspPartitioned() {
  static const Rdd rdd = [] {
    std::vector<Coordinate> centroids;
    for (const auto& [obj, id] : Unpartitioned().rdd().Collect()) {
      centroids.push_back(obj.Centroid());
    }
    BSPartitioner::Options options;
    options.max_cost = N() / 16 + 1;
    auto bsp = std::make_shared<BSPartitioner>(bench::BenchUniverse(),
                                               centroids, options);
    return Unpartitioned().PartitionBy(bsp).Cache();
  }();
  return rdd;
}

/// A selective query window over one of the dense clusters.
STObject Query() {
  return STObject(Geometry::MakeBox(Envelope(20, 20, 30, 30)));
}

void RunFilter(benchmark::State& state, const Rdd& rdd, bool live_index) {
  const STObject query = Query();
  size_t results = 0;
  for (auto _ : state) {
    results = live_index ? rdd.LiveIndex(10).Intersects(query).Count()
                         : rdd.Intersects(query).Count();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["partitions"] = static_cast<double>(rdd.NumPartitions());
}

void BM_Filter_Scan_NoPartitioning(benchmark::State& state) {
  RunFilter(state, Unpartitioned(), false);
}
BENCHMARK(BM_Filter_Scan_NoPartitioning)->Unit(benchmark::kMillisecond);

void BM_Filter_Scan_Grid(benchmark::State& state) {
  RunFilter(state, GridPartitioned(), false);
}
BENCHMARK(BM_Filter_Scan_Grid)->Unit(benchmark::kMillisecond);

void BM_Filter_Scan_Bsp(benchmark::State& state) {
  RunFilter(state, BspPartitioned(), false);
}
BENCHMARK(BM_Filter_Scan_Bsp)->Unit(benchmark::kMillisecond);

void BM_Filter_LiveIndex_NoPartitioning(benchmark::State& state) {
  RunFilter(state, Unpartitioned(), true);
}
BENCHMARK(BM_Filter_LiveIndex_NoPartitioning)->Unit(benchmark::kMillisecond);

void BM_Filter_LiveIndex_Grid(benchmark::State& state) {
  RunFilter(state, GridPartitioned(), true);
}
BENCHMARK(BM_Filter_LiveIndex_Grid)->Unit(benchmark::kMillisecond);

void BM_Filter_LiveIndex_Bsp(benchmark::State& state) {
  RunFilter(state, BspPartitioned(), true);
}
BENCHMARK(BM_Filter_LiveIndex_Bsp)->Unit(benchmark::kMillisecond);

/// containedBy (the paper's example query) on the best configuration.
void BM_Filter_ContainedBy_Bsp(benchmark::State& state) {
  const STObject query = Query();
  size_t results = 0;
  for (auto _ : state) {
    results = BspPartitioned().ContainedBy(query).Count();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_Filter_ContainedBy_Bsp)->Unit(benchmark::kMillisecond);

/// withinDistance filter, scan vs pruned.
void BM_Filter_WithinDistance_NoPartitioning(benchmark::State& state) {
  const STObject query(Geometry::MakePoint(25, 25));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Unpartitioned().WithinDistance(query, 2.0).Count());
  }
}
BENCHMARK(BM_Filter_WithinDistance_NoPartitioning)
    ->Unit(benchmark::kMillisecond);

void BM_Filter_WithinDistance_Bsp(benchmark::State& state) {
  const STObject query(Geometry::MakePoint(25, 25));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BspPartitioned().WithinDistance(query, 2.0).Count());
  }
}
BENCHMARK(BM_Filter_WithinDistance_Bsp)->Unit(benchmark::kMillisecond);

// ---- --smoke / --json mode ------------------------------------------------

double MedianOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Fast self-checking run for CI plus optional JSON timing report.
int RunSmoke(const std::string& json_path) {
  // Shrink the workload unless the caller pinned a size explicitly.
  setenv("STARK_BENCH_FILTER_N", "60000", /*overwrite=*/0);
  const obs::MetricsRegistry::Snapshot metrics_before =
      obs::DefaultMetrics().Snap();
  const STObject query = Query();
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

  // The three execution modes of §2.2 must agree exactly.
  const size_t scan = GridPartitioned().Intersects(query).Count();
  const size_t live = GridPartitioned().LiveIndex(10).Intersects(query).Count();
  auto indexed_rdd = GridPartitioned().Index(10);
  indexed_rdd.trees().Count();  // materialize the persistent trees
  const size_t indexed = indexed_rdd.Intersects(query).Count();
  std::fprintf(stderr, "[smoke] results: scan=%zu live=%zu indexed=%zu\n",
               scan, live, indexed);
  check(scan == live, "scan matches live index");
  check(scan == indexed, "scan matches persistent index");
  check(packed_probes->Value() > probes_before,
        "packed index probed (engine.index.packed_probes advanced)");
  check(prepared_misses->Value() > misses_before,
        "prepared refinement exercised (spatial.prepared.misses advanced)");

  // Refine selection: the all-point filters above ran on the batch kernels;
  // adding polygons to the same points sends every partition to the scalar
  // refine. Both must match a brute-force count.
  {
    const ColumnarMetricSet& columnar = GlobalColumnarMetrics();
    const uint64_t rows_before = columnar.rows->Value();
    const uint64_t fallbacks_before = columnar.fallbacks->Value();
    std::vector<std::pair<STObject, int64_t>> mixed = MakeData();
    for (STObject& polygon : bench::BenchPolygons(N() / 100)) {
      mixed.emplace_back(std::move(polygon), -1);
    }
    size_t brute = 0;
    for (const auto& [obj, id] : mixed) brute += obj.Intersects(query) ? 1 : 0;
    const size_t points_hits = GridPartitioned().Intersects(query).Count();
    const size_t mixed_hits = Rdd::FromVector(Ctx(), std::move(mixed))
                                  .Intersects(query)
                                  .Count();
    std::fprintf(stderr, "[smoke] mixed data: filter=%zu brute=%zu\n",
                 mixed_hits, brute);
    check(mixed_hits == brute, "mixed-data filter matches brute force");
    check(points_hits == scan, "all-point filter stable");
    check(columnar.rows->Value() > rows_before,
          "all-point data refined by the kernels (engine.columnar.rows)");
    check(columnar.fallbacks->Value() > fallbacks_before,
          "mixed data refined by the scalar path (engine.columnar.fallbacks)");
  }

  // Median-of-3 stage timings, interleaved so noise hits all modes alike.
  std::vector<double> scan_s, live_s, indexed_s;
  for (int i = 0; i < 3; ++i) {
    Stopwatch w;
    GridPartitioned().Intersects(query).Count();
    scan_s.push_back(w.ElapsedSeconds());
    w.Restart();
    GridPartitioned().LiveIndex(10).Intersects(query).Count();
    live_s.push_back(w.ElapsedSeconds());
    w.Restart();
    indexed_rdd.Intersects(query).Count();
    indexed_s.push_back(w.ElapsedSeconds());
  }
  std::fprintf(stderr,
               "[smoke] median filter time: scan=%.4fs live=%.4fs "
               "indexed=%.4fs\n",
               MedianOf(scan_s), MedianOf(live_s), MedianOf(indexed_s));

  // Observability overhead guard: running the same filter with the query
  // profiler collecting and the flight recorder on must stay within 5% of
  // the fully-dark run (min-of-5, alternated so thermal/cache drift hits
  // both sides alike; min is the noise-robust statistic for "how fast can
  // this go"). A small absolute slack keeps sub-millisecond jitter from
  // failing the ratio on fast machines.
  obs::FlightRecorder& flight = obs::DefaultFlightRecorder();
  std::vector<double> obs_on_s, obs_off_s;
  for (int i = 0; i < 5; ++i) {
    {
      obs::ProfileCollector collector("overhead-guard");
      obs::ProfileCollectorScope scope(&collector);
      flight.Enable();
      Stopwatch w;
      GridPartitioned().Intersects(query).Count();
      obs_on_s.push_back(w.ElapsedSeconds());
    }
    flight.Disable();
    Stopwatch w;
    GridPartitioned().Intersects(query).Count();
    obs_off_s.push_back(w.ElapsedSeconds());
    flight.Enable();
  }
  const double on_min = *std::min_element(obs_on_s.begin(), obs_on_s.end());
  const double off_min = *std::min_element(obs_off_s.begin(), obs_off_s.end());
  std::fprintf(stderr,
               "[smoke] observability overhead: on=%.4fs off=%.4fs (%+.1f%%)\n",
               on_min, off_min,
               off_min > 0 ? (on_min / off_min - 1.0) * 100.0 : 0.0);
  check(on_min <= off_min * 1.05 + 0.002,
        "profiler+flight recorder overhead <= 5%");

  if (!json_path.empty()) {
    bench::JsonReport report;
    report.Add("filter.n", static_cast<double>(N()));
    report.Add("filter.results", static_cast<double>(scan));
    report.Add("filter.scan_s", MedianOf(scan_s));
    report.Add("filter.live_index_s", MedianOf(live_s));
    report.Add("filter.persistent_index_s", MedianOf(indexed_s));
    report.Add("filter.packed_probes",
               static_cast<double>(packed_probes->Value() - probes_before));
    report.Add("filter.prepared_misses",
               static_cast<double>(prepared_misses->Value() - misses_before));
    report.Add("filter.obs_on_s", on_min);
    report.Add("filter.obs_off_s", off_min);
    report.AddMetricsDelta(metrics_before);
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
