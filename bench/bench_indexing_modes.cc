/// \file bench_indexing_modes.cc
/// Experiment E6: the three indexing modes of §2.2 — no indexing, live
/// indexing (tree built on every evaluation), and persistent indexing
/// (tree built once / loaded from disk) — plus an R-tree order sweep.
///
/// `bench_indexing_modes --smoke` runs the packed R-tree microbench: STR
/// bulk load + 10k window probes (min of 3 runs), with the candidate sets of
/// sampled queries checked against a brute-force scan. `--json=<path>`
/// writes the timing.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "index/packed_rtree.h"
#include "partition/grid_partitioner.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {
namespace {

size_t N() { return bench::EnvSize("STARK_BENCH_INDEX_N", 100'000); }

Context* Ctx() {
  static Context ctx;
  return &ctx;
}

const SpatialRDD<int64_t>& Data() {
  static const SpatialRDD<int64_t> rdd = [] {
    auto points = bench::BenchPoints(N());
    std::vector<std::pair<STObject, int64_t>> data;
    data.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      data.emplace_back(std::move(points[i]), static_cast<int64_t>(i));
    }
    auto grid = std::make_shared<GridPartitioner>(bench::BenchUniverse(), 6);
    return SpatialRDD<int64_t>::FromVector(Ctx(), std::move(data))
        .PartitionBy(grid)
        .Cache();
  }();
  return rdd;
}

STObject Query() {
  return STObject(Geometry::MakeBox(Envelope(22, 22, 32, 32)));
}

void BM_IndexMode_None(benchmark::State& state) {
  const STObject query = Query();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Data().Intersects(query).Count());
  }
}
BENCHMARK(BM_IndexMode_None)->Unit(benchmark::kMillisecond);

/// Live indexing rebuilds the R-tree on every evaluation — construction is
/// inside the timed region by design (that is the mode's semantics).
void BM_IndexMode_Live(benchmark::State& state) {
  const size_t order = static_cast<size_t>(state.range(0));
  const STObject query = Query();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Data().LiveIndex(order).Intersects(query).Count());
  }
  state.counters["order"] = static_cast<double>(order);
}
BENCHMARK(BM_IndexMode_Live)
    ->Arg(5)
    ->Arg(10)
    ->Arg(25)
    ->Unit(benchmark::kMillisecond);

/// Persistent mode: the tree is built once (cached) — queries pay only the
/// lookup, amortizing construction across reuses.
void BM_IndexMode_Persistent_Query(benchmark::State& state) {
  const size_t order = static_cast<size_t>(state.range(0));
  auto indexed = Data().Index(order);
  indexed.ToElements().Count();  // force construction outside timing
  const STObject query = Query();
  for (auto _ : state) {
    benchmark::DoNotOptimize(indexed.Intersects(query).Count());
  }
  state.counters["order"] = static_cast<double>(order);
}
BENCHMARK(BM_IndexMode_Persistent_Query)
    ->Arg(5)
    ->Arg(10)
    ->Arg(25)
    ->Unit(benchmark::kMillisecond);

void BM_IndexMode_Persistent_Save(benchmark::State& state) {
  auto indexed = Data().Index(10);
  indexed.ToElements().Count();
  const std::string dir = "/tmp/stark_bench_index";
  [[maybe_unused]] int rc = std::system(("mkdir -p " + dir).c_str());
  for (auto _ : state) {
    benchmark::DoNotOptimize(indexed.Save(dir).ok());
  }
}
BENCHMARK(BM_IndexMode_Persistent_Save)->Unit(benchmark::kMillisecond);

void BM_IndexMode_Persistent_LoadAndQuery(benchmark::State& state) {
  // "often the same index will be reused in subsequent runs": measure the
  // reload-then-query path of the next program.
  auto indexed = Data().Index(10);
  indexed.ToElements().Count();
  const std::string dir = "/tmp/stark_bench_index";
  [[maybe_unused]] int rc = std::system(("mkdir -p " + dir).c_str());
  STARK_CHECK(indexed.Save(dir).ok());
  const STObject query = Query();
  for (auto _ : state) {
    auto loaded = IndexedSpatialRDD<int64_t>::Load(Ctx(), dir);
    benchmark::DoNotOptimize(
        loaded.ValueOrDie().Intersects(query).Count());
  }
}
BENCHMARK(BM_IndexMode_Persistent_LoadAndQuery)->Unit(benchmark::kMillisecond);

// ---- --smoke / --json mode: packed R-tree microbench ----------------------

constexpr size_t kProbeCount = 10'000;
constexpr size_t kMicrobenchOrder = 10;

std::vector<Envelope> ProbeWindows(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Envelope> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const double x = rng.Uniform(0.0, 98.0);
    const double y = rng.Uniform(0.0, 98.0);
    const double w = rng.Uniform(0.1, 2.0);
    const double h = rng.Uniform(0.1, 2.0);
    out.push_back(Envelope(x, y, x + w, y + h));
  }
  return out;
}

/// One timed round: bulk load + all probes; returns (seconds, total hits).
template <typename BuildFn, typename ProbeFn>
std::pair<double, size_t> TimeRound(const BuildFn& build,
                                    const ProbeFn& probe,
                                    const std::vector<Envelope>& windows) {
  Stopwatch w;
  auto tree = build();
  size_t hits = 0;
  for (const Envelope& window : windows) hits += probe(tree, window);
  return {w.ElapsedSeconds(), hits};
}

int RunSmoke(const std::string& json_path) {
  setenv("STARK_BENCH_INDEX_N", "100000", /*overwrite=*/0);
  int failures = 0;
  auto check = [&failures](bool ok, const char* what) {
    std::fprintf(stderr, "[smoke] %s: %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };

  auto points = bench::BenchPoints(N());
  std::vector<std::pair<Envelope, size_t>> entries;
  entries.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    entries.emplace_back(points[i].envelope(), i);
  }
  const std::vector<Envelope> windows = ProbeWindows(kProbeCount, 2026);

  auto build = [&entries]() {
    return PackedRTree<size_t>(kMicrobenchOrder, entries);
  };
  auto probe = [](const PackedRTree<size_t>& tree, const Envelope& window) {
    size_t hits = 0;
    tree.Query(window, [&hits](const Envelope&, const size_t&) { ++hits; });
    return hits;
  };

  // Candidates of sampled queries equal a brute-force scan (multisets).
  {
    const PackedRTree<size_t> packed = build();
    bool identical = true;
    for (size_t q = 0; q < windows.size(); q += 97) {
      std::multiset<size_t> expected, got;
      for (const auto& [env, id] : entries) {
        if (windows[q].Intersects(env)) expected.insert(id);
      }
      packed.Query(windows[q], [&got](const Envelope&, const size_t& id) {
        got.insert(id);
      });
      if (got != expected) {
        identical = false;
        break;
      }
    }
    check(identical, "packed and brute-force candidates identical");
  }

  // Min of 3 rounds: build + 10k probes.
  double packed_s = 1e30;
  size_t packed_hits = 0;
  for (int round = 0; round < 3; ++round) {
    const auto [seconds, hits] = TimeRound(build, probe, windows);
    packed_s = std::min(packed_s, seconds);
    packed_hits = hits;
  }
  std::fprintf(stderr,
               "[smoke] bulk-load + %zu probes (n=%zu, order=%zu): "
               "packed=%.4fs, %zu hits\n",
               kProbeCount, entries.size(), kMicrobenchOrder, packed_s,
               packed_hits);

  if (!json_path.empty()) {
    bench::JsonReport report;
    report.Add("indexing.n", static_cast<double>(entries.size()));
    report.Add("indexing.probes", static_cast<double>(kProbeCount));
    report.Add("indexing.order", static_cast<double>(kMicrobenchOrder));
    report.Add("indexing.packed_build_probe_s", packed_s);
    report.Add("indexing.total_hits", static_cast<double>(packed_hits));
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
