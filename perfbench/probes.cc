/// \file probes.cc
/// Standalone layer probes of traced runs. Each probe times one layer's
/// public entry point on the first 50k geometries of the workload's own
/// data (10k for the Piglet probes), so every workload reports every probe
/// and a layer that is off a workload's path is still measured on that
/// workload's data shape.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "partition/bsp_partitioner.h"
#include "piglet/parser.h"
#include "serve/catalog.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/spatial_rdd.h"

namespace perfbench {
namespace {

using stark::STObject;
using Element = std::pair<STObject, int64_t>;

constexpr size_t kProbeRows = 50'000;
constexpr size_t kSmokeProbeRows = 2'000;
/// A served KNN converts every row of the snapshot, so the Piglet probes
/// bind a smaller one.
constexpr size_t kPigletRows = 10'000;

/// Median wall time of \p reps calls of \p fn, in seconds.
template <typename Fn>
double MedianSeconds(size_t reps, Fn fn) {
  std::vector<double> s;
  for (size_t i = 0; i < reps; ++i) {
    const uint64_t start = NowNs();
    fn();
    s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return Quantile(s, 0.5);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    bytes += entry.file_size();
  }
  return bytes;
}

}  // namespace

void RunLayerProbes(const std::vector<STObject>& geometries,
                    const std::string& tmp_dir, bool smoke, Report* report) {
  const size_t n =
      std::min(geometries.size(), smoke ? kSmokeProbeRows : kProbeRows);
  const std::vector<STObject> slice(geometries.begin(),
                                    geometries.begin() + n);
  stark::Context ctx(4);
  auto pairs = [&] {
    std::vector<Element> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) out.emplace_back(slice[i], i);
    return out;
  };

  // partition: BSP construction, then the shuffle into its cells.
  stark::Envelope universe;
  std::vector<stark::Coordinate> centroids;
  for (const STObject& g : slice) {
    universe.ExpandToInclude(g.envelope());
    centroids.push_back(g.Centroid());
  }
  stark::BSPartitioner::Options bsp_options;
  bsp_options.max_cost = std::max<size_t>(1, n / 64);
  std::shared_ptr<stark::BSPartitioner> bsp;
  report->Value("partition.build_s", "s", MedianSeconds(3, [&] {
    bsp = std::make_shared<stark::BSPartitioner>(universe, centroids,
                                                 bsp_options);
  }));
  stark::SpatialRDD<int64_t> partitioned =
      stark::SpatialRDD<int64_t>::FromVector(&ctx, {});
  report->Value("partition.shuffle_s", "s", MedianSeconds(3, [&] {
    partitioned =
        stark::SpatialRDD<int64_t>::FromVector(&ctx, pairs()).PartitionBy(bsp);
    partitioned.rdd().Count();
  }));

  // index: STR bulk load of every partition; join: probing those trees.
  std::unique_ptr<stark::IndexedSpatialRDD<int64_t>> indexed;
  report->Value("index.build_s", "s", MedianSeconds(3, [&] {
    indexed = std::make_unique<stark::IndexedSpatialRDD<int64_t>>(
        partitioned.Index(10));
    indexed->trees().Count();
  }));
  const auto project = [](const Element& l, const Element& r) {
    return std::pair<int64_t, int64_t>(l.second, r.second);
  };
  report->Value("join.probe_s", "s", MedianSeconds(3, [&] {
    stark::SpatialJoinProject(*indexed, partitioned,
                              stark::JoinPredicate::WithinDistance(0.25),
                              stark::JoinOptions{}, project)
        .Count();
  }));

  // serde: the persistent index written and read back.
  const std::string dir = tmp_dir + "/probe-index";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  report->Value("serde.save_s", "s", MedianSeconds(3, [&] {
    const stark::Status s = indexed->Save(dir);
    if (!s.ok()) throw stark::StatusError(s);
  }));
  report->Value("serde.bytes_per_row", "B",
                static_cast<double>(DirectoryBytes(dir)) /
                    static_cast<double>(std::max<size_t>(1, n)));
  report->Value("serde.load_s", "s", MedianSeconds(3, [&] {
    auto loaded = stark::IndexedSpatialRDD<int64_t>::Load(&ctx, dir);
    if (!loaded.ok()) throw stark::StatusError(loaded.status());
  }));
  std::filesystem::remove_all(dir);

  // catalog: the snapshot rebuild every ingest pays.
  std::vector<stark::stream::StreamEvent> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto id = static_cast<int64_t>(i);
    events.emplace_back(id, "probe", STObject(slice[i].geo(), id));
  }
  std::vector<double> build_s;
  for (int i = 0; i < 3; ++i) {
    std::vector<stark::stream::StreamEvent> copy = events;
    const uint64_t start = NowNs();
    stark::serve::BuildSnapshot(1, std::move(copy), 16);
    build_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  report->Value("catalog.snapshot_build_ms", "ms",
                Quantile(build_s, 0.5) * 1e3);

  // engine: the fixed cost of one job.
  report->Value("engine.empty_job_us", "us", 1e6 * MedianSeconds(200, [&] {
    stark::MakeRDD(&ctx, std::vector<int>{0, 1, 2, 3}, 4).Count();
  }));

  // piglet: parsing, then single-threaded runs on a bound snapshot.
  stark::Rng rng(n);
  std::vector<stark::Coordinate> centres;
  const auto last = static_cast<int64_t>(std::min(n, kPigletRows)) - 1;
  for (int i = 0; i < 20; ++i) {
    centres.push_back(
        slice[static_cast<size_t>(rng.UniformInt(0, last))].Centroid());
  }
  const std::string filter = FilterScript(centres[0], 2);
  const std::string knn = KnnScript(centres[0], 10);
  report->Value("piglet.parse_us", "us", 1e6 * MedianSeconds(200, [&] {
    if (!stark::piglet::Parse(filter).ok() || !stark::piglet::Parse(knn).ok()) {
      throw std::runtime_error("probe scripts do not parse");
    }
  }));
  events.resize(std::min(events.size(), kPigletRows));
  SnapshotScript script(std::make_shared<const stark::serve::DatasetSnapshot>(
      stark::serve::BuildSnapshot(1, std::move(events), 16)));
  std::string out;
  size_t next = 0;
  report->Value("piglet.filter_run_ms", "ms", 1e3 * MedianSeconds(20, [&] {
    script.Run(FilterScript(centres[next++ % centres.size()], 2), &out);
  }));
  report->Value("piglet.knn_run_ms", "ms", 1e3 * MedianSeconds(3, [&] {
    script.Run(KnnScript(centres[next++ % centres.size()], 10), &out);
  }));
}

}  // namespace perfbench
