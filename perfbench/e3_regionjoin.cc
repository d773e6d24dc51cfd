/// \file e3_regionjoin.cc
/// Workload e3_regionjoin: the paper's §2.2 "next program". Set-up is the
/// previous program — 400k events (points, every 4th one an area footprint
/// polygon) are BSP-partitioned, indexed and saved. One op is the next
/// program: IndexedSpatialRDD::Load, then an Intersects join of the loaded
/// partitions against 2k region polygons, then Count.
///
/// The join runs the partition-pair strategy, the one that refines through
/// the columnar plane: point rows go through the batch kernels, footprint
/// polygons fall back to scalar refinement. Its time goes to serde decode,
/// STR repacking and that mixed refinement — the path the columnar-plane
/// decision rests on. Serving and the stream layer are unused.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "partition/bsp_partitioner.h"
#include "partition/explicit_partitioner.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/spatial_rdd.h"

namespace perfbench {
namespace {

using stark::STObject;
using Element = std::pair<STObject, int64_t>;

constexpr size_t kPolygonEvery = 4;
constexpr size_t kIndexOrder = 10;
constexpr size_t kThreads = 4;

struct Sizes {
  size_t events;
  size_t regions;
  size_t sampled_regions;  ///< checked against a nested loop
};
constexpr Sizes kFull{400'000, 2'000, 20};
constexpr Sizes kSmoke{20'000, 200, 10};

class E3RegionJoin final : public Workload {
 public:
  explicit E3RegionJoin(const Options& options)
      : options_(options),
        sizes_(options.smoke ? kSmoke : kFull),
        dir_(options.tmp_dir + "/e3-index"),
        ctx_(kThreads) {}

  ~E3RegionJoin() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void Describe(Report* report) const override {
    report->Meta("events", std::to_string(sizes_.events));
    report->Meta("polygon_every", std::to_string(kPolygonEvery));
    report->Meta("regions", std::to_string(sizes_.regions));
    report->Meta("threads", std::to_string(kThreads));
  }

  void Setup() override {
    events_.clear();
    events_.shrink_to_fit();
    regions_.clear();
    const std::vector<stark::Coordinate> points =
        ClusteredPoints(sizes_.events, options_.seed);
    stark::Rng shapes(SubSeed(options_.seed, 1));
    events_.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      if (i % kPolygonEvery == kPolygonEvery - 1) {
        const double radius = shapes.Uniform(0.05, 0.25);
        const auto vertices = static_cast<size_t>(shapes.UniformInt(4, 8));
        events_.emplace_back(StarPolygon(&shapes, points[i], radius, vertices));
      } else {
        events_.emplace_back(stark::Geometry::MakePoint(points[i]));
      }
    }
    // Regions are centred on data points, so the join work they cause
    // follows the fixed cluster layout rather than where a seed drops them.
    stark::Rng regions(SubSeed(options_.seed, 2));
    for (size_t r = 0; r < sizes_.regions; ++r) {
      const stark::Coordinate& c = points[static_cast<size_t>(
          regions.UniformInt(0, static_cast<int64_t>(points.size()) - 1))];
      const double radius = regions.Uniform(0.2, 0.8);
      const auto vertices = static_cast<size_t>(regions.UniformInt(4, 12));
      regions_.emplace_back(StarPolygon(&regions, c, radius, vertices),
                            static_cast<int64_t>(r));
    }

    // The previous program: partition, index, persist.
    std::vector<Element> pairs;
    pairs.reserve(events_.size());
    std::vector<stark::Coordinate> centroids;
    centroids.reserve(events_.size());
    stark::Envelope universe;
    for (size_t i = 0; i < events_.size(); ++i) {
      pairs.emplace_back(events_[i], static_cast<int64_t>(i));
      centroids.push_back(events_[i].Centroid());
      universe.ExpandToInclude(events_[i].envelope());
    }
    stark::BSPartitioner::Options bsp_options;
    bsp_options.max_cost = std::max<size_t>(1, sizes_.events / 64);
    auto bsp = std::make_shared<stark::BSPartitioner>(universe, centroids,
                                                      bsp_options);
    stark::IndexedSpatialRDD<int64_t> indexed =
        stark::SpatialRDD<int64_t>::FromVector(&ctx_, std::move(pairs))
            .Index(kIndexOrder, bsp);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    const stark::Status saved = indexed.Save(dir_);
    if (!saved.ok()) throw stark::StatusError(saved);
  }

  void WarmUp() override {
    SpanRecorder off(false);
    counts_.push_back(RunJob(&off));
  }

  Phase Measure(double seconds, SpanRecorder* spans) override {
    return ClosedLoop(seconds, options_.smoke ? 1 : 3,
                      [&] { counts_.push_back(RunJob(spans)); });
  }

  void Check(Report* report) override {
    if (!reference_.has_value()) reference_ = ComputeReference();
    bool ok = !counts_.empty();
    for (const size_t c : counts_) ok = ok && c == reference_->total;
    report->Gate("e3.live_join_equals_cached_index_join", ok,
                 "expected " + std::to_string(reference_->total) +
                     " pairs over " + std::to_string(counts_.size()) +
                     " jobs");
    report->Gate("e3.nested_loop_sample", reference_->sample_ok,
                 reference_->sample_detail);
    counts_.clear();
  }

  std::vector<STObject> ProbeGeometries() const override { return events_; }

 private:
  struct Reference {
    size_t total = 0;
    bool sample_ok = false;
    std::string sample_detail;
  };

  /// Loaded partitions as the left side (their saved extents become an
  /// explicit partitioner) and the regions routed onto the same cells.
  std::pair<stark::SpatialRDD<int64_t>, stark::SpatialRDD<int64_t>>
  JoinSides(const stark::IndexedSpatialRDD<int64_t>& loaded) {
    const std::vector<stark::Envelope>& extents = *loaded.extents();
    auto cells = std::make_shared<stark::ExplicitPartitioner>(extents, extents);
    stark::SpatialRDD<int64_t> left(loaded.ToElements(), cells);
    stark::SpatialRDD<int64_t> right =
        stark::SpatialRDD<int64_t>::FromVector(&ctx_, regions_)
            .PartitionBy(cells);
    return {std::move(left), std::move(right)};
  }

  stark::IndexedSpatialRDD<int64_t> Load() {
    auto loaded = stark::IndexedSpatialRDD<int64_t>::Load(&ctx_, dir_);
    if (!loaded.ok()) throw stark::StatusError(loaded.status());
    return std::move(loaded).ValueOrDie();
  }

  static auto Project() {
    return [](const Element& event, const Element& region) {
      return std::pair<int64_t, int64_t>(event.second, region.second);
    };
  }

  /// One next-program job, with a span around each layer call.
  size_t RunJob(SpanRecorder* spans) {
    ScopedSpan job(spans, "harness:e3_job");
    const stark::IndexedSpatialRDD<int64_t> loaded = [&] {
      ScopedSpan span(spans, "serde:load", job.id());
      return Load();
    }();
    auto sides = [&] {
      ScopedSpan span(spans, "partition:regions", job.id());
      return JoinSides(loaded);
    }();
    ScopedSpan span(spans, "join:live_count", job.id());
    stark::JoinOptions join_options;
    join_options.index_order = kIndexOrder;
    return stark::SpatialJoinProject(sides.first, sides.second,
                                     stark::JoinPredicate::Intersects(),
                                     join_options, Project())
        .Count();
  }

  /// The cached-index join over the loaded trees gives the pair list; a
  /// nested loop over every event re-counts a seeded sample of regions.
  Reference ComputeReference() {
    const stark::IndexedSpatialRDD<int64_t> loaded = Load();
    const auto sides = JoinSides(loaded);
    const stark::JoinPredicate pred = stark::JoinPredicate::Intersects();
    const std::vector<std::pair<int64_t, int64_t>> pairs =
        stark::SpatialJoinProject(loaded, sides.second, pred,
                                  stark::JoinOptions{}, Project())
            .Collect();
    std::map<int64_t, size_t> per_region;
    for (const auto& [event, region] : pairs) ++per_region[region];

    Reference ref;
    ref.total = pairs.size();
    ref.sample_ok = true;
    stark::Rng pick(SubSeed(options_.seed, 3));
    size_t matched = 0;
    for (size_t s = 0; s < sizes_.sampled_regions; ++s) {
      const Element& region = regions_[static_cast<size_t>(
          pick.UniformInt(0, static_cast<int64_t>(regions_.size()) - 1))];
      size_t count = 0;
      for (const STObject& event : events_) {
        if (pred.Eval(event, region.first)) ++count;
      }
      const auto it = per_region.find(region.second);
      const size_t joined = it == per_region.end() ? 0 : it->second;
      ref.sample_ok = ref.sample_ok && joined == count;
      matched += count;
    }
    ref.sample_detail = std::to_string(sizes_.sampled_regions) +
                        " regions, " + std::to_string(matched) +
                        " matching events";
    return ref;
  }

  const Options options_;
  const Sizes sizes_;
  const std::string dir_;
  stark::Context ctx_;
  std::vector<STObject> events_;
  std::vector<Element> regions_;
  std::vector<size_t> counts_;
  std::optional<Reference> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeE3RegionJoin(const Options& options) {
  return std::make_unique<E3RegionJoin>(options);
}

}  // namespace perfbench
