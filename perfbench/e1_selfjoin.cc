/// \file e1_selfjoin.cc
/// Workload e1_selfjoin: the paper's Figure 4 — STARK's self join with the
/// withinDistance predicate over 200k skewed points, BSP-partitioned, with
/// a live index of order 10. One op is one whole job:
/// FromVector -> BSP build -> PartitionBy + Cache -> SpatialJoinProject ->
/// Count. Its time goes to partitioning, index build and point-kernel
/// refinement; serde, serving, Piglet and non-point refinement are unused.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/stark_selfjoin.h"
#include "harness.h"
#include "partition/bsp_partitioner.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/spatial_rdd.h"

namespace perfbench {
namespace {

using stark::STObject;

constexpr size_t kPoints = 200'000;
constexpr double kDistance = 0.25;
constexpr size_t kIndexOrder = 10;
constexpr size_t kThreads = 4;
/// The pair count of the paper-size job at seed 42 (EXPERIMENTS.md E1).
constexpr size_t kSeed42Pairs = 15'066'984;

class E1SelfJoin final : public Workload {
 public:
  explicit E1SelfJoin(const Options& options)
      : options_(options), ctx_(kThreads) {}

  void Describe(Report* report) const override {
    report->Meta("points", std::to_string(kPoints));
    report->Meta("distance", "0.25");
    report->Meta("bsp_max_cost", std::to_string(kPoints / 64));
    report->Meta("threads", std::to_string(kThreads));
  }

  void Setup() override {
    data_.clear();
    data_.shrink_to_fit();
    data_.reserve(kPoints);
    for (const stark::Coordinate& c : ClusteredPoints(kPoints, options_.seed)) {
      data_.emplace_back(stark::Geometry::MakePoint(c));
    }
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
    const size_t expected = ExpectedPairs();
    bool ok = !counts_.empty();
    for (const size_t c : counts_) ok = ok && c == expected;
    report->Gate("e1.pair_count", ok,
                 "expected " + std::to_string(expected) + " pairs over " +
                     std::to_string(counts_.size()) + " jobs");
    counts_.clear();
  }

  std::vector<STObject> ProbeGeometries() const override { return data_; }

 private:
  /// Seed 42 is checked against the published count; any other seed
  /// against STARK's unpartitioned join of the same points.
  size_t ExpectedPairs() {
    if (options_.seed == 42) return kSeed42Pairs;
    if (!reference_.has_value()) {
      stark::StarkSelfJoinOptions none;
      none.partitioner = stark::StarkPartitionerChoice::kNone;
      none.index_order = kIndexOrder;
      reference_ = StarkSelfJoin(&ctx_, data_, kDistance, none).result_pairs;
    }
    return *reference_;
  }

  /// One Figure-4 job, with a span around each layer call.
  size_t RunJob(SpanRecorder* spans) {
    using Element = std::pair<STObject, int64_t>;
    ScopedSpan job(spans, "harness:e1_job");

    stark::SpatialRDD<int64_t> rdd = [&] {
      ScopedSpan span(spans, "engine:from_vector", job.id());
      std::vector<Element> pairs;
      pairs.reserve(data_.size());
      for (size_t i = 0; i < data_.size(); ++i) {
        pairs.emplace_back(data_[i], static_cast<int64_t>(i));
      }
      return stark::SpatialRDD<int64_t>::FromVector(&ctx_, std::move(pairs));
    }();

    std::shared_ptr<stark::BSPartitioner> bsp;
    {
      ScopedSpan span(spans, "partition:bsp_build", job.id());
      stark::Envelope universe;
      std::vector<stark::Coordinate> centroids;
      centroids.reserve(data_.size());
      for (const STObject& obj : data_) {
        universe.ExpandToInclude(obj.envelope());
        centroids.push_back(obj.Centroid());
      }
      stark::BSPartitioner::Options bsp_options;
      bsp_options.max_cost = kPoints / 64;
      bsp = std::make_shared<stark::BSPartitioner>(universe, centroids,
                                                   bsp_options);
    }
    {
      ScopedSpan span(spans, "partition:shuffle", job.id());
      rdd = rdd.PartitionBy(bsp).Cache();
    }

    ScopedSpan span(spans, "join:live_count", job.id());
    stark::JoinOptions join_options;
    join_options.index_order = kIndexOrder;
    const auto project = [](const Element& l, const Element& r) {
      return std::pair<int64_t, int64_t>(l.second, r.second);
    };
    const auto non_identity = [](const std::pair<int64_t, int64_t>& p) {
      return p.first != p.second;
    };
    return stark::SpatialJoinProject(
               rdd, rdd, stark::JoinPredicate::WithinDistance(kDistance),
               join_options, project)
        .Filter(non_identity)
        .Count();
  }

  const Options options_;
  stark::Context ctx_;
  std::vector<STObject> data_;
  std::vector<size_t> counts_;
  std::optional<size_t> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeE1SelfJoin(const Options& options) {
  return std::make_unique<E1SelfJoin>(options);
}

}  // namespace perfbench
