/// \file explicit_partitioner.h
/// A partitioner defined by an explicit list of partition bounds — used
/// when the original grid/BSP object is gone but its cells are known, e.g.
/// to route new data onto the cells of a persistent index loaded back from
/// disk (Figure 2's "load from HDFS -> query execution"), whose saved
/// extents serve as both bounds and extents.
#ifndef STARK_PARTITION_EXPLICIT_PARTITIONER_H_
#define STARK_PARTITION_EXPLICIT_PARTITIONER_H_

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "partition/partitioner.h"

namespace stark {

/// \brief Partitioner backed by a stored bounds list. Assignment routes a
/// centroid to the first partition whose bounds contain it, falling back to
/// the nearest bounds — so re-partitioning loaded data stays total even for
/// out-of-universe points.
class ExplicitPartitioner final : public SpatialPartitioner {
 public:
  /// \p bounds must be non-empty; \p extents must be empty (extents start
  /// at bounds) or match bounds in size.
  ExplicitPartitioner(std::vector<Envelope> bounds,
                      const std::vector<Envelope>& extents)
      : bounds_(std::move(bounds)) {
    STARK_CHECK(!bounds_.empty());
    STARK_CHECK(extents.empty() || extents.size() == bounds_.size());
    InitExtents();
    for (size_t i = 0; i < extents.size(); ++i) {
      GrowExtent(i, extents[i]);
    }
  }

  size_t NumPartitions() const override { return bounds_.size(); }

  size_t PartitionFor(const Coordinate& c) const override {
    size_t nearest = 0;
    double nearest_dist = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < bounds_.size(); ++i) {
      const double d = bounds_[i].Distance(c);
      if (d == 0.0) return i;
      if (d < nearest_dist) {
        nearest_dist = d;
        nearest = i;
      }
    }
    return nearest;
  }

  const Envelope& PartitionBounds(size_t i) const override {
    STARK_DCHECK(i < bounds_.size());
    return bounds_[i];
  }

  std::string Name() const override { return "explicit"; }

  std::shared_ptr<SpatialPartitioner> Clone() const override {
    return std::shared_ptr<SpatialPartitioner>(new ExplicitPartitioner(*this));
  }

 private:
  ExplicitPartitioner(const ExplicitPartitioner&) = default;

  std::vector<Envelope> bounds_;
};

}  // namespace stark

#endif  // STARK_PARTITION_EXPLICIT_PARTITIONER_H_
