/// \file partitioner.h
/// Spatial partitioner interface (§2.1). A partitioner assigns each
/// spatio-temporal object to exactly ONE partition based on its centroid;
/// per-partition *bounds* describe the assignment cells while *extents*
/// additionally cover the full envelopes of the assigned objects (the
/// paper's "additional extent information"), enabling correct partition
/// pruning for non-point geometries without replication.
#ifndef STARK_PARTITION_PARTITIONER_H_
#define STARK_PARTITION_PARTITIONER_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "geometry/envelope.h"
#include "temporal/interval.h"

namespace stark {

/// \brief Base class of STARK's spatial partitioners.
///
/// Mirrors Spark's `Partitioner` contract (stable element -> partition id
/// mapping) extended with spatial metadata. GrowExtent is thread-safe;
/// SpatialRDD::PartitionBy calls it once per partition per shuffle, with
/// the union of the envelopes routed there.
class SpatialPartitioner {
 public:
  virtual ~SpatialPartitioner() = default;

  /// Total number of partitions produced.
  virtual size_t NumPartitions() const = 0;

  /// Partition id for an object whose centroid is \p c. Must be <
  /// NumPartitions() for any coordinate (out-of-universe points are clamped
  /// into the nearest cell).
  virtual size_t PartitionFor(const Coordinate& c) const = 0;

  /// The assignment cell of partition \p i (non-overlapping).
  virtual const Envelope& PartitionBounds(size_t i) const = 0;

  /// Human-readable partitioner name for logs and benchmark labels.
  virtual std::string Name() const = 0;

  /// \brief Copy of this partitioner with the *same* assignment structure
  /// and an independent set of extents.
  ///
  /// SpatialRDD::PartitionBy clones the partitioner it is given (and resets
  /// the clone's extents) before growing extents during the shuffle, so one
  /// partitioner instance can be reused for several datasets without the
  /// first shuffle's extent growth leaking into the next and defeating
  /// pruning. Immutable assignment structure (grids, BSP trees) may be
  /// shared between clones; only the extents are per-clone state.
  virtual std::shared_ptr<SpatialPartitioner> Clone() const = 0;

  /// Spatio-temporal assignment hook. The paper notes that "in its current
  /// version, STARK only considers the spatial component for partitioning";
  /// this default implements exactly that, and the spatio-temporal grid
  /// partitioner overrides it to bucket by time as well.
  virtual size_t PartitionForST(
      const Coordinate& c, const std::optional<TemporalInterval>& time) const {
    (void)time;
    return PartitionFor(c);
  }

  /// Temporal validity of partition \p i, when the partitioner buckets by
  /// time; nullopt means temporally unbounded (never pruned by time). A
  /// query *with* a temporal component may skip partitions whose time
  /// bounds cannot intersect it — objects without time never match such a
  /// query anyway (formula (1)-(3)), so the pruning stays exact.
  virtual std::optional<TemporalInterval> PartitionTimeBounds(size_t i) const {
    (void)i;
    return std::nullopt;
  }

  /// The adjusted extent of partition \p i: cell bounds expanded by every
  /// assigned object's envelope. Extents may overlap (paper §2.1).
  const Envelope& PartitionExtent(size_t i) const {
    STARK_DCHECK(i < extents_.size());
    return extents_[i];
  }

  /// Expands partition \p i's extent to cover \p env. Thread-safe.
  void GrowExtent(size_t i, const Envelope& env) {
    std::lock_guard<std::mutex> lock(extent_mu_);
    STARK_DCHECK(i < extents_.size());
    extents_[i].ExpandToInclude(env);
  }

  /// Resets every extent back to its assignment bounds, discarding all
  /// GrowExtent history. Must not race with a concurrent shuffle.
  void ResetExtents() {
    std::lock_guard<std::mutex> lock(extent_mu_);
    extents_.clear();
    extents_.reserve(NumPartitions());
    for (size_t i = 0; i < NumPartitions(); ++i) {
      extents_.push_back(PartitionBounds(i));
    }
  }

  /// Ids of all partitions whose *bounds* lie within \p eps of \p c; used
  /// by the distributed DBSCAN border replication step.
  std::vector<size_t> PartitionsWithinDistance(const Coordinate& c,
                                               double eps) const {
    std::vector<size_t> out;
    for (size_t i = 0; i < NumPartitions(); ++i) {
      if (PartitionBounds(i).Distance(c) <= eps) out.push_back(i);
    }
    return out;
  }

 protected:
  SpatialPartitioner() = default;

  /// Copying duplicates the extents (the mutex is per-instance); used by
  /// the subclasses' Clone() implementations.
  SpatialPartitioner(const SpatialPartitioner& other)
      : extents_(other.extents_) {}
  SpatialPartitioner& operator=(const SpatialPartitioner&) = delete;

  /// Subclasses call this once their bounds are final to seed the extents.
  void InitExtents() {
    extents_.clear();
    extents_.reserve(NumPartitions());
    for (size_t i = 0; i < NumPartitions(); ++i) {
      extents_.push_back(PartitionBounds(i));
    }
  }

 private:
  std::vector<Envelope> extents_;
  mutable std::mutex extent_mu_;
};

}  // namespace stark

#endif  // STARK_PARTITION_PARTITIONER_H_
