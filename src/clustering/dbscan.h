/// \file dbscan.h
/// Sequential (single-partition) DBSCAN with R-tree-accelerated region
/// queries — the local clustering step of the paper's distributed operator
/// and the correctness reference for it.
#ifndef STARK_CLUSTERING_DBSCAN_H_
#define STARK_CLUSTERING_DBSCAN_H_

#include <cstdint>
#include <vector>

#include "geometry/coordinate.h"

namespace stark {

/// DBSCAN parameters: neighborhood radius and density threshold. A point is
/// a core point iff at least min_pts points (including itself) lie within
/// eps of it.
struct DbscanParams {
  double eps = 1.0;
  size_t min_pts = 5;
};

/// Label assigned to points that belong to no cluster.
inline constexpr int64_t kNoise = -1;

/// Output of a DBSCAN run: labels[i] is the cluster of points[i] (kNoise
/// for noise), core[i] marks core points, num_clusters the cluster count.
struct DbscanResult {
  std::vector<int64_t> labels;
  std::vector<char> core;
  size_t num_clusters = 0;
};

/// Runs DBSCAN over \p points. Deterministic: clusters are numbered in
/// first-visited order. Inside an engine task it stops at a cancellation
/// checkpoint every 1024 visited points (ThrowIfTaskCancelled).
DbscanResult DbscanLocal(const std::vector<Coordinate>& points,
                         const DbscanParams& params);

}  // namespace stark

#endif  // STARK_CLUSTERING_DBSCAN_H_
