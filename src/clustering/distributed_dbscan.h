/// \file distributed_dbscan.h
/// STARK's density-based clustering operator (§2.3): DBSCAN for the engine,
/// inspired by MR-DBSCAN [1]. The implementation exploits the spatial
/// partitioning: points within eps-distance of a partition border are
/// replicated into the respective neighboring partitions, a local
/// clustering runs in parallel per partition, and a merge step connects
/// local clusters through the replicated points.
/// Each step runs on the engine: one replicating PartitionBy, one
/// `dbscan.local` job, a driver merge over the replicated points only, and
/// a lazy map that labels the home rows.
#ifndef STARK_CLUSTERING_DISTRIBUTED_DBSCAN_H_
#define STARK_CLUSTERING_DISTRIBUTED_DBSCAN_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "clustering/dbscan.h"
#include "clustering/union_find.h"
#include "partition/partitioner.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {

/// \brief Distributed DBSCAN over a spatial RDD.
///
/// Clustering is performed on the centroids of the spatial components
/// (events are points in the paper's workloads). Returns the input elements
/// paired with a global cluster id (kNoise for noise), partitioned by
/// \p partitioner, each partition in input order. Global ids are dense,
/// starting at 0, in the input order of each cluster's first point.
///
/// The shuffle and the local clusterings run when this is called; the
/// returned RDD labels the home rows lazily.
template <typename V>
RDD<std::pair<std::pair<STObject, V>, int64_t>> DistributedDbscan(
    const SpatialRDD<V>& data, const DbscanParams& params,
    const std::shared_ptr<SpatialPartitioner>& partitioner) {
  using Element = std::pair<STObject, V>;
  // A point's place in the input, (input partition, row).
  using PointId = std::pair<size_t, size_t>;
  const size_t num_parts = partitioner->NumPartitions();

  // Replicating shuffle: each point goes to its home partition, with its
  // element, and as a replica (id and centroid only) to every other
  // partition whose bounds lie within eps. PartitionBy keeps the input
  // order within each target, so every local input is in id order.
  struct Copy {
    PointId id;
    Coordinate c;
    size_t target = 0;
    bool replicated = false;  ///< a home copy whose point has replicas
    std::optional<Element> element;  ///< set on the home copy only
  };
  const RDD<Copy> routed =
      data.rdd()
          .MapPartitionsWithIndex([partitioner, eps = params.eps](
                                      size_t part, std::vector<Element> rows) {
            std::vector<Copy> out;
            out.reserve(rows.size());
            for (size_t r = 0; r < rows.size(); ++r) {
              const Coordinate c = rows[r].first.Centroid();
              const size_t home = partitioner->PartitionFor(c);
              const size_t first = out.size();
              out.push_back({{part, r}, c, home, false, std::move(rows[r])});
              for (size_t p : partitioner->PartitionsWithinDistance(c, eps)) {
                if (p != home) out.push_back({{part, r}, c, p, false, {}});
              }
              out[first].replicated = out.size() > first + 1;
            }
            return out;
          })
          .PartitionBy(num_parts, [](const Copy& copy) { return copy.target; });

  // Local clustering, one task per partition. Only the occurrences of
  // replicated points and each local cluster's first home row (its
  // smallest home id) reach the driver; the local labels stay for the lazy
  // labelling.
  struct Occurrence {
    PointId id;
    bool replica, core;
    size_t partition, row;
    int64_t label;
  };
  std::vector<std::vector<int64_t>> labels(num_parts);
  std::vector<size_t> clusters(num_parts);
  std::vector<std::vector<Occurrence>> occurrences(num_parts);
  data.ctx()->RunTasks("dbscan.local", num_parts, [&](size_t p) {
    std::vector<Copy> storage;
    const std::vector<Copy>& rows =
        engine_internal::Borrow(*routed.impl(), p, &storage);
    std::vector<Coordinate> coords;
    coords.reserve(rows.size());
    for (const Copy& row : rows) coords.push_back(row.c);
    DbscanResult result = DbscanLocal(coords, params);
    std::vector<char> seen(result.num_clusters, 0);
    std::vector<Occurrence> shared;
    for (size_t k = 0; k < rows.size(); ++k) {
      const bool home = rows[k].element.has_value();
      const int64_t label = result.labels[k];
      const bool first = home && label != kNoise && !seen[label];
      if (first) seen[label] = 1;
      if (first || !home || rows[k].replicated) {
        shared.push_back({rows[k].id, !home, result.core[k] != 0, p, k, label});
      }
    }
    labels[p] = std::move(result.labels);
    clusters[p] = result.num_clusters;
    occurrences[p] = std::move(shared);
  });

  // Driver merge. A local cluster's key is its partition's base plus its
  // label. Each point's occurrences are grouped in id order: home first,
  // then its replicas by partition.
  std::vector<size_t> base(num_parts + 1, 0);
  std::vector<Occurrence> shared;
  for (size_t p = 0; p < num_parts; ++p) {
    base[p + 1] = base[p] + clusters[p];
    shared.insert(shared.end(), occurrences[p].begin(), occurrences[p].end());
  }
  std::sort(shared.begin(), shared.end(),
            [](const Occurrence& a, const Occurrence& b) {
              return std::tie(a.id, a.replica, a.partition) <
                     std::tie(b.id, b.replica, b.partition);
            });
  const auto key_of = [&base](const Occurrence& occ) {
    return base[occ.partition] + static_cast<size_t>(occ.label);
  };
  const auto for_each_point = [&shared](auto&& fn) {
    for (size_t b = 0, e = 0; b < shared.size(); b = e) {
      e = b + 1;
      while (e < shared.size() && shared[e].id == shared[b].id) ++e;
      fn(b, e);
    }
  };

  // Local clusters C1 and C2 merge when they share a point that is a core
  // point in at least one of them (MR-DBSCAN merge rule).
  UnionFind uf(base[num_parts]);
  for_each_point([&](size_t b, size_t e) {
    for (size_t c = b; c < e; ++c) {
      if (!shared[c].core || shared[c].label == kNoise) continue;
      for (size_t o = b; o < e; ++o) {
        if (shared[o].label != kNoise) {
          uf.Union(key_of(shared[c]), key_of(shared[o]));
        }
      }
    }
  });

  // A point's label is its home cluster when it has one; else its first
  // clustered replica's (a border point clustered only across the border,
  // kept per partition as (row, global id) in row order); else noise.
  // Global ids are dense, in order of the smallest id labelled with each
  // merged cluster — one of the points seen here.
  std::vector<int64_t> of_root(uf.size(), kNoise);
  int64_t next = 0;
  std::vector<std::vector<std::pair<size_t, int64_t>>> border_rows(num_parts);
  for_each_point([&](size_t b, size_t e) {
    for (size_t o = b; o < e; ++o) {
      if (shared[o].label == kNoise) continue;
      int64_t& global = of_root[uf.Find(key_of(shared[o]))];
      if (global == kNoise) global = next++;
      if (o != b) {
        border_rows[shared[b].partition].emplace_back(shared[b].row, global);
      }
      break;
    }
  });
  std::vector<int64_t> global(uf.size());
  for (size_t key = 0; key < uf.size(); ++key) {
    global[key] = of_root[uf.Find(key)];
  }

  // Label the home rows lazily.
  return routed.MapPartitionsWithIndex(
      [base = std::move(base), global = std::move(global),
       labels = std::move(labels), border_rows = std::move(border_rows)](
          size_t p, std::vector<Copy> rows) {
        auto border = border_rows[p].begin();
        std::vector<std::pair<Element, int64_t>> out;
        for (size_t k = 0; k < rows.size(); ++k) {
          if (!rows[k].element.has_value()) continue;
          int64_t label = kNoise;
          if (labels[p][k] != kNoise) {
            label = global[base[p] + static_cast<size_t>(labels[p][k])];
          } else if (border != border_rows[p].end() && border->first == k) {
            label = (border++)->second;
          }
          out.emplace_back(std::move(*rows[k].element), label);
        }
        return out;
      });
}

}  // namespace stark

#endif  // STARK_CLUSTERING_DISTRIBUTED_DBSCAN_H_
