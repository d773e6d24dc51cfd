/// \file knn_join.h
/// k-nearest-neighbor join: for every left element, find its k nearest
/// right elements. The demo paper ships a kNN *search* operator; the full
/// STARK framework also provides the join form — implemented here with
/// per-partition R-trees and extent-distance pruning, so only right
/// partitions that can still improve the current k-th distance are probed.
#ifndef STARK_SPATIAL_RDD_KNN_JOIN_H_
#define STARK_SPATIAL_RDD_KNN_JOIN_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "geometry/prepared.h"
#include "index/packed_rtree.h"
#include "spatial_rdd/query_stats.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {

/// One kNN-join match: distance plus the right-side element.
template <typename W>
using KnnMatch = std::pair<double, std::pair<STObject, W>>;

/// \brief For each element l of \p left, emits (l, matches) where matches
/// are the up-to-k nearest elements of \p right by Euclidean geometry
/// distance, sorted ascending.
///
/// Distance ties are broken arbitrarily (matching the paper's kNN search
/// operator). Right partitions are probed in order of increasing extent
/// distance and skipped once they cannot beat the current k-th distance.
template <typename V, typename W>
RDD<std::pair<std::pair<STObject, V>, std::vector<KnnMatch<W>>>> KnnJoin(
    const SpatialRDD<V>& left, const SpatialRDD<W>& right, size_t k,
    size_t index_order = 16) {
  using L = std::pair<STObject, V>;
  using R = std::pair<STObject, W>;
  using Out = std::pair<L, std::vector<KnnMatch<W>>>;

  Context* ctx = left.ctx();
  const size_t nl = left.NumPartitions();
  const size_t nr = right.NumPartitions();

  // Read the right side in place (cached or in-memory partitions are
  // borrowed) and index it once, straight into the packed layout — kNN
  // traversal walks SoA node arrays, no pointer chasing.
  std::vector<std::vector<R>> right_storage;
  const std::vector<const std::vector<R>*> right_parts =
      right.rdd().PartitionViews(&right_storage);
  std::vector<std::unique_ptr<PackedRTree<size_t>>> right_trees(nr);
  ctx->pool().ParallelFor(nr, [&](size_t j) {
    const std::vector<R>& part = *right_parts[j];
    std::vector<std::pair<Envelope, size_t>> entries;
    entries.reserve(part.size());
    for (size_t e = 0; e < part.size(); ++e) {
      entries.emplace_back(part[e].first.envelope(), e);
    }
    right_trees[j] =
        std::make_unique<PackedRTree<size_t>>(index_order, std::move(entries));
  });

  // Right-partition extents for pruning (fall back to tree bounds when the
  // right side is not spatially partitioned).
  std::vector<Envelope> right_extents(nr);
  for (size_t j = 0; j < nr; ++j) {
    right_extents[j] = right.partitioner() != nullptr
                           ? right.partitioner()->PartitionExtent(j)
                           : right_trees[j]->bounds();
  }

  std::vector<std::vector<L>> left_storage;
  const std::vector<const std::vector<L>*> left_parts =
      left.rdd().PartitionViews(&left_storage);
  std::vector<std::vector<Out>> out(nl);
  ctx->pool().ParallelFor(nl, [&](size_t i) {
    size_t packed_probes = 0;
    size_t prep_hits = 0;
    size_t prep_misses = 0;
    out[i].reserve(left_parts[i]->size());
    for (const L& l : *left_parts[i]) {
      // Each left element's geometry is interrogated once per candidate;
      // prepare it lazily so elements whose partitions all get pruned (or
      // that find no candidates) never pay for preparation.
      // DistanceFrom(rg) == Distance(rg, l.geo) — identical doubles.
      std::optional<PreparedGeometry> prep;
      auto exact = [&](const Geometry& rg) {
        if (!prep.has_value()) {
          prep.emplace(l.first.geo());
          ++prep_misses;
        } else {
          ++prep_hits;
        }
        return prep->DistanceFrom(rg);
      };
      // Branch-and-bound admissibility: geometry distance is always >= the
      // distance between the geometries' envelopes, so envelope-based
      // bounds never over-prune. The in-tree bound is anchored at the left
      // centroid, which is only a valid lower bound for point geometries;
      // non-point left geometries scan the partition instead.
      const Envelope& lenv = l.first.envelope();
      const bool left_is_point = l.first.geo().IsPoint();
      const Coordinate c = l.first.Centroid();

      // Probe order: nearest right partition first.
      std::vector<std::pair<double, size_t>> order;
      order.reserve(nr);
      for (size_t j = 0; j < nr; ++j) {
        if (right_parts[j]->empty()) continue;
        order.emplace_back(right_extents[j].Distance(lenv), j);
      }
      std::sort(order.begin(), order.end());

      std::vector<KnnMatch<W>> best;
      auto merge = [&](double dist, const R& r) {
        best.emplace_back(dist, r);
      };
      for (const auto& [extent_dist, j] : order) {
        if (best.size() >= k && extent_dist > best.back().first) {
          break;  // no remaining partition can improve the k-th distance
        }
        if (left_is_point) {
          auto hits = right_trees[j]->Knn(c, k, [&](const size_t& e) {
            return exact((*right_parts[j])[e].first.geo());
          });
          ++packed_probes;
          for (auto& [dist, e] : hits) merge(dist, (*right_parts[j])[*e]);
        } else {
          for (const R& r : *right_parts[j]) {
            merge(exact(r.first.geo()), r);
          }
        }
        std::sort(best.begin(), best.end(),
                  [](const KnnMatch<W>& a, const KnnMatch<W>& b) {
                    return a.first < b.first;
                  });
        if (best.size() > k) {
          best.erase(best.begin() + static_cast<ptrdiff_t>(k), best.end());
        }
      }
      out[i].emplace_back(l, std::move(best));
    }
    const IndexMetricSet& index_metrics = GlobalIndexMetrics();
    index_metrics.packed_probes->Add(packed_probes);
    index_metrics.prepared_hits->Add(prep_hits);
    index_metrics.prepared_misses->Add(prep_misses);
  });
  return MakeRDDFromPartitions(ctx, std::move(out));
}

}  // namespace stark

#endif  // STARK_SPATIAL_RDD_KNN_JOIN_H_
