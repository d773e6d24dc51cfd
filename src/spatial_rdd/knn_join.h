/// \file knn_join.h
/// k-nearest-neighbor join: for every left element, find its k nearest
/// right elements. The demo paper ships a kNN *search* operator; the full
/// STARK framework also provides the join form — implemented here with
/// per-partition R-trees and extent-distance pruning, so only right
/// partitions that can still improve the current k-th distance are probed.
/// Each probe is the kNN core's TopK (knn.h) with the left row as query.
#ifndef STARK_SPATIAL_RDD_KNN_JOIN_H_
#define STARK_SPATIAL_RDD_KNN_JOIN_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "index/packed_rtree.h"
#include "spatial_rdd/knn.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {

/// One kNN-join match: distance plus the right-side element.
template <typename W>
using KnnMatch = std::pair<double, std::pair<STObject, W>>;

/// \brief For each element l of \p left, emits (l, matches) where matches
/// are the up-to-k nearest elements of \p right by Euclidean geometry
/// distance, in the kNN order (knn.h).
///
/// Distance ties are broken by the tie key, as on every kNN path, so the
/// matches equal a kNN search with l as query. Right partitions are probed
/// in order of increasing extent distance and skipped once they cannot
/// beat the current k-th distance; within a partition the tree search is
/// bounded by the left envelope, so point and non-point left rows alike
/// are answered from the tree.
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
  const auto key_of = [](const R* r) -> const STObject& { return r->first; };
  ctx->pool().ParallelFor(nl, [&](size_t i) {
    columnar_refine::TaskState task;
    out[i].reserve(left_parts[i]->size());
    for (const L& l : *left_parts[i]) {
      // One query per left row: its geometry is prepared on the first
      // candidate and shared by every right partition it probes.
      knn::Query query(l.first, nullptr, &task);
      const Envelope& lenv = l.first.envelope();

      // Probe order: nearest right partition first.
      std::vector<std::pair<double, size_t>> order;
      order.reserve(nr);
      for (size_t j = 0; j < nr; ++j) {
        if (right_parts[j]->empty()) continue;
        order.emplace_back(right_extents[j].Distance(lenv), j);
      }
      std::sort(order.begin(), order.end());

      knn::Hits<R> best;
      for (const auto& [extent_dist, j] : order) {
        // No remaining partition can improve the k-th distance; one at
        // exactly that distance may still win the tie.
        if (k == 0 || (best.size() == k && extent_dist > best.back().first)) {
          break;
        }
        const knn::Hits<R> found = knn::TopK(
            columnar_refine::RowSource<const std::vector<R>>{
                .rows = right_parts[j], .tree = right_trees[j].get()},
            &query, k);
        best.insert(best.end(), found.begin(), found.end());
        knn::SelectTopK(&best, k, key_of);
      }
      std::vector<KnnMatch<W>> matches;
      matches.reserve(best.size());
      for (const auto& [dist, r] : best) matches.emplace_back(dist, *r);
      out[i].emplace_back(l, std::move(matches));
    }
    task.Flush();
  });
  return MakeRDDFromPartitions(ctx, std::move(out));
}

}  // namespace stark

#endif  // STARK_SPATIAL_RDD_KNN_JOIN_H_
