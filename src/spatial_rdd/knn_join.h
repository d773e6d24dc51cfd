/// \file knn_join.h
/// k-nearest-neighbor join: for every left element, find its k nearest
/// right elements. The demo paper ships a kNN *search* operator; the full
/// STARK framework also provides the join form — implemented here with
/// per-partition R-trees and extent-distance pruning, so only right
/// partitions that can still improve the current k-th distance are probed.
/// Each probe is the kNN core's TopK (knn.h) with the left row as query.
/// Like the live join (join.h), it builds the right trees in one
/// `knn_join.build` job and probes lazily, as the `knn_join.probe` stage.
#ifndef STARK_SPATIAL_RDD_KNN_JOIN_H_
#define STARK_SPATIAL_RDD_KNN_JOIN_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "index/packed_rtree.h"
#include "spatial_rdd/join.h"
#include "spatial_rdd/knn.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {

/// One kNN-join match: distance plus the right-side element.
template <typename W>
using KnnMatch = std::pair<double, std::pair<STObject, W>>;

/// Order of the R-tree the kNN join builds over each right partition. The
/// matches do not depend on it: ties are broken by the tie key (knn.h).
inline constexpr size_t kKnnJoinIndexOrder = 16;

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
///
/// The result is lazy, one probe task per left partition: a result read
/// twice probes twice (Cache() it to probe once).
template <typename V, typename W>
RDD<std::pair<std::pair<STObject, V>, std::vector<KnnMatch<W>>>> KnnJoin(
    const SpatialRDD<V>& left, const SpatialRDD<W>& right, size_t k) {
  using L = std::pair<STObject, V>;
  using R = std::pair<STObject, W>;
  using Out = std::pair<L, std::vector<KnnMatch<W>>>;
  namespace ji = join_internal;

  // Read both sides in place (cached or in-memory partitions are borrowed)
  // and index each right partition once, straight into the packed layout —
  // kNN traversal walks SoA node arrays, no pointer chasing.
  const auto left_parts = ji::ReadParts(left.rdd());
  const auto right_parts = ji::ReadParts(right.rdd());
  const size_t nr = right_parts->views.size();
  auto right_trees = std::make_shared<std::vector<PackedRTree<size_t>>>(nr);
  left.ctx()->RunTasks("knn_join.build", nr, [&](size_t j) {
    const std::vector<R>& part = *right_parts->views[j];
    std::vector<std::pair<Envelope, size_t>> entries;
    entries.reserve(part.size());
    for (size_t e = 0; e < part.size(); ++e) {
      entries.emplace_back(part[e].first.envelope(), e);
    }
    (*right_trees)[j] =
        PackedRTree<size_t>(kKnnJoinIndexOrder, std::move(entries));
  });

  // Right-partition extents for pruning (fall back to tree bounds when the
  // right side is not spatially partitioned).
  std::vector<Envelope> right_extents(nr);
  for (size_t j = 0; j < nr; ++j) {
    right_extents[j] = right.partitioner() != nullptr
                           ? right.partitioner()->PartitionExtent(j)
                           : (*right_trees)[j].bounds();
  }

  return RDD<Out>(std::make_shared<ji::ProbeRDD<Out>>(
      left.ctx(), "knn_join.probe", left_parts->views.size(),
      [left_parts, right_parts, right_trees,
       right_extents = std::move(right_extents), k](size_t i, Sink<Out> sink) {
        const std::vector<L>& rows = *left_parts->views[i];
        columnar_refine::TaskState task;
        for (size_t row = 0; row < rows.size(); ++row) {
          // A checkpoint for rows that measure no candidate.
          if ((row & 1023u) == 0) ThrowIfTaskCancelled();
          const L& l = rows[row];
          // One query per left row: its geometry is prepared on the first
          // candidate and shared by every right partition it probes.
          knn::Query query(l.first, nullptr, &task);
          const Envelope& lenv = l.first.envelope();

          // Probe order: nearest right partition first.
          std::vector<std::pair<double, size_t>> order;
          order.reserve(right_extents.size());
          for (size_t j = 0; j < right_extents.size(); ++j) {
            if (right_parts->views[j]->empty()) continue;
            order.emplace_back(right_extents[j].Distance(lenv), j);
          }
          std::sort(order.begin(), order.end());

          knn::Hits<R> best;
          for (const auto& [extent_dist, j] : order) {
            // No remaining partition can improve the k-th distance; one at
            // exactly that distance may still win the tie.
            if (k == 0 ||
                (best.size() == k && extent_dist > best.back().first)) {
              break;
            }
            const knn::Hits<R> found = knn::TopK(
                columnar_refine::RowSource<const std::vector<R>>{
                    .rows = right_parts->views[j], .tree = &(*right_trees)[j]},
                &query, k);
            best.insert(best.end(), found.begin(), found.end());
            knn::SelectTopK(&best, k, [](const R* r) -> const STObject& {
              return r->first;
            });
          }
          Out out(l, {});
          out.second.reserve(best.size());
          for (const auto& [dist, r] : best) out.second.emplace_back(dist, *r);
          sink(out);
        }
        task.Flush();
        if (obs::TaskSpan* span = obs::CurrentTaskSpan()) {
          span->records_in = rows.size();
          span->records_out = rows.size();
          span->candidates = task.candidates;
        }
      }));
}

}  // namespace stark

#endif  // STARK_SPATIAL_RDD_KNN_JOIN_H_
