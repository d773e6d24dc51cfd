/// \file knn.h
/// The one kNN core. Every k-nearest-neighbour search (the scan and indexed
/// operators, each left row of the kNN join, the served snapshot KNN) runs
/// TopK once per task over a candidate source: a packed R-tree searched by
/// branch and bound, or a bounded heap over rows. Candidates rank by one
/// order, (distance, tie key), in every top-k and in the driver merge.
#ifndef STARK_SPATIAL_RDD_KNN_H_
#define STARK_SPATIAL_RDD_KNN_H_

#include <algorithm>
#include <cstddef>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "core/distance.h"
#include "core/stobject.h"
#include "engine/rdd.h"
#include "geometry/prepared.h"
#include "spatial_rdd/columnar_refine.h"
#include "spatial_rdd/query_stats.h"

namespace stark {
namespace knn {

/// The tie key order, read from the STObject alone: the envelope
/// (min_x, min_y, max_x, max_y), then the time interval (start, end), an
/// absent time first.
inline bool KeyLess(const STObject& a, const STObject& b) {
  const auto key = [](const STObject& o) {
    const Envelope& e = o.envelope();
    const std::optional<TemporalInterval>& t = o.time();
    return std::make_tuple(e.min_x(), e.min_y(), e.max_x(), e.max_y(),
                           t.has_value(), t ? t->start() : Instant{0},
                           t ? t->end() : Instant{0});
  };
  return key(a) < key(b);
}

/// The kNN order of (distance, row) pairs: distance, then the tie key of
/// the STObject that \p key_of yields for the row.
template <typename KeyOf>
auto RankLess(KeyOf key_of) {
  return [key_of](const auto& a, const auto& b) {
    return a.first < b.first ||
           (a.first == b.first && KeyLess(key_of(a.second), key_of(b.second)));
  };
}

/// Sorts \p hits in the kNN order and keeps the first \p k.
template <typename Row, typename KeyOf>
void SelectTopK(std::vector<std::pair<double, Row>>* hits, size_t k,
                KeyOf key_of) {
  std::sort(hits->begin(), hits->end(), RankLess(key_of));
  if (hits->size() > k) {
    hits->erase(hits->begin() + static_cast<ptrdiff_t>(k), hits->end());
  }
}

/// \brief One kNN query and its exact distance: \p fn, or when null the
/// Euclidean geometry distance through the query prepared on first use.
/// Each measured candidate counts in \p task, whose checkpoint makes the
/// search cancellable. A NaN distance ranks as +infinity. \p query and
/// \p task must outlive the Query.
class Query {
 public:
  Query(const STObject& query, DistanceFunction fn,
        columnar_refine::TaskState* task)
      : query_(query), fn_(std::move(fn)), task_(task) {}

  const STObject& object() const { return query_; }
  /// The tree's envelope bound holds only for the Euclidean distance.
  bool TreeBound() const { return fn_ == nullptr; }
  columnar_refine::TaskState* task() const { return task_; }

  double operator()(const STObject& candidate) {
    task_->CountCandidates(1);
    if (fn_) return SanitizeDistance(fn_(candidate, query_));
    if (!prepared_.has_value()) {
      prepared_.emplace(query_.geo());
      ++task_->prepared_misses;
    } else {
      ++task_->prepared_hits;
    }
    // DistanceFrom(c) computes Distance(c, query.geo) bit for bit.
    return SanitizeDistance(prepared_->DistanceFrom(candidate.geo()));
  }

 private:
  const STObject& query_;
  DistanceFunction fn_;
  columnar_refine::TaskState* task_;
  std::optional<PreparedGeometry> prepared_;
};

template <typename Row>
using Hits = std::vector<std::pair<double, const Row*>>;

/// \brief The kNN top-k routine: the up-to-\p k rows of \p source nearest
/// to \p query, in the kNN order. The sources are the refine core's
/// (columnar_refine.h): a RowSource over a row vector with or without a
/// tree of row indices, or the TreeListSource of an indexed partition,
/// whose trees hold the rows. A tree is searched by branch and bound from
/// the query envelope when the distance is Euclidean; any other source or
/// distance is scanned through a bounded heap.
template <typename Source>
auto TopK(const Source& source, Query* query, size_t k) {
  using Row = typename Source::Row;
  Hits<Row> hits;
  if (k == 0) return hits;
  const auto less = RankLess(
      [&](const Row* row) -> const STObject& { return source.key(*row); });
  const auto search = [&](const auto& tree, const auto& row_of) {
    ++query->task()->packed_probes;
    const auto found = tree.Knn(
        query->object().envelope(), k,
        [&](const auto& v) { return (*query)(source.key(row_of(v))); },
        RankLess([&](const auto* v) -> const STObject& {
          return source.key(row_of(*v));
        }));
    for (const auto& [dist, v] : found) hits.emplace_back(dist, &row_of(*v));
  };
  if (query->TreeBound()) {
    if constexpr (Source::kSlabRows) {
      if (source.tree != nullptr) {
        search(*source.tree,
               [&](size_t e) -> const Row& { return (*source.rows)[e]; });
        return hits;
      }
    } else {
      for (const auto& tree : *source.trees) {
        search(*tree, [](const Row& row) -> const Row& { return row; });
      }
      SelectTopK(&hits, k, [&](const Row* row) -> const STObject& {
        return source.key(*row);
      });
      return hits;
    }
  }
  // A max-heap of the best k so far: its front is the current k-th.
  source.ForEach(Envelope(), query->task(), [&](const Row& row) {
    const std::pair<double, const Row*> hit((*query)(source.key(row)), &row);
    if (hits.size() == k) {
      if (!less(hit, hits.front())) return;
      std::pop_heap(hits.begin(), hits.end(), less);
      hits.back() = hit;
    } else {
      hits.push_back(hit);
    }
    std::push_heap(hits.begin(), hits.end(), less);
  });
  std::sort_heap(hits.begin(), hits.end(), less);
  return hits;
}

/// \brief A kNN search over an RDD: one task per partition runs TopK over
/// `source_of(partition)`, and the driver merges the tasks' rows. Each
/// task flushes its tallies; \p stats, when non-null, gets the candidates
/// measured and the rows returned.
template <typename Row, typename Part, typename SourceOf>
std::vector<std::pair<double, Row>> Run(const RDD<Part>& parts,
                                        const STObject& query, size_t k,
                                        DistanceFunction fn,
                                        QueryStats* stats,
                                        SourceOf source_of) {
  RDD<std::pair<double, Row>> locals = parts.MapPartitionsWithIndex(
      [query, k, fn, stats, source_of](size_t, std::vector<Part> part) {
        columnar_refine::TaskState task;
        Query q(query, fn, &task);
        std::vector<std::pair<double, Row>> out;
        for (const auto& [dist, row] : TopK(source_of(part), &q, k)) {
          out.emplace_back(dist, *row);
        }
        task.Flush();
        if (stats != nullptr) stats->candidates += task.candidates;
        return out;
      });
  std::vector<std::pair<double, Row>> all = locals.Collect();
  SelectTopK(&all, k,
             [](const Row& row) -> const STObject& { return row.first; });
  if (stats != nullptr) stats->results += all.size();
  return all;
}

}  // namespace knn
}  // namespace stark

#endif  // STARK_SPATIAL_RDD_KNN_H_
