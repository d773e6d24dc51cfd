/// \file columnar_refine.h
/// The one refine core. A filter and a join are the same step (§2.2): take
/// envelope candidates from a partition or its R-tree, then refine each one
/// with the exact spatio-temporal predicate against one fixed STObject (the
/// query, or the current probe row). RefineFixed is that step, run by the
/// scan, indexed and served filters once per task and by every join task
/// once per probe row, over one of two candidate sources: RowSource (a row
/// vector, with or without a tree of row indices and point slabs) and
/// TreeListSource (the cached trees of an indexed partition). A symmetric
/// point self-join runs RefineLeafGroups instead, one query per leaf of the
/// probe rows' own tree, with the same candidates per row. The kNN core's
/// TopK (knn.h) reads the same sources.
///
/// SelectKernels picks the refine path, per batch, from properties of the
/// input the code can observe: the kernels run iff the predicate is
/// kernel-refinable (no custom distance function) and every row on the
/// batched side is a point. Every other batch takes the scalar
/// BoundPredicate refine. RefineCandidates refines a candidate list (row
/// indices into the point slabs) against one fixed prepared operand, with
/// results and emission order exactly equal to per-candidate
/// BoundPredicate::Eval calls, so either path yields the same output.
#ifndef STARK_SPATIAL_RDD_COLUMNAR_REFINE_H_
#define STARK_SPATIAL_RDD_COLUMNAR_REFINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/columnar.h"
#include "engine/job_control.h"
#include "geometry/kernels.h"
#include "geometry/prepared.h"
#include "index/packed_rtree.h"
#include "obs/trace.h"
#include "spatial_rdd/predicate.h"
#include "spatial_rdd/query_stats.h"

namespace stark {
namespace columnar_refine {

/// Picks the refine path for one batch. Returns the point slabs the kernels
/// read iff \p pred is kernel-refinable and every row on the batched side
/// is a point; null selects the scalar BoundPredicate refine. \p points_of
/// yields the batched side's slabs — ColumnarBatch::BuildPoints, possibly
/// through a PointSlabSlot — and is called only for a kernel-refinable
/// predicate. Custom withinDistance functions interrogate whole STObjects
/// and never go through preparation, so the kernels cannot evaluate them.
template <typename PointsFn>
std::shared_ptr<const ColumnarBatch> SelectKernels(const JoinPredicate& pred,
                                                   PointsFn&& points_of) {
  if (pred.type == PredicateType::kWithinDistance && pred.distance != nullptr) {
    return nullptr;
  }
  return points_of();
}

/// Candidate rows refined per path in one task (TaskState::Flush).
struct Stats {
  size_t kernel_rows = 0;
  size_t fallback_rows = 0;
};

namespace internal {

/// Spatial kernel dispatch for point candidates. The candidate fills the
/// `cand_left` operand slot, so the predicate maps onto the prepared fixed
/// side exactly as in EvalWithPreparedRight/Left: e.g. candidate-left
/// kContains means candidate.Contains(fixed), i.e. prep.ContainedByPoint.
inline size_t SpatialKernel(const ColumnarBatch& batch,
                            const JoinPredicate& pred,
                            const PreparedGeometry& prep, bool cand_left,
                            const uint32_t* cand, size_t count,
                            uint32_t* out) {
  const double* px = batch.x().data();
  const double* py = batch.y().data();
  switch (pred.type) {
    case PredicateType::kIntersects:
      return RefineIntersectsBatch(prep, px, py, cand, count, out);
    case PredicateType::kContains:
      return cand_left
                 ? RefineContainedByBatch(prep, px, py, cand, count, out)
                 : RefineContainsBatch(prep, px, py, cand, count, out);
    case PredicateType::kContainedBy:
      return cand_left
                 ? RefineContainsBatch(prep, px, py, cand, count, out)
                 : RefineContainedByBatch(prep, px, py, cand, count, out);
    case PredicateType::kWithinDistance:
      return RefineWithinDistanceBatch(prep, px, py, cand, count,
                                       pred.max_distance, out);
  }
  return 0;
}

/// Combined-temporal pass matching CombinedST's operand orientation:
/// kIntersects is symmetric; for the containment predicates the query
/// interval sits on the EvalTemporalPredicate left side iff
/// (candidate-left XOR pred == kContainedBy) — the same table
/// EvalWithPreparedRight/Left encode. withinDistance has no temporal
/// semantics and must not reach here.
inline size_t TemporalKernel(const ColumnarBatch& batch,
                             const JoinPredicate& pred, const STObject& fixed,
                             bool cand_left, const uint32_t* cand,
                             size_t count, uint32_t* out) {
  const bool query_has_time = fixed.HasTime();
  const int64_t qs = query_has_time ? fixed.time()->start() : 0;
  const int64_t qe = query_has_time ? fixed.time()->end() : 0;
  TemporalPredicate tpred = TemporalPredicate::kIntersects;
  bool query_is_left = true;
  if (pred.type != PredicateType::kIntersects) {
    tpred = TemporalPredicate::kContains;
    // kContains, candidate left: cand.t must contain fixed.t -> query right.
    // kContainedBy, candidate left: fixed.t must contain cand.t -> query
    // left. Candidate-right flips both.
    query_is_left = (pred.type == PredicateType::kContains) != cand_left;
  }
  return TemporalOverlapBatch(batch.t_start().data(), batch.t_end().data(),
                              batch.has_time().data(), query_has_time, qs, qe,
                              tpred, query_is_left, cand, count, out);
}

}  // namespace internal

/// Refines `*cand` in place against \p fixed (prepared as \p prep, which
/// must be built from fixed.geo()). \p batch must be the point slabs
/// SelectKernels returned. \p cand_left states which operand slot the
/// candidates fill: true means Eval(c) == pred.Eval(c, fixed). \p scratch
/// is caller-provided to keep the per-probe hot path allocation-free once
/// warmed up.
inline void RefineCandidates(const ColumnarBatch& batch,
                             const JoinPredicate& pred, const STObject& fixed,
                             const PreparedGeometry& prep, bool cand_left,
                             std::vector<uint32_t>* cand, Stats* stats,
                             std::vector<uint32_t>* scratch) {
  const size_t in_count = cand->size();
  if (in_count == 0) return;
  stats->kernel_rows += in_count;
  scratch->resize(in_count);
  size_t n = internal::SpatialKernel(batch, pred, prep, cand_left,
                                     cand->data(), in_count, scratch->data());
  if (pred.type == PredicateType::kWithinDistance) {
    cand->assign(scratch->begin(), scratch->begin() + n);
    return;
  }
  n = internal::TemporalKernel(batch, pred, fixed, cand_left, scratch->data(),
                               n, cand->data());
  cand->resize(n);
}

/// One task's refine state: the tallies it flushes once, when it ends (the
/// granularity rule), and the candidate buffers the kernel path reuses from
/// one fixed row to the next.
struct TaskState {
  size_t candidates = 0;       ///< candidates handed to the exact refine
  size_t packed_probes = 0;    ///< engine.index.packed_probes
  size_t prefilter_skips = 0;  ///< engine.join.prefilter_skips
  size_t prepared_hits = 0;    ///< spatial.prepared.hits
  size_t prepared_misses = 0;  ///< spatial.prepared.misses
  Stats columnar;              ///< engine.columnar.{rows,fallbacks}
  std::vector<uint32_t> cand;
  std::vector<uint32_t> scratch;
  EnvelopeSoA group_envs;            ///< a probe leaf's candidates (envelopes)
  std::vector<uint32_t> group_rows;  ///< ... and their rows

  /// Counts \p n more candidates. The cooperative cancellation checkpoint
  /// runs each time the count passes a multiple of 1024.
  void CountCandidates(size_t n) {
    const size_t before = candidates;
    candidates += n;
    if ((before >> 10) != (candidates >> 10)) ThrowIfTaskCancelled();
  }

  /// Flushes every tally but prefilter_skips, which only joins report.
  void Flush() const {
    const ColumnarMetricSet& c = GlobalColumnarMetrics();
    c.rows->Add(columnar.kernel_rows);
    c.fallbacks->Add(columnar.fallback_rows);
    const IndexMetricSet& m = GlobalIndexMetrics();
    m.packed_probes->Add(packed_probes);
    m.prepared_hits->Add(prepared_hits);
    m.prepared_misses->Add(prepared_misses);
  }
};

/// The STObject of an (STObject, V) element.
struct ElementKey {
  template <typename T>
  const STObject& operator()(const T& row) const {
    return row.first;
  }
};

/// \brief Candidate source over the rows of `*rows` (a mutable vector lets
/// the emit callback move survivors out); `key` yields a row's STObject.
///
/// With a `tree` of row indices the candidates are the rows it returns for
/// the probe envelope, or with `prune` unset every row it holds. Without a
/// tree they are every row; `prune` then skips rows whose envelope misses
/// the probe first (the nested loop's prefilter). `points` are the slabs
/// SelectKernels chose for the rows: the kernels refine them, taking their
/// candidates from the tree or, with none, from FilterEnvelopesBatch (all
/// rows for a predicate that is not prunable).
/// `selected` records that the choice was made, so the rows the scalar
/// refine takes count as engine.columnar.fallbacks. The tree and
/// nested-loop candidates skip the rows before `min_row`: a symmetric
/// self-join's diagonal pair sets it to the probe row, so each unordered
/// pair of rows is a candidate once. (Only joins set it, and a join
/// source with slabs always has a tree.)
template <typename Rows, typename Tree = PackedRTree<size_t>,
          typename Key = ElementKey>
struct RowSource {
  static constexpr bool kSlabRows = true;
  using Row = typename std::remove_cv_t<Rows>::value_type;

  Rows* rows = nullptr;
  const Tree* tree = nullptr;
  std::shared_ptr<const ColumnarBatch> points = nullptr;
  bool selected = false;
  bool prune = false;
  Key key{};
  size_t min_row = 0;

  /// The kernel path's candidates, as row indices in candidate order.
  /// Without a tree: the rows whose envelope meets the probe, or every row
  /// when the predicate is not \p prunable.
  void Candidates(const Envelope& probe, bool prunable, TaskState* task,
                  std::vector<uint32_t>* cand) const {
    if (tree == nullptr) {
      if (prunable) {
        FilterEnvelopesBatch(points->envelopes(), probe, cand);
      } else {
        for (size_t e = min_row; e < rows->size(); ++e) {
          cand->push_back(static_cast<uint32_t>(e));
        }
      }
      return;
    }
    VisitTree(probe, task, [&](const Envelope&, const auto& e) {
      if (e >= min_row) cand->push_back(static_cast<uint32_t>(e));
    });
  }

  /// Calls fn(row) for each candidate row of the scalar refine.
  template <typename Fn>
  void ForEach(const Envelope& probe, TaskState* task, Fn&& fn) const {
    if (tree != nullptr) {
      VisitTree(probe, task, [&](const Envelope&, const auto& e) {
        if (e < min_row) return;
        if (selected) ++task->columnar.fallback_rows;
        fn((*rows)[e]);
      });
      return;
    }
    for (size_t e = min_row; e < rows->size(); ++e) {
      auto& row = (*rows)[e];
      if (prune && !probe.Intersects(key(row).envelope())) {
        ++task->prefilter_skips;
        continue;
      }
      if (selected) ++task->columnar.fallback_rows;
      fn(row);
    }
  }

 private:
  template <typename Visit>
  void VisitTree(const Envelope& probe, TaskState* task, Visit&& visit) const {
    if (!prune) {
      tree->ForEach(visit);
      return;
    }
    tree->Query(probe, visit);
    ++task->packed_probes;
  }
};

/// \brief A source over \p rows whose refine path SelectKernels picks for
/// \p pred, the slabs built at most once through \p slot: the scan
/// filter's partition (no tree; every row is a candidate, as the scan has
/// no prefilter) or a served epoch (its \p tree of row indices).
template <typename Rows, typename Tree = PackedRTree<size_t>,
          typename Key = ElementKey>
RowSource<Rows, Tree, Key> SelectSource(const JoinPredicate& pred, Rows* rows,
                                        PointSlabSlot* slot,
                                        const Tree* tree = nullptr,
                                        Key key = {}) {
  return {rows, tree,
          SelectKernels(pred, [&] { return slot->Points(*rows, key); }),
          /*selected=*/true,
          /*prune=*/tree != nullptr && pred.Prunable(), key};
}

/// A live index over a row vector: a packed R-tree of row indices, plus
/// the point slabs SelectKernels chose for the rows (null selects the
/// scalar refine).
struct RowIndex {
  PackedRTree<size_t> tree;
  std::shared_ptr<const ColumnarBatch> points;
};

template <typename T>
RowIndex BuildRowIndex(const std::vector<T>& rows, const JoinPredicate& pred,
                       size_t order) {
  std::vector<std::pair<Envelope, size_t>> entries;
  entries.reserve(rows.size());
  for (size_t e = 0; e < rows.size(); ++e) {
    entries.emplace_back(rows[e].first.envelope(), e);
  }
  RowIndex index;
  index.tree = PackedRTree<size_t>(order, std::move(entries));
  index.points = SelectKernels(pred, [&] {
    return ColumnarBatch::BuildPoints(rows, ElementKey{});
  });
  return index;
}

/// A join side's rows as a source: probed through \p index when there is
/// one, else the nested loop over every row, with the envelope prefilter
/// for a prunable \p pred.
template <typename T>
RowSource<const std::vector<T>> IndexedRows(const std::vector<T>* rows,
                                            const RowIndex* index,
                                            const JoinPredicate& pred) {
  if (index == nullptr) {
    return {rows, nullptr, nullptr, /*selected=*/false, pred.Prunable()};
  }
  return {rows, &index->tree, index->points, /*selected=*/true,
          /*prune=*/true};
}

/// \brief Candidate source over the cached trees of one IndexedSpatialRDD
/// partition, read in place: with `prune`, the elements each tree returns
/// for the probe envelope, else every element each holds. They hold
/// elements, not slab rows: always the scalar refine, outside the
/// engine.columnar.* counts.
template <typename T>
struct TreeListSource {
  static constexpr bool kSlabRows = false;
  static constexpr std::nullptr_t points = nullptr;
  using Row = T;

  const std::vector<std::shared_ptr<const PackedRTree<T>>>* trees = nullptr;
  bool prune = true;
  ElementKey key{};

  template <typename Fn>
  void ForEach(const Envelope& probe, TaskState* task, Fn&& fn) const {
    const auto visit = [&](const Envelope&, const T& row) { fn(row); };
    for (const auto& tree : *trees) {
      if (!prune) {
        tree->ForEach(visit);
        continue;
      }
      tree->Query(probe, visit);
      ++task->packed_probes;
    }
  }
};

/// Exact predicate with the candidate prepared through \p cache; custom
/// withinDistance functions bypass preparation.
inline bool EvalPreparedCandidate(const JoinPredicate& pred,
                                  const STObject& cand, const STObject& fixed,
                                  bool cand_left,
                                  PreparedGeometryCache* cache) {
  if (pred.type == PredicateType::kWithinDistance && pred.distance) {
    return cand_left ? pred.Eval(cand, fixed) : pred.Eval(fixed, cand);
  }
  const PreparedGeometry& prep = cache->Get(cand.geo());
  return cand_left ? EvalWithPreparedLeft(pred, cand, fixed, prep)
                   : EvalWithPreparedRight(pred, fixed, cand, prep);
}

namespace internal {

/// The kernel refine of the candidates in task->cand (rows of \p source's
/// point slabs) against \p fixed: counts and refines them, then calls
/// emit(row) for each survivor, in candidate order.
template <typename Source, typename Emit>
void RefineSlabCandidates(const JoinPredicate& pred, const Source& source,
                          const STObject& fixed, bool cand_left,
                          TaskState* task, Emit&& emit) {
  std::vector<uint32_t>& cand = task->cand;
  if (cand.empty()) return;
  const size_t in_count = cand.size();
  task->CountCandidates(in_count);
  const PreparedGeometry prep(fixed.geo());
  RefineCandidates(*source.points, pred, fixed, prep, cand_left, &cand,
                   &task->columnar, &task->scratch);
  task->prepared_misses += 1;
  task->prepared_hits += in_count - 1;
  for (const uint32_t e : cand) emit((*source.rows)[e]);
}

}  // namespace internal

/// \brief The one refine loop of every filter and join task: refines the
/// candidates \p source yields for \p fixed (its envelope grown by the
/// predicate margin is the probe) and calls emit(row) for each match, in
/// candidate order. The candidates fill the \p cand_left operand slot.
/// When the source carries point slabs the kernels refine them against
/// the prepared \p fixed (same survivors, same order as the scalar
/// refine). Otherwise the scalar refine prepares \p fixed once through a
/// BoundPredicate, or, with \p stable set, each candidate through that
/// cache. Every candidate is counted in \p task (see CountCandidates).
template <typename Source, typename Emit>
void RefineFixed(const JoinPredicate& pred, const Source& source,
                 const STObject& fixed, bool cand_left,
                 PreparedGeometryCache* stable, TaskState* task, Emit&& emit) {
  const Envelope probe = fixed.envelope().Expanded(pred.EnvelopeMargin());
  if constexpr (Source::kSlabRows) {
    if (source.points != nullptr) {
      task->cand.clear();
      source.Candidates(probe, pred.Prunable(), task, &task->cand);
      internal::RefineSlabCandidates(pred, source, fixed, cand_left, task,
                                     emit);
      return;
    }
  }
  if (stable != nullptr) {
    source.ForEach(probe, task, [&](auto& c) {
      task->CountCandidates(1);
      if (EvalPreparedCandidate(pred, source.key(c), fixed, cand_left,
                                stable)) {
        emit(c);
      }
    });
    return;
  }
  const BoundPredicate bound(pred, fixed,
                             cand_left ? BoundPredicate::Side::kCandidateLeft
                                       : BoundPredicate::Side::kCandidateRight);
  source.ForEach(probe, task, [&](auto& c) {
    task->CountCandidates(1);
    if (bound.Eval(source.key(c))) emit(c);
  });
  task->prepared_hits += bound.prepared_hits();
  task->prepared_misses += bound.prepared_misses();
}

namespace internal {

/// Whether \p row is non-empty and inside \p group on every bound (false
/// for a NaN bound).
inline bool InsideGroup(const Envelope& row, const Envelope& group) {
  return !row.IsEmpty() && row.min_x() >= group.min_x() &&
         row.min_y() >= group.min_y() && row.max_x() <= group.max_x() &&
         row.max_y() <= group.max_y();
}

}  // namespace internal

/// \brief RefineFixed over probe rows that have their own tree, one leaf
/// at a time (a symmetric point self-join): refines the rows [begin, end)
/// of \p probe, which \p probe_tree indexes, against \p source, which must
/// carry point slabs and a tree, and calls emit(candidate, probe_row) for
/// each match. A leaf's rows in range share one query of their box (the
/// leaf's box when the whole task is in range) grown by the predicate
/// margin, and each row keeps the listed candidates that pass the
/// FilterEnvelopesBatch test against its own grown envelope and lie at or
/// after its RowSource::min_row (the row itself on a \p diagonal pair).
/// The tree's DFS leaf order is fixed and the group box holds the row's
/// grown envelope, as rounding is monotone, so that is exactly the
/// candidate list of the row's own query, in its order. A row whose grown
/// envelope is empty or leaves the group box (a NaN bound) runs
/// RefineFixed alone. Rows are refined in \p probe_tree's storage order,
/// with a cooperative checkpoint every 1024 of them.
template <typename Source, typename P, typename Emit>
void RefineLeafGroups(const JoinPredicate& pred, Source source,
                      bool cand_left, const std::vector<P>& probe,
                      const PackedRTree<size_t>& probe_tree, size_t begin,
                      size_t end, bool diagonal, TaskState* task,
                      Emit&& emit) {
  const double margin = pred.EnvelopeMargin();
  const bool whole = begin == 0 && end == probe.size();
  size_t rows_seen = 0;
  probe_tree.ForEachLeaf([&](const Envelope& leaf_box, size_t lb,
                             size_t le) {
    // A skew-split sub-task groups only its own rows of the leaf. On a
    // diagonal pair no row keeps a candidate before the group's first row.
    Envelope box = whole ? leaf_box : Envelope();
    size_t first = end;
    for (size_t s = lb; s < le; ++s) {
      const size_t i = probe_tree.value_at(s);
      if (i < begin || i >= end) continue;
      first = std::min(first, i);
      if (!whole) box.ExpandToInclude(probe_tree.envelope_at(s));
    }
    if (first == end) return;
    const size_t floor = diagonal ? first : 0;
    const Envelope group = box.Expanded(margin);
    task->group_envs.Clear();
    task->group_rows.clear();
    if (!group.IsEmpty()) {
      source.tree->Query(group, [&](const Envelope& e, const size_t& row) {
        if (row < floor) return;
        task->group_envs.PushBack(e);
        task->group_rows.push_back(static_cast<uint32_t>(row));
      });
      ++task->packed_probes;
    }
    for (size_t s = lb; s < le; ++s) {
      const size_t i = probe_tree.value_at(s);
      if (i < begin || i >= end) continue;
      if ((rows_seen++ & 1023u) == 0) ThrowIfTaskCancelled();
      const P& p = probe[i];
      const auto emit_p = [&](const auto& c) { emit(c, p); };
      if (diagonal) source.min_row = i;
      const Envelope row = p.first.envelope().Expanded(margin);
      if (!internal::InsideGroup(row, group)) {
        RefineFixed(pred, source, p.first, cand_left, nullptr, task, emit_p);
        continue;
      }
      task->cand.clear();
      FilterEnvelopeRowsBatch(task->group_envs, task->group_rows.data(), row,
                              static_cast<uint32_t>(source.min_row),
                              &task->cand);
      internal::RefineSlabCandidates(pred, source, p.first, cand_left, task,
                                     emit_p);
    }
  });
}

/// \brief Closes one filter task (a partition of a SpatialRDD or
/// IndexedSpatialRDD filter, or a served snapshot filter), the filters'
/// counterpart of the join's FinishTask. Flushes \p task, adds
/// \p candidates and \p results to the site's \p counters and to \p query
/// (when non-null), and counts the partition as scanned when \p scanned
/// and the site keeps that count. With \p annotate the task span gets the
/// refine figures, e.g. "packed_probes=4 prepared=71/4".
inline void FinishFilterTask(const FilterMetricSet& counters,
                             QueryStats* query, bool scanned,
                             size_t candidates, size_t results,
                             const TaskState& task, bool annotate) {
  task.Flush();
  if (query != nullptr) {
    if (scanned) ++query->partitions_scanned;
    query->candidates += candidates;
    query->results += results;
  }
  if (scanned && counters.partitions_scanned != nullptr) {
    counters.partitions_scanned->Increment();
  }
  counters.candidates->Add(candidates);
  counters.results->Add(results);
  if (!annotate) return;
  if (obs::TaskSpan* span = obs::CurrentTaskSpan()) {
    span->detail = "packed_probes=" + std::to_string(task.packed_probes) +
                   " prepared=" + std::to_string(task.prepared_hits) + "/" +
                   std::to_string(task.prepared_misses);
    span->records_in = candidates;
    span->records_out = results;
    span->candidates = candidates;
    span->refined = results;
  }
}

}  // namespace columnar_refine
}  // namespace stark

#endif  // STARK_SPATIAL_RDD_COLUMNAR_REFINE_H_
