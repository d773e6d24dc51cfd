/// \file columnar_refine.h
/// Chooses between the batched point kernels and the scalar BoundPredicate
/// refine, and runs the kernel side.
///
/// SelectKernels is the one place that makes that choice, per batch, from
/// properties of the input the code can observe: the kernels run iff the
/// predicate is kernel-refinable (no custom distance function) and every
/// row on the batched side is a point. Every other batch goes through the
/// call site's scalar BoundPredicate loop. RefineCandidates refines a
/// candidate list (row indices into the point slabs, e.g. the survivors of
/// FilterEnvelopesBatch or an R-tree probe) against one fixed prepared
/// operand, with results and emission order exactly equal to per-candidate
/// BoundPredicate::Eval calls, so either path yields the same output.
#ifndef STARK_SPATIAL_RDD_COLUMNAR_REFINE_H_
#define STARK_SPATIAL_RDD_COLUMNAR_REFINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/columnar.h"
#include "geometry/kernels.h"
#include "spatial_rdd/predicate.h"

namespace stark {
namespace columnar_refine {

/// Picks the refine path for one batch. Returns the point slabs the kernels
/// read iff \p pred is kernel-refinable and every row on the batched side
/// is a point; null means the caller refines with its scalar
/// BoundPredicate loop. \p points_of yields the batched side's slabs —
/// ColumnarBatch::BuildPoints, possibly behind a cache — and is called only
/// for a kernel-refinable predicate. Custom withinDistance functions
/// interrogate whole STObjects and never go through preparation, so the
/// kernels cannot evaluate them.
template <typename PointsFn>
std::shared_ptr<const ColumnarBatch> SelectKernels(const JoinPredicate& pred,
                                                   PointsFn&& points_of) {
  if (pred.type == PredicateType::kWithinDistance && pred.distance != nullptr) {
    return nullptr;
  }
  return points_of();
}

/// Candidate rows refined per path at one site; flushed into
/// engine.columnar.{rows,fallbacks} once per task.
struct Stats {
  size_t kernel_rows = 0;
  size_t fallback_rows = 0;

  void Flush() const {
    const ColumnarMetricSet& m = GlobalColumnarMetrics();
    m.rows->Add(kernel_rows);
    m.fallbacks->Add(fallback_rows);
  }
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

}  // namespace columnar_refine
}  // namespace stark

#endif  // STARK_SPATIAL_RDD_COLUMNAR_REFINE_H_
