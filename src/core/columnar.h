/// \file columnar.h
/// Point slabs for the batched refine kernels: one ColumnarBatch holds an
/// all-point batch of STObjects as structure-of-arrays — coordinate,
/// timestamp and envelope slabs — so the refine kernels scan dense arrays
/// instead of pointer-chasing heap objects.
///
/// Only all-point batches exist: the build gives up at the first non-point
/// row, and columnar_refine::SelectKernels uses exactly that outcome to pick
/// kernel or scalar refinement. The objects stay the one data plane; a batch
/// is a read-only companion of a partition, never stored or shipped.
#ifndef STARK_CORE_COLUMNAR_H_
#define STARK_CORE_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/stobject.h"
#include "geometry/kernels.h"
#include "obs/metrics.h"

namespace stark {

namespace columnar {

/// Always true. There is no switch: the kernels are chosen per batch from
/// the data (see columnar_refine::SelectKernels). Kept for callers that
/// record the plane in run metadata.
inline bool Enabled() { return true; }

}  // namespace columnar

/// Coverage counters for the batch kernels, mirrored into the global
/// registry (engine.columnar.*) and bumped batched per task:
/// - batches: point-slab builds (ColumnarBatch::BuildPoints successes).
/// - rows: candidate rows refined by the batch kernels.
/// - fallbacks: candidate rows handed to the scalar BoundPredicate refine at
///   a site that considered the kernels (a non-point row on the batched
///   side, or a custom distance function).
/// - slab_reuse: refines served by an already-built slab instead of
///   rebuilding it.
struct ColumnarMetricSet {
  obs::Counter* batches;
  obs::Counter* rows;
  obs::Counter* fallbacks;
  obs::Counter* slab_reuse;
};

inline const ColumnarMetricSet& GlobalColumnarMetrics() {
  static const ColumnarMetricSet metrics = [] {
    obs::MetricsRegistry& m = obs::DefaultMetrics();
    return ColumnarMetricSet{
        m.GetCounter("engine.columnar.batches"),
        m.GetCounter("engine.columnar.rows"),
        m.GetCounter("engine.columnar.fallbacks"),
        m.GetCounter("engine.columnar.slab_reuse"),
    };
  }();
  return metrics;
}

/// \brief SoA point slabs of one batch of STObjects, row i = item i.
///
/// Every row has its point coordinate in x/y, a has_time flag with
/// start/end ticks (0/0 when untimed) and the object's envelope in the
/// EnvelopeSoA slab, bit-identical to STObject::envelope() (a NaN point
/// keeps the empty-envelope sentinel).
class ColumnarBatch {
 public:
  /// Builds the point slabs of \p items, extracting the STObject per item
  /// with \p obj_of (e.g. `[](const Element& e) -> const STObject& { return
  /// e.first; }`). Returns null — and stops reading — at the first item
  /// whose geometry is not a single point; also null for an empty or
  /// uint32-overflowing container, which the kernels cannot index.
  template <typename Container, typename Fn>
  static std::shared_ptr<const ColumnarBatch> BuildPoints(
      const Container& items, Fn&& obj_of) {
    if (items.empty() || items.size() > UINT32_MAX) return nullptr;
    auto b = std::make_shared<ColumnarBatch>();
    b->Reserve(items.size());
    for (const auto& item : items) {
      if (!b->AppendPoint(obj_of(item))) return nullptr;
    }
    GlobalColumnarMetrics().batches->Increment();
    return b;
  }

  size_t rows() const { return x_.size(); }

  // -- slab views (contiguous, unit-stride) --------------------------------
  const std::vector<double>& x() const { return x_; }
  const std::vector<double>& y() const { return y_; }
  const std::vector<uint8_t>& has_time() const { return has_time_; }
  const std::vector<int64_t>& t_start() const { return t_start_; }
  const std::vector<int64_t>& t_end() const { return t_end_; }
  const EnvelopeSoA& envelopes() const { return envs_; }

 private:
  void Reserve(size_t rows) {
    x_.reserve(rows);
    y_.reserve(rows);
    has_time_.reserve(rows);
    t_start_.reserve(rows);
    t_end_.reserve(rows);
    envs_.Reserve(rows);
  }

  /// Appends \p obj as the next row; false (nothing appended) when its
  /// geometry is not a single point.
  bool AppendPoint(const STObject& obj) {
    if (!obj.geo().IsPoint()) return false;
    const Coordinate& c = obj.geo().AsPoint();
    const bool timed = obj.HasTime();
    x_.push_back(c.x);
    y_.push_back(c.y);
    has_time_.push_back(timed ? 1 : 0);
    t_start_.push_back(timed ? obj.time()->start() : 0);
    t_end_.push_back(timed ? obj.time()->end() : 0);
    envs_.PushBack(obj.envelope());
    return true;
  }

  std::vector<double> x_, y_;
  std::vector<uint8_t> has_time_;
  std::vector<int64_t> t_start_, t_end_;
  EnvelopeSoA envs_;
};

/// \brief The lazily built point slabs of one stable batch of rows: a
/// SpatialRDD partition or a serve epoch.
///
/// Built on the first request and shared by every later one
/// (engine.columnar.slab_reuse). A batch with a non-point row has no slabs,
/// and that outcome is kept too, so it is not rescanned. The slot is
/// revalidated against the batch's row count (partition contents are
/// stable because lineage recomputation is deterministic, and epochs are
/// immutable). An empty batch, e.g. a pruned partition, has no slabs and
/// leaves the slot as it is.
class PointSlabSlot {
 public:
  /// The point slabs of \p items (STObject per item via \p obj_of, as in
  /// ColumnarBatch::BuildPoints), or null when one of them is not a point.
  template <typename Container, typename Fn>
  std::shared_ptr<const ColumnarBatch> Points(const Container& items,
                                              Fn&& obj_of) {
    if (items.empty()) return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    if (rows_ == items.size()) {
      if (points_ != nullptr) GlobalColumnarMetrics().slab_reuse->Increment();
      return points_;
    }
    points_ = ColumnarBatch::BuildPoints(items, obj_of);
    rows_ = items.size();
    return points_;
  }

 private:
  std::mutex mu_;
  size_t rows_ = 0;  // rows of the batch points_ describes; 0 = unbuilt
  std::shared_ptr<const ColumnarBatch> points_;
};

}  // namespace stark

#endif  // STARK_CORE_COLUMNAR_H_
