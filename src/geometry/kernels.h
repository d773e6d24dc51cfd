/// \file kernels.h
/// Low-level computational-geometry primitives used by the predicate layer:
/// orientation tests, segment intersection, point-in-ring, and distances.
#ifndef STARK_GEOMETRY_KERNELS_H_
#define STARK_GEOMETRY_KERNELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/coordinate.h"
#include "geometry/envelope.h"

namespace stark {

/// A closed ring is a coordinate sequence whose first and last entries are
/// equal; used as polygon shells and holes.
using Ring = std::vector<Coordinate>;

/// Tolerance of the segment tests: Orientation calls a turn collinear when
/// |cross| <= kSegmentEps * scale^2, and PointOnSegment grows the segment's
/// box by kSegmentEps on every side.
inline constexpr double kSegmentEps = 1e-12;

/// \brief A segment's bounding box grown by kSegmentEps on every side.
///
/// PointOnSegment accepts a point only inside this box, SegmentsIntersect
/// rejects segments whose boxes do not overlap, and the boundary loops in
/// predicates_impl.h skip those pairs early. All build it with
/// GrownSegmentBox, so the skip sees exactly the doubles the segment tests
/// compare against.
struct SegmentBox {
  double min_x, min_y, max_x, max_y;

  /// PointOnSegment's box condition. False for a NaN coordinate.
  bool Contains(const Coordinate& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  /// False only when a comparison proves the boxes apart: written in the
  /// negated !(a > b) form, so a NaN bound never separates two boxes.
  bool Overlaps(const SegmentBox& o) const {
    return !(min_x > o.max_x) & !(o.min_x > max_x) & !(min_y > o.max_y) &
           !(o.min_y > max_y);
  }
};

/// The box of segment [a, b] grown by kSegmentEps.
inline SegmentBox GrownSegmentBox(const Coordinate& a, const Coordinate& b) {
  return {std::min(a.x, b.x) - kSegmentEps, std::min(a.y, b.y) - kSegmentEps,
          std::max(a.x, b.x) + kSegmentEps, std::max(a.y, b.y) + kSegmentEps};
}

/// Sign of the cross product (b-a) x (c-a): >0 counter-clockwise turn,
/// <0 clockwise, 0 collinear (within kSegmentEps, scaled).
int Orientation(const Coordinate& a, const Coordinate& b, const Coordinate& c);

/// True iff \p p lies on the closed segment [a, b]: inside the grown box
/// and collinear with the segment.
bool PointOnSegment(const Coordinate& p, const Coordinate& a,
                    const Coordinate& b);

/// True iff segments [p1,p2] and [q1,q2] share at least one point
/// (including endpoint touches and collinear overlap).
///
/// Tolerance rule: the segments' grown boxes (GrownSegmentBox) must
/// overlap. Then, with o1..o4 the orientations of q1, q2 against p and of
/// p1, p2 against q, they intersect if o1 != o2 and o3 != o4 — a crossing,
/// or a touch within Orientation's tolerance — or if an endpoint with a
/// zero orientation passes PointOnSegment. An orientation of 0 means
/// "within tolerance of the other segment's line", which for nearly
/// collinear segments holds far along it; the box test keeps such
/// segments apart when they are apart along the line. Every true result
/// therefore has overlapping grown boxes, which is what lets the boundary
/// loops in predicates_impl.h skip pairs whose boxes miss.
bool SegmentsIntersect(const Coordinate& p1, const Coordinate& p2,
                       const Coordinate& q1, const Coordinate& q2);

/// Point-in-ring classification result.
enum class RingLocation { kInside, kBoundary, kOutside };

/// Ray-casting point-in-ring test; the ring must be closed.
RingLocation LocateInRing(const Coordinate& p, const Ring& ring);

/// Minimum distance from \p p to the closed segment [a, b].
double DistancePointSegment(const Coordinate& p, const Coordinate& a,
                            const Coordinate& b);

/// Minimum distance between segments [p1,p2] and [q1,q2]; 0 if they touch.
double DistanceSegmentSegment(const Coordinate& p1, const Coordinate& p2,
                              const Coordinate& q1, const Coordinate& q2);

/// Signed area of a closed ring (positive if counter-clockwise).
double SignedRingArea(const Ring& ring);

/// Centroid of a closed ring by the standard area-weighted formula. Falls
/// back to the vertex mean for degenerate (zero-area) rings.
Coordinate RingCentroid(const Ring& ring);

// ---------------------------------------------------------------------------
// Batched envelope kernels (SoA hot path)
// ---------------------------------------------------------------------------

/// Structure-of-arrays envelope storage: four parallel coordinate arrays
/// instead of an array of Envelope structs. The packed R-tree and the
/// batched filter kernel below read these with unit stride, so a leaf scan
/// touches four dense cache lines instead of pointer-chased nodes.
struct EnvelopeSoA {
  std::vector<double> min_x, min_y, max_x, max_y;

  size_t size() const { return min_x.size(); }
  bool empty() const { return min_x.empty(); }

  void Reserve(size_t n) {
    min_x.reserve(n);
    min_y.reserve(n);
    max_x.reserve(n);
    max_y.reserve(n);
  }

  void PushBack(const Envelope& e) {
    min_x.push_back(e.min_x());
    min_y.push_back(e.min_y());
    max_x.push_back(e.max_x());
    max_y.push_back(e.max_y());
  }

  Envelope Get(size_t i) const {
    return Envelope(min_x[i], min_y[i], max_x[i], max_y[i]);
  }

  void Clear() {
    min_x.clear();
    min_y.clear();
    max_x.clear();
    max_y.clear();
  }
};

/// \brief Branchless AABB filter over SoA envelope arrays.
///
/// Writes the indices of all envelopes intersecting the query window
/// [qmin_x,qmax_x]x[qmin_y,qmax_y] into \p out_indices (which must have room
/// for \p count entries) and returns how many matched. Decision-equivalent
/// to Envelope::Intersects for every finite envelope: the test is written in
/// the negated !(a > b) form so an empty (inverted) stored envelope never
/// matches. The loop body is branch-free — the hit bit is accumulated into
/// the output cursor instead of taken as a branch — so the CPU never
/// mispredicts on selectivity changes.
inline size_t FilterEnvelopesBatch(const double* min_x, const double* min_y,
                                   const double* max_x, const double* max_y,
                                   size_t count, double qmin_x, double qmin_y,
                                   double qmax_x, double qmax_y,
                                   uint32_t* out_indices) {
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    // Non-short-circuit & keeps the compare chain free of branches.
    const bool hit =
        !(min_x[i] > qmax_x) & !(max_x[i] < qmin_x) & !(min_y[i] > qmax_y) &
        !(max_y[i] < qmin_y);
    out_indices[n] = static_cast<uint32_t>(i);
    n += static_cast<size_t>(hit);
  }
  return n;
}

/// Convenience overload over EnvelopeSoA; appends matches to \p out.
/// Returns the number of matches. An empty \p query matches nothing,
/// mirroring Envelope::Intersects.
size_t FilterEnvelopesBatch(const EnvelopeSoA& envs, const Envelope& query,
                            std::vector<uint32_t>* out);

/// The same test over a gathered candidate list, where \p envs[i] is the
/// envelope of row \p rows[i]: appends to \p out, in list order, every row
/// at or after \p min_row whose envelope passes it, and returns how many.
/// An empty \p query matches nothing.
inline size_t FilterEnvelopeRowsBatch(const EnvelopeSoA& envs,
                                      const uint32_t* rows,
                                      const Envelope& query, uint32_t min_row,
                                      std::vector<uint32_t>* out) {
  if (query.IsEmpty() || envs.empty()) return 0;
  const size_t base = out->size();
  out->resize(base + envs.size());
  uint32_t* dst = out->data() + base;
  const double qmin_x = query.min_x();
  const double qmin_y = query.min_y();
  const double qmax_x = query.max_x();
  const double qmax_y = query.max_y();
  size_t n = 0;
  for (size_t i = 0; i < envs.size(); ++i) {
    const bool hit = !(envs.min_x[i] > qmax_x) & !(envs.max_x[i] < qmin_x) &
                     !(envs.min_y[i] > qmax_y) & !(envs.max_y[i] < qmin_y) &
                     (rows[i] >= min_row);
    dst[n] = rows[i];
    n += static_cast<size_t>(hit);
  }
  out->resize(base + n);
  return n;
}

// ---------------------------------------------------------------------------
// Batched refinement kernels (point slabs)
// ---------------------------------------------------------------------------
//
// These kernels consume ColumnarBatch slabs directly: \p px / \p py are the
// per-row point coordinate arrays and \p cand is a list of row indices
// (typically the survivors of FilterEnvelopesBatch). Each kernel writes the
// surviving indices to \p out (which must have room for \p count entries),
// preserving the input candidate order, and returns how many survived. Like
// FilterEnvelopesBatch, the loops are compaction-style — the hit bit advances
// the output cursor instead of being taken as a branch — so selectivity
// changes never cost mispredictions in the loop itself.
//
// Exactness contract: each spatial kernel evaluates the *same arithmetic* as
// the corresponding PreparedGeometry point predicate (which in turn is
// bit-identical to the plain predicates), so batch and scalar refinement
// agree on every row, including NaN coordinates. When prep's geometry is
// itself a point, each kernel runs an inline point-vs-point loop instead of
// one PreparedGeometry call per candidate: the same envelope prefilter, the
// same PointsEqual (kPointEps) test, and for distance the same
// std::min(+inf, p.DistanceTo(q)) fold, in the same operand order — so its
// survivors equal those of the per-candidate calls, bit for bit. The
// kernels are only valid for rows whose geometry is a single point;
// columnar_refine::SelectKernels sends every batch with a non-point row to
// the scalar refine instead.

class PreparedGeometry;
enum class TemporalPredicate;

/// Keeps candidates whose point intersects prep's geometry — row i survives
/// iff `prep.IntersectsPoint({px[i], py[i]})`, i.e. exactly
/// `Intersects(MakePoint(p), prep.geometry())`.
size_t RefineIntersectsBatch(const PreparedGeometry& prep, const double* px,
                             const double* py, const uint32_t* cand,
                             size_t count, uint32_t* out);

/// Keeps candidates whose point is contained in prep's geometry — row i
/// survives iff `prep.ContainsPoint(p)`, i.e. `Contains(prep.geometry(), p)`.
size_t RefineContainsBatch(const PreparedGeometry& prep, const double* px,
                           const double* py, const uint32_t* cand,
                           size_t count, uint32_t* out);

/// Keeps candidates whose point contains prep's geometry (only possible when
/// prep is itself point-like) — row i survives iff
/// `prep.ContainedByPoint(p)`, i.e. `Contains(MakePoint(p), prep.geometry())`.
size_t RefineContainedByBatch(const PreparedGeometry& prep, const double* px,
                              const double* py, const uint32_t* cand,
                              size_t count, uint32_t* out);

/// Keeps candidates whose point lies within \p max_distance of prep's
/// geometry — row i survives iff `prep.DistanceFromPoint(p) <= max_distance`
/// (identical doubles to `Distance(MakePoint(p), prep.geometry())`). That
/// distance is +inf, not NaN, for a NaN coordinate, so such a row survives
/// a max_distance of +inf.
size_t RefineWithinDistanceBatch(const PreparedGeometry& prep,
                                 const double* px, const double* py,
                                 const uint32_t* cand, size_t count,
                                 double max_distance, uint32_t* out);

/// \brief Branchless combined-temporal batch kernel over timestamp slabs.
///
/// Implements the temporal half of the paper's combined rule (formulas
/// (1)-(3)) for one fixed query interval against a batch: a row survives iff
/// both sides are untimed, or both are timed and the temporal predicate
/// holds between them. A timed/untimed mix never survives. Rows are timed
/// when `has_time[i] != 0`; the t_start/t_end slab values of untimed rows
/// are ignored. \p query_is_left picks which operand the query interval
/// fills in EvalTemporalPredicate(pred, left, right); kIntersects is
/// symmetric, kContains/kContainedBy are not.
size_t TemporalOverlapBatch(const int64_t* t_start, const int64_t* t_end,
                            const uint8_t* has_time, bool query_has_time,
                            int64_t query_start, int64_t query_end,
                            TemporalPredicate pred, bool query_is_left,
                            const uint32_t* cand, size_t count, uint32_t* out);

}  // namespace stark

#endif  // STARK_GEOMETRY_KERNELS_H_
