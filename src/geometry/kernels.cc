#include "geometry/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/predicates_impl.h"
#include "geometry/prepared.h"
#include "temporal/interval.h"

namespace stark {

int Orientation(const Coordinate& a, const Coordinate& b,
                const Coordinate& c) {
  const double cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
  // Scale the tolerance by the magnitude of the operands so that both tiny
  // and planet-scale coordinates classify near-collinear points as collinear.
  const double scale = std::max({std::abs(b.x - a.x), std::abs(b.y - a.y),
                                 std::abs(c.x - a.x), std::abs(c.y - a.y),
                                 1.0});
  if (std::abs(cross) <= kSegmentEps * scale * scale) return 0;
  return cross > 0 ? 1 : -1;
}

bool PointOnSegment(const Coordinate& p, const Coordinate& a,
                    const Coordinate& b) {
  // Both tests are pure, so checking the cheap box first only saves the
  // Orientation call for points away from the segment.
  return GrownSegmentBox(a, b).Contains(p) && Orientation(a, b, p) == 0;
}

bool SegmentsIntersect(const Coordinate& p1, const Coordinate& p2,
                       const Coordinate& q1, const Coordinate& q2) {
  // Segments that share a point have overlapping grown boxes. Without this
  // test, tolerance zeros such as (-1, 0, -1, 0) below would pass the
  // crossing test for nearly collinear segments far apart on their line.
  if (!GrownSegmentBox(p1, p2).Overlaps(GrownSegmentBox(q1, q2))) {
    return false;
  }

  const int o1 = Orientation(p1, p2, q1);
  const int o2 = Orientation(p1, p2, q2);
  const int o3 = Orientation(q1, q2, p1);
  const int o4 = Orientation(q1, q2, p2);

  if (o1 != o2 && o3 != o4) return true;  // crossing, or a touch in tolerance

  // Collinear / endpoint-touch cases.
  if (o1 == 0 && PointOnSegment(q1, p1, p2)) return true;
  if (o2 == 0 && PointOnSegment(q2, p1, p2)) return true;
  if (o3 == 0 && PointOnSegment(p1, q1, q2)) return true;
  if (o4 == 0 && PointOnSegment(p2, q1, q2)) return true;
  return false;
}

RingLocation LocateInRing(const Coordinate& p, const Ring& ring) {
  if (ring.size() < 4) return RingLocation::kOutside;  // not a valid ring
  bool inside = false;
  for (size_t i = 0, n = ring.size() - 1; i < n; ++i) {
    const Coordinate& a = ring[i];
    const Coordinate& b = ring[i + 1];
    if (PointOnSegment(p, a, b)) return RingLocation::kBoundary;
    // Standard ray cast: count edges crossing the horizontal ray to +x.
    const bool crosses =
        ((a.y > p.y) != (b.y > p.y)) &&
        (p.x < (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x);
    if (crosses) inside = !inside;
  }
  return inside ? RingLocation::kInside : RingLocation::kOutside;
}

double DistancePointSegment(const Coordinate& p, const Coordinate& a,
                            const Coordinate& b) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double len2 = dx * dx + dy * dy;
  if (len2 == 0.0) return p.DistanceTo(a);
  double t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / len2;
  t = std::clamp(t, 0.0, 1.0);
  const Coordinate proj{a.x + t * dx, a.y + t * dy};
  return p.DistanceTo(proj);
}

double DistanceSegmentSegment(const Coordinate& p1, const Coordinate& p2,
                              const Coordinate& q1, const Coordinate& q2) {
  if (SegmentsIntersect(p1, p2, q1, q2)) return 0.0;
  return std::min({DistancePointSegment(p1, q1, q2),
                   DistancePointSegment(p2, q1, q2),
                   DistancePointSegment(q1, p1, p2),
                   DistancePointSegment(q2, p1, p2)});
}

double SignedRingArea(const Ring& ring) {
  double area = 0.0;
  for (size_t i = 0; i + 1 < ring.size(); ++i) {
    area += ring[i].x * ring[i + 1].y - ring[i + 1].x * ring[i].y;
  }
  return area / 2.0;
}

size_t FilterEnvelopesBatch(const EnvelopeSoA& envs, const Envelope& query,
                            std::vector<uint32_t>* out) {
  if (query.IsEmpty() || envs.empty()) return 0;
  const size_t base = out->size();
  out->resize(base + envs.size());
  const size_t n = FilterEnvelopesBatch(
      envs.min_x.data(), envs.min_y.data(), envs.max_x.data(),
      envs.max_y.data(), envs.size(), query.min_x(), query.min_y(),
      query.max_x(), query.max_y(), out->data() + base);
  out->resize(base + n);
  return n;
}

namespace {

using pred_internal::PointEnvelope;
using pred_internal::PointsEqual;

/// The compaction loop every point-slab kernel runs: candidate j survives
/// iff hit({px[j], py[j]}), in candidate order.
template <typename Hit>
size_t CompactPoints(const double* px, const double* py, const uint32_t* cand,
                     size_t count, uint32_t* out, const Hit& hit) {
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t j = cand[i];
    const bool keep = hit(Coordinate{px[j], py[j]});
    out[n] = j;
    n += static_cast<size_t>(keep);
  }
  return n;
}

}  // namespace

// Each kernel takes one branch per batch. When the prepared operand is a
// point q, its one part is a point, so PreparedGeometry's method reduces to
// the envelope prefilter plus PointsEqual (or, for distance, PointsEqual
// then p.DistanceTo(q)); the point loops spell out exactly that arithmetic,
// in the same operand order, and skip the per-candidate part dispatch.

size_t RefineIntersectsBatch(const PreparedGeometry& prep, const double* px,
                             const double* py, const uint32_t* cand,
                             size_t count, uint32_t* out) {
  const Geometry& g = prep.geometry();
  if (g.IsPoint()) {
    const Coordinate q = g.AsPoint();
    const Envelope& env = g.envelope();
    return CompactPoints(px, py, cand, count, out, [&](const Coordinate& p) {
      return PointEnvelope(p).Intersects(env) && PointsEqual(p, q);
    });
  }
  return CompactPoints(px, py, cand, count, out, [&](const Coordinate& p) {
    return prep.IntersectsPoint(p);
  });
}

size_t RefineContainsBatch(const PreparedGeometry& prep, const double* px,
                           const double* py, const uint32_t* cand,
                           size_t count, uint32_t* out) {
  const Geometry& g = prep.geometry();
  if (g.IsPoint()) {
    const Coordinate q = g.AsPoint();
    const Envelope& env = g.envelope();
    return CompactPoints(px, py, cand, count, out, [&](const Coordinate& p) {
      return env.Contains(PointEnvelope(p)) && PointsEqual(q, p);
    });
  }
  return CompactPoints(px, py, cand, count, out, [&](const Coordinate& p) {
    return prep.ContainsPoint(p);
  });
}

size_t RefineContainedByBatch(const PreparedGeometry& prep, const double* px,
                              const double* py, const uint32_t* cand,
                              size_t count, uint32_t* out) {
  const Geometry& g = prep.geometry();
  if (g.IsPoint()) {
    const Coordinate q = g.AsPoint();
    const Envelope& env = g.envelope();
    return CompactPoints(px, py, cand, count, out, [&](const Coordinate& p) {
      return PointEnvelope(p).Contains(env) && PointsEqual(p, q);
    });
  }
  return CompactPoints(px, py, cand, count, out, [&](const Coordinate& p) {
    return prep.ContainedByPoint(p);
  });
}

size_t RefineWithinDistanceBatch(const PreparedGeometry& prep,
                                 const double* px, const double* py,
                                 const uint32_t* cand, size_t count,
                                 double max_distance, uint32_t* out) {
  // <= mirrors JoinPredicate::Eval. A distance is folded into
  // std::min(+inf, d) as DistanceFromPoint does, so a NaN coordinate gives
  // +inf, not NaN: such a row survives only max_distance == +inf, exactly
  // like the scalar path, and a NaN max_distance keeps no row.
  const Geometry& g = prep.geometry();
  if (g.IsPoint()) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const Coordinate q = g.AsPoint();
    return CompactPoints(px, py, cand, count, out, [&](const Coordinate& p) {
      const double d = PointsEqual(p, q) ? 0.0 : p.DistanceTo(q);
      return std::min(kInf, d) <= max_distance;
    });
  }
  return CompactPoints(px, py, cand, count, out, [&](const Coordinate& p) {
    return prep.DistanceFromPoint(p) <= max_distance;
  });
}

size_t TemporalOverlapBatch(const int64_t* t_start, const int64_t* t_end,
                            const uint8_t* has_time, bool query_has_time,
                            int64_t query_start, int64_t query_end,
                            TemporalPredicate pred, bool query_is_left,
                            const uint32_t* cand, size_t count,
                            uint32_t* out) {
  const bool qt = query_has_time;
  size_t n = 0;
  // The predicate dispatch and operand orientation are loop-invariant, so
  // each case runs its own branch-free compaction loop. `ok` replicates
  // TemporalInterval::Intersects / Contains with non-short-circuit &.
  switch (pred) {
    case TemporalPredicate::kIntersects:
      for (size_t i = 0; i < count; ++i) {
        const uint32_t j = cand[i];
        const bool rt = has_time[j] != 0;
        const bool ok =
            (t_start[j] <= query_end) & (query_start <= t_end[j]);
        const bool hit = (!rt & !qt) | (rt & qt & ok);
        out[n] = j;
        n += static_cast<size_t>(hit);
      }
      break;
    case TemporalPredicate::kContains:
    case TemporalPredicate::kContainedBy: {
      // Normalize to "a contains b". kContainedBy flips the operands, and
      // query_is_left flips them again, so the row sits on the container
      // side iff exactly one flip applies.
      const bool row_contains =
          (pred == TemporalPredicate::kContains) != query_is_left;
      for (size_t i = 0; i < count; ++i) {
        const uint32_t j = cand[i];
        const bool rt = has_time[j] != 0;
        const bool ok =
            row_contains
                ? (t_start[j] <= query_start) & (query_end <= t_end[j])
                : (query_start <= t_start[j]) & (t_end[j] <= query_end);
        const bool hit = (!rt & !qt) | (rt & qt & ok);
        out[n] = j;
        n += static_cast<size_t>(hit);
      }
      break;
    }
  }
  return n;
}

Coordinate RingCentroid(const Ring& ring) {
  const double area = SignedRingArea(ring);
  if (std::abs(area) < 1e-30) {
    // Degenerate ring: fall back to the vertex mean (skip the closing point).
    Coordinate mean{0.0, 0.0};
    const size_t n = ring.size() > 1 ? ring.size() - 1 : ring.size();
    if (n == 0) return mean;
    for (size_t i = 0; i < n; ++i) {
      mean.x += ring[i].x;
      mean.y += ring[i].y;
    }
    mean.x /= static_cast<double>(n);
    mean.y /= static_cast<double>(n);
    return mean;
  }
  double cx = 0.0;
  double cy = 0.0;
  for (size_t i = 0; i + 1 < ring.size(); ++i) {
    const double f = ring[i].x * ring[i + 1].y - ring[i + 1].x * ring[i].y;
    cx += (ring[i].x + ring[i + 1].x) * f;
    cy += (ring[i].y + ring[i + 1].y) * f;
  }
  return {cx / (6.0 * area), cy / (6.0 * area)};
}

}  // namespace stark
