/// \file predicates_impl.h
/// Internal building blocks shared by predicates.cc and prepared.cc: the
/// decomposition of (multi) geometries into simple parts and the exact
/// part-vs-part predicate kernels. Not part of the public geometry API —
/// include predicates.h / prepared.h instead.
///
/// PreparedGeometry must return *bit-identical* results to the plain
/// predicate entry points, so both compile against this single definition
/// of the arithmetic; any accelerated path in prepared.cc replicates these
/// formulas exactly over its cached layout.
#ifndef STARK_GEOMETRY_PREDICATES_IMPL_H_
#define STARK_GEOMETRY_PREDICATES_IMPL_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "geometry/geometry.h"
#include "geometry/kernels.h"
#include "geometry/predicates.h"

namespace stark {
namespace pred_internal {

constexpr double kPointEps = 1e-12;

inline bool PointsEqual(const Coordinate& a, const Coordinate& b) {
  return std::abs(a.x - b.x) <= kPointEps && std::abs(a.y - b.y) <= kPointEps;
}

/// The envelope a point Geometry carries: grown from the empty envelope
/// with ExpandToInclude, so a NaN coordinate yields the *empty* sentinel
/// (exactly like Geometry's constructor), not a NaN-filled box.
inline Envelope PointEnvelope(const Coordinate& p) {
  Envelope env;
  env.ExpandToInclude(p);
  return env;
}

/// A non-owning view of one simple component of a (possibly multi) geometry.
struct SimplePart {
  GeometryType type;  // kPoint, kLineString or kPolygon
  Coordinate point{};
  const std::vector<Coordinate>* line = nullptr;
  const PolygonData* poly = nullptr;
};

inline std::vector<SimplePart> Decompose(const Geometry& g) {
  std::vector<SimplePart> parts;
  switch (g.type()) {
    case GeometryType::kPoint:
      parts.push_back({GeometryType::kPoint, g.AsPoint(), nullptr, nullptr});
      break;
    case GeometryType::kMultiPoint:
      for (const auto& c : g.coordinates()) {
        parts.push_back({GeometryType::kPoint, c, nullptr, nullptr});
      }
      break;
    case GeometryType::kLineString:
      parts.push_back(
          {GeometryType::kLineString, {}, &g.coordinates(), nullptr});
      break;
    case GeometryType::kPolygon:
    case GeometryType::kMultiPolygon:
      for (const auto& poly : g.polygons()) {
        parts.push_back({GeometryType::kPolygon, {}, nullptr, &poly});
      }
      break;
  }
  return parts;
}

/// Applies \p fn to every segment (a, b) of a ring or line.
template <typename Fn>
bool AnySegment(const std::vector<Coordinate>& coords, Fn fn) {
  for (size_t i = 0; i + 1 < coords.size(); ++i) {
    if (fn(coords[i], coords[i + 1])) return true;
  }
  return false;
}

/// Applies \p fn to every boundary segment of a polygon (shell + holes).
template <typename Fn>
bool AnyPolygonSegment(const PolygonData& poly, Fn fn) {
  if (AnySegment(poly.shell, fn)) return true;
  for (const auto& hole : poly.holes) {
    if (AnySegment(hole, fn)) return true;
  }
  return false;
}

inline bool PointOnLine(const Coordinate& p,
                        const std::vector<Coordinate>& line) {
  return AnySegment(line, [&](const Coordinate& a, const Coordinate& b) {
    return PointOnSegment(p, a, b);
  });
}

// ---------------------------------------------------------------------------
// Boundary loop
// ---------------------------------------------------------------------------
//
// A line or polygon meets a polygon only if it has a vertex inside it or
// some segment of it crosses or touches a polygon edge. SegmentHitsEdges
// asks the second question and skips two kinds of work that cannot change
// the answer:
//
//  - a segment whose grown box (GrownSegmentBox) misses the polygon's
//    grown envelope, and
//  - a segment pair whose grown boxes do not overlap.
//
// The pair skip is SegmentsIntersect's own first test, hoisted. The
// envelope skip is sound because the envelope holds every edge's grown box
// (see GrownEnvelope): a segment box that misses it misses each of them.
// A NaN vertex does not break this: SegmentBox::Overlaps never separates
// boxes over a NaN bound, and a segment with a NaN end can only touch
// through its finite end, which the envelope covers.

/// The box of every coordinate of \p poly's rings, grown by kSegmentEps.
/// It contains the grown box of each of their segments, since rounding is
/// monotone. Built from the coordinates, not from edge boxes: a NaN
/// coordinate leaves the bounds unchanged, whereas the box of an edge with
/// one NaN end can drop the finite end.
inline SegmentBox GrownEnvelope(const PolygonData& poly) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SegmentBox box{kInf, kInf, -kInf, -kInf};
  const auto cover = [&box](const std::vector<Coordinate>& coords) {
    for (const Coordinate& c : coords) {
      box.min_x = std::min(box.min_x, c.x);
      box.min_y = std::min(box.min_y, c.y);
      box.max_x = std::max(box.max_x, c.x);
      box.max_y = std::max(box.max_y, c.y);
    }
  };
  cover(poly.shell);
  for (const auto& hole : poly.holes) cover(hole);
  return {box.min_x - kSegmentEps, box.min_y - kSegmentEps,
          box.max_x + kSegmentEps, box.max_y + kSegmentEps};
}

/// True iff segment [a, b] crosses or touches an edge of \p poly, whose
/// GrownEnvelope is \p env.
inline bool SegmentHitsEdges(const Coordinate& a, const Coordinate& b,
                             const PolygonData& poly, const SegmentBox& env) {
  const SegmentBox box = GrownSegmentBox(a, b);
  if (!box.Overlaps(env)) return false;
  return AnyPolygonSegment(poly, [&](const Coordinate& c,
                                     const Coordinate& d) {
    return GrownSegmentBox(c, d).Overlaps(box) && SegmentsIntersect(a, b, c, d);
  });
}

// ---------------------------------------------------------------------------
// Intersects on simple parts
// ---------------------------------------------------------------------------

inline bool IntersectsSimple(const SimplePart& a, const SimplePart& b);

inline bool IntersectsPointPoly(const Coordinate& p, const PolygonData& poly) {
  return LocateInPolygon(p, poly) != RingLocation::kOutside;
}

inline bool IntersectsLineLine(const std::vector<Coordinate>& l1,
                               const std::vector<Coordinate>& l2) {
  return AnySegment(l1, [&](const Coordinate& a, const Coordinate& b) {
    return AnySegment(l2, [&](const Coordinate& c, const Coordinate& d) {
      return SegmentsIntersect(a, b, c, d);
    });
  });
}

inline bool IntersectsLinePoly(const std::vector<Coordinate>& line,
                               const PolygonData& poly) {
  // Either the line crosses/touches the boundary, or it lies entirely in
  // the interior, where every vertex is inside. Testing one vertex first
  // is cheap and settles the interior case without the boundary loop.
  if (IntersectsPointPoly(line.front(), poly)) return true;
  const SegmentBox env = GrownEnvelope(poly);
  return AnySegment(line, [&](const Coordinate& a, const Coordinate& b) {
    return SegmentHitsEdges(a, b, poly, env);
  });
}

inline bool IntersectsPolyPoly(const PolygonData& pa, const PolygonData& pb) {
  // A polygon nested in the other has its vertices inside it, so each is
  // first tested for a vertex inside the other: cheap, and it settles
  // nesting before the boundary loop. Otherwise, if the polygons meet,
  // their boundaries cross or touch.
  if (IntersectsPointPoly(pa.shell.front(), pb) ||
      IntersectsPointPoly(pb.shell.front(), pa)) {
    return true;
  }
  const SegmentBox env = GrownEnvelope(pb);
  return AnyPolygonSegment(pa, [&](const Coordinate& a, const Coordinate& b) {
    return SegmentHitsEdges(a, b, pb, env);
  });
}

inline bool IntersectsSimple(const SimplePart& a, const SimplePart& b) {
  // Normalize order: point <= line <= polygon.
  if (static_cast<int>(a.type) > static_cast<int>(b.type)) {
    return IntersectsSimple(b, a);
  }
  switch (a.type) {
    case GeometryType::kPoint:
      switch (b.type) {
        case GeometryType::kPoint:
          return PointsEqual(a.point, b.point);
        case GeometryType::kLineString:
          return PointOnLine(a.point, *b.line);
        default:
          return IntersectsPointPoly(a.point, *b.poly);
      }
    case GeometryType::kLineString:
      if (b.type == GeometryType::kLineString) {
        return IntersectsLineLine(*a.line, *b.line);
      }
      return IntersectsLinePoly(*a.line, *b.poly);
    default:
      return IntersectsPolyPoly(*a.poly, *b.poly);
  }
}

// ---------------------------------------------------------------------------
// Contains on simple parts
// ---------------------------------------------------------------------------

/// True iff the open interiors of the segments cross at a single point.
inline bool ProperCrossing(const Coordinate& p1, const Coordinate& p2,
                           const Coordinate& q1, const Coordinate& q2) {
  const int o1 = Orientation(p1, p2, q1);
  const int o2 = Orientation(p1, p2, q2);
  const int o3 = Orientation(q1, q2, p1);
  const int o4 = Orientation(q1, q2, p2);
  return o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 && o1 != o2 && o3 != o4;
}

inline bool PolygonCoversPoint(const PolygonData& poly, const Coordinate& p) {
  return LocateInPolygon(p, poly) != RingLocation::kOutside;
}

/// Shared core of polygon-contains-line and polygon-contains-polygon: every
/// vertex and every segment midpoint of \p coords must be covered, and no
/// segment may properly cross the polygon boundary.
inline bool PolygonCoversPath(const PolygonData& poly,
                              const std::vector<Coordinate>& coords) {
  for (const auto& c : coords) {
    if (!PolygonCoversPoint(poly, c)) return false;
  }
  for (size_t i = 0; i + 1 < coords.size(); ++i) {
    const Coordinate& a = coords[i];
    const Coordinate& b = coords[i + 1];
    const bool crossing =
        AnyPolygonSegment(poly, [&](const Coordinate& c, const Coordinate& d) {
          return ProperCrossing(a, b, c, d);
        });
    if (crossing) return false;
    const Coordinate mid{(a.x + b.x) / 2.0, (a.y + b.y) / 2.0};
    if (!PolygonCoversPoint(poly, mid)) return false;
  }
  return true;
}

inline bool PolygonContainsPolygon(const PolygonData& outer,
                                   const PolygonData& inner) {
  if (!PolygonCoversPath(outer, inner.shell)) return false;
  for (const auto& hole : inner.holes) {
    // Hole boundaries of the inner polygon must also stay inside the outer.
    if (!PolygonCoversPath(outer, hole)) return false;
  }
  // A hole of the outer polygon overlapping the inner polygon's interior
  // punches out area the inner polygon needs. Detect via (a) hole vertices
  // strictly inside the inner polygon, (b) hole-segment midpoints strictly
  // inside (catches vertex-on-boundary configurations), and (c) a
  // representative interior point of the hole (catches the exact-fill case
  // where the hole ring coincides with the inner shell).
  for (const auto& hole : outer.holes) {
    for (const auto& v : hole) {
      if (LocateInPolygon(v, inner) == RingLocation::kInside) return false;
    }
    for (size_t i = 0; i + 1 < hole.size(); ++i) {
      const Coordinate mid{(hole[i].x + hole[i + 1].x) / 2.0,
                           (hole[i].y + hole[i + 1].y) / 2.0};
      if (LocateInPolygon(mid, inner) == RingLocation::kInside) return false;
    }
    const Coordinate rep = RingCentroid(hole);
    if (LocateInRing(rep, hole) == RingLocation::kInside &&
        LocateInPolygon(rep, inner) == RingLocation::kInside) {
      return false;
    }
  }
  return true;
}

inline bool LineContainsLine(const std::vector<Coordinate>& a,
                             const std::vector<Coordinate>& b) {
  for (const auto& v : b) {
    if (!PointOnLine(v, a)) return false;
  }
  for (size_t i = 0; i + 1 < b.size(); ++i) {
    const Coordinate mid{(b[i].x + b[i + 1].x) / 2.0,
                         (b[i].y + b[i + 1].y) / 2.0};
    if (!PointOnLine(mid, a)) return false;
  }
  return true;
}

inline bool ContainsSimple(const SimplePart& a, const SimplePart& b) {
  switch (a.type) {
    case GeometryType::kPoint:
      return b.type == GeometryType::kPoint && PointsEqual(a.point, b.point);
    case GeometryType::kLineString:
      if (b.type == GeometryType::kPoint) return PointOnLine(b.point, *a.line);
      if (b.type == GeometryType::kLineString) {
        return LineContainsLine(*a.line, *b.line);
      }
      return false;  // a 1-D geometry cannot contain a 2-D one
    default:
      switch (b.type) {
        case GeometryType::kPoint:
          return PolygonCoversPoint(*a.poly, b.point);
        case GeometryType::kLineString:
          return PolygonCoversPath(*a.poly, *b.line);
        default:
          return PolygonContainsPolygon(*a.poly, *b.poly);
      }
  }
}

// ---------------------------------------------------------------------------
// Distance on simple parts
// ---------------------------------------------------------------------------

inline double DistancePointLine(const Coordinate& p,
                                const std::vector<Coordinate>& line) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i + 1 < line.size(); ++i) {
    best = std::min(best, DistancePointSegment(p, line[i], line[i + 1]));
  }
  return best;
}

inline double DistancePointPolyBoundary(const Coordinate& p,
                                        const PolygonData& poly) {
  double best = DistancePointLine(p, poly.shell);
  for (const auto& hole : poly.holes) {
    best = std::min(best, DistancePointLine(p, hole));
  }
  return best;
}

inline double DistanceLineLine(const std::vector<Coordinate>& l1,
                               const std::vector<Coordinate>& l2) {
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i + 1 < l1.size(); ++i) {
    for (size_t j = 0; j + 1 < l2.size(); ++j) {
      best = std::min(best, DistanceSegmentSegment(l1[i], l1[i + 1], l2[j],
                                                   l2[j + 1]));
      if (best == 0.0) return 0.0;
    }
  }
  return best;
}

inline double DistanceLinePolyBoundary(const std::vector<Coordinate>& line,
                                       const PolygonData& poly) {
  double best = DistanceLineLine(line, poly.shell);
  for (const auto& hole : poly.holes) {
    best = std::min(best, DistanceLineLine(line, hole));
  }
  return best;
}

inline double DistanceSimple(const SimplePart& a, const SimplePart& b) {
  if (static_cast<int>(a.type) > static_cast<int>(b.type)) {
    return DistanceSimple(b, a);
  }
  if (IntersectsSimple(a, b)) return 0.0;
  switch (a.type) {
    case GeometryType::kPoint:
      switch (b.type) {
        case GeometryType::kPoint:
          return a.point.DistanceTo(b.point);
        case GeometryType::kLineString:
          return DistancePointLine(a.point, *b.line);
        default:
          return DistancePointPolyBoundary(a.point, *b.poly);
      }
    case GeometryType::kLineString:
      if (b.type == GeometryType::kLineString) {
        return DistanceLineLine(*a.line, *b.line);
      }
      return DistanceLinePolyBoundary(*a.line, *b.poly);
    default: {
      // Non-intersecting polygons: boundary-to-boundary distance.
      double best = DistanceLinePolyBoundary(a.poly->shell, *b.poly);
      for (const auto& hole : a.poly->holes) {
        best = std::min(best, DistanceLinePolyBoundary(hole, *b.poly));
      }
      return best;
    }
  }
}

}  // namespace pred_internal
}  // namespace stark

#endif  // STARK_GEOMETRY_PREDICATES_IMPL_H_
