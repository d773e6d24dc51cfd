#include "geometry/prepared.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "geometry/predicates_impl.h"

namespace stark {

namespace {

using pred_internal::PointEnvelope;
using pred_internal::SimplePart;

/// Ring edges as structure-of-arrays: edge i runs (ax[i],ay[i]) ->
/// (bx[i],by[i]). Built only for valid rings (>= 4 closed coordinates),
/// so size() < 3 marks the degenerate rings LocateInRing rejects.
struct RingEdges {
  std::vector<double> ax, ay, bx, by;
  size_t size() const { return ax.size(); }
};

struct PolyEdges {
  RingEdges shell;
  std::vector<RingEdges> holes;
};

RingEdges BuildRingEdges(const Ring& ring) {
  RingEdges e;
  if (ring.size() < 4) return e;  // LocateInRing treats these as empty
  const size_t n = ring.size() - 1;
  e.ax.reserve(n);
  e.ay.reserve(n);
  e.bx.reserve(n);
  e.by.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    e.ax.push_back(ring[i].x);
    e.ay.push_back(ring[i].y);
    e.bx.push_back(ring[i + 1].x);
    e.by.push_back(ring[i + 1].y);
  }
  return e;
}

/// Exact replica of LocateInRing over cached SoA edges: same boundary test,
/// same ray-cast formula, same edge order, so results (and every
/// intermediate double) are identical.
RingLocation LocateInRingEdges(const Coordinate& p, const RingEdges& e) {
  if (e.size() < 3) return RingLocation::kOutside;
  bool inside = false;
  for (size_t i = 0, n = e.size(); i < n; ++i) {
    const Coordinate a{e.ax[i], e.ay[i]};
    const Coordinate b{e.bx[i], e.by[i]};
    if (PointOnSegment(p, a, b)) return RingLocation::kBoundary;
    const bool crosses =
        ((a.y > p.y) != (b.y > p.y)) &&
        (p.x < (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x);
    if (crosses) inside = !inside;
  }
  return inside ? RingLocation::kInside : RingLocation::kOutside;
}

/// Exact replica of LocateInPolygon over cached edges.
RingLocation LocateInPreparedPolygon(const Coordinate& p,
                                     const PolyEdges& pe) {
  const RingLocation shell_loc = LocateInRingEdges(p, pe.shell);
  if (shell_loc != RingLocation::kInside) return shell_loc;
  for (const auto& hole : pe.holes) {
    const RingLocation hole_loc = LocateInRingEdges(p, hole);
    if (hole_loc == RingLocation::kBoundary) return RingLocation::kBoundary;
    if (hole_loc == RingLocation::kInside) return RingLocation::kOutside;
  }
  return RingLocation::kInside;
}

/// Applies \p fn to each simple part of \p g in Decompose order without
/// heap-allocating a parts vector; stops early when fn returns true.
template <typename Fn>
bool AnyPart(const Geometry& g, Fn fn) {
  switch (g.type()) {
    case GeometryType::kPoint:
      return fn(
          SimplePart{GeometryType::kPoint, g.AsPoint(), nullptr, nullptr});
    case GeometryType::kMultiPoint:
      for (const auto& c : g.coordinates()) {
        if (fn(SimplePart{GeometryType::kPoint, c, nullptr, nullptr})) {
          return true;
        }
      }
      return false;
    case GeometryType::kLineString:
      return fn(SimplePart{GeometryType::kLineString, {}, &g.coordinates(),
                           nullptr});
    case GeometryType::kPolygon:
    case GeometryType::kMultiPolygon:
      for (const auto& poly : g.polygons()) {
        if (fn(SimplePart{GeometryType::kPolygon, {}, nullptr, &poly})) {
          return true;
        }
      }
      return false;
  }
  return false;
}

}  // namespace

struct PreparedGeometry::Impl {
  const Geometry* geo;
  std::vector<SimplePart> parts;       // cached decomposition
  std::vector<PolyEdges> poly_edges;   // parallel to parts (polygon types)
  Coordinate interior{0.0, 0.0};

  /// Cached edges for part \p k, or nullptr when it is not a polygon.
  const PolyEdges* EdgesFor(size_t k) const {
    return k < poly_edges.size() ? &poly_edges[k] : nullptr;
  }

  /// IntersectsSimple(pa, parts[k]) with the point-in-polygon case served
  /// from cached edges (identical arithmetic).
  bool IntersectsPart(const SimplePart& pa, size_t k) const {
    const PolyEdges* pe = EdgesFor(k);
    if (pe != nullptr && pa.type == GeometryType::kPoint) {
      return LocateInPreparedPolygon(pa.point, *pe) != RingLocation::kOutside;
    }
    return pred_internal::IntersectsSimple(pa, parts[k]);
  }

  /// ContainsSimple(parts[k], pb) with the polygon-covers-point case served
  /// from cached edges.
  bool PartContains(size_t k, const SimplePart& pb) const {
    const PolyEdges* pe = EdgesFor(k);
    if (pe != nullptr && pb.type == GeometryType::kPoint) {
      return LocateInPreparedPolygon(pb.point, *pe) != RingLocation::kOutside;
    }
    return pred_internal::ContainsSimple(parts[k], pb);
  }

  /// DistanceSimple(pa, parts[k]) with the point-vs-polygon intersection
  /// probe served from cached edges.
  double DistanceToPart(const SimplePart& pa, size_t k) const {
    const PolyEdges* pe = EdgesFor(k);
    if (pe != nullptr && pa.type == GeometryType::kPoint) {
      if (LocateInPreparedPolygon(pa.point, *pe) != RingLocation::kOutside) {
        return 0.0;
      }
      return pred_internal::DistancePointPolyBoundary(pa.point,
                                                      *parts[k].poly);
    }
    return pred_internal::DistanceSimple(pa, parts[k]);
  }
};

PreparedGeometry::PreparedGeometry(const Geometry& geo)
    : impl_(std::make_unique<Impl>()) {
  impl_->geo = &geo;
  impl_->parts = pred_internal::Decompose(geo);
  impl_->interior = geo.Centroid();
  if (geo.type() == GeometryType::kPolygon ||
      geo.type() == GeometryType::kMultiPolygon) {
    impl_->poly_edges.reserve(geo.polygons().size());
    for (const auto& poly : geo.polygons()) {
      PolyEdges pe;
      pe.shell = BuildRingEdges(poly.shell);
      pe.holes.reserve(poly.holes.size());
      for (const auto& hole : poly.holes) {
        pe.holes.push_back(BuildRingEdges(hole));
      }
      impl_->poly_edges.push_back(std::move(pe));
    }
  }
}

PreparedGeometry::~PreparedGeometry() = default;
PreparedGeometry::PreparedGeometry(PreparedGeometry&&) noexcept = default;
PreparedGeometry& PreparedGeometry::operator=(PreparedGeometry&&) noexcept =
    default;

const Geometry& PreparedGeometry::geometry() const { return *impl_->geo; }

const Envelope& PreparedGeometry::envelope() const {
  return impl_->geo->envelope();
}

const Coordinate& PreparedGeometry::InteriorPoint() const {
  return impl_->interior;
}

bool PreparedGeometry::IntersectedBy(const Geometry& other) const {
  const Impl& im = *impl_;
  // Mirrors Intersects(other, geometry()): envelope prefilter, then every
  // (other part, own part) pair in the same order.
  if (!other.envelope().Intersects(im.geo->envelope())) return false;
  return AnyPart(other, [&im](const SimplePart& pa) {
    for (size_t k = 0; k < im.parts.size(); ++k) {
      if (im.IntersectsPart(pa, k)) return true;
    }
    return false;
  });
}

bool PreparedGeometry::Contains(const Geometry& other) const {
  const Impl& im = *impl_;
  // Mirrors Contains(geometry(), other): every part of `other` must be
  // covered by some single own part.
  if (!im.geo->envelope().Contains(other.envelope())) return false;
  return !AnyPart(other, [&im](const SimplePart& pb) {
    for (size_t k = 0; k < im.parts.size(); ++k) {
      if (im.PartContains(k, pb)) return false;  // covered: keep going
    }
    return true;  // uncovered part found: abort, Contains is false
  });
}

bool PreparedGeometry::ContainedBy(const Geometry& other) const {
  const Impl& im = *impl_;
  // Mirrors Contains(other, geometry()): the container is `other`, so only
  // the cached decomposition of the own side accelerates this direction.
  if (!other.envelope().Contains(im.geo->envelope())) return false;
  for (const SimplePart& pb : im.parts) {
    const bool covered = AnyPart(other, [&pb](const SimplePart& pa) {
      return pred_internal::ContainsSimple(pa, pb);
    });
    if (!covered) return false;
  }
  return true;
}

bool PreparedGeometry::IntersectsPoint(const Coordinate& p) const {
  const Impl& im = *impl_;
  // Mirrors IntersectedBy(MakePoint(p)): envelope prefilter, then the
  // single point part against every own part in order.
  if (!PointEnvelope(p).Intersects(im.geo->envelope())) return false;
  const SimplePart pa{GeometryType::kPoint, p, nullptr, nullptr};
  for (size_t k = 0; k < im.parts.size(); ++k) {
    if (im.IntersectsPart(pa, k)) return true;
  }
  return false;
}

bool PreparedGeometry::ContainsPoint(const Coordinate& p) const {
  const Impl& im = *impl_;
  // Mirrors Contains(MakePoint(p)): the point must be covered by some part.
  if (!im.geo->envelope().Contains(PointEnvelope(p))) return false;
  const SimplePart pb{GeometryType::kPoint, p, nullptr, nullptr};
  for (size_t k = 0; k < im.parts.size(); ++k) {
    if (im.PartContains(k, pb)) return true;
  }
  return false;
}

bool PreparedGeometry::ContainedByPoint(const Coordinate& p) const {
  const Impl& im = *impl_;
  // Mirrors ContainedBy(MakePoint(p)): every own part must be covered by
  // the point (only point-like own parts can be).
  if (!PointEnvelope(p).Contains(im.geo->envelope())) return false;
  const SimplePart pa{GeometryType::kPoint, p, nullptr, nullptr};
  for (const SimplePart& pb : im.parts) {
    if (!pred_internal::ContainsSimple(pa, pb)) return false;
  }
  return true;
}

double PreparedGeometry::DistanceFromPoint(const Coordinate& p) const {
  const Impl& im = *impl_;
  // Mirrors DistanceFrom(MakePoint(p)): same part order, same early exit.
  double best = std::numeric_limits<double>::infinity();
  const SimplePart pa{GeometryType::kPoint, p, nullptr, nullptr};
  for (size_t k = 0; k < im.parts.size(); ++k) {
    best = std::min(best, im.DistanceToPart(pa, k));
    if (best == 0.0) break;
  }
  return best;
}

double PreparedGeometry::DistanceFrom(const Geometry& other) const {
  const Impl& im = *impl_;
  // Mirrors Distance(other, geometry()): same pair order, same early exit.
  double best = std::numeric_limits<double>::infinity();
  AnyPart(other, [&im, &best](const SimplePart& pa) {
    for (size_t k = 0; k < im.parts.size(); ++k) {
      best = std::min(best, im.DistanceToPart(pa, k));
      if (best == 0.0) return true;  // abort the part scan
    }
    return false;
  });
  return best;
}

}  // namespace stark
