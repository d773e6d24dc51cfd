#include "geometry/geometry.h"

#include <cmath>

#include "geometry/wkt.h"

namespace stark {

const char* GeometryTypeName(GeometryType type) {
  switch (type) {
    case GeometryType::kPoint: return "POINT";
    case GeometryType::kMultiPoint: return "MULTIPOINT";
    case GeometryType::kLineString: return "LINESTRING";
    case GeometryType::kPolygon: return "POLYGON";
    case GeometryType::kMultiPolygon: return "MULTIPOLYGON";
  }
  return "UNKNOWN";
}

Geometry::Geometry(const Coordinate& point)
    : type_(GeometryType::kPoint), point_(point) {
  env_.ExpandToInclude(point_);
}

Geometry::Geometry(GeometryType type, std::vector<Coordinate> coords,
                   std::vector<PolygonData> polygons)
    : type_(type), coords_(std::move(coords)), polygons_(std::move(polygons)) {
  for (const auto& c : coords_) env_.ExpandToInclude(c);
  for (const auto& poly : polygons_) {
    for (const auto& c : poly.shell) env_.ExpandToInclude(c);
  }
}

Geometry Geometry::MakePoint(double x, double y) {
  return Geometry(Coordinate{x, y});
}

Result<Geometry> Geometry::MakeMultiPoint(std::vector<Coordinate> coords) {
  if (coords.empty()) {
    return Status::InvalidArgument("MULTIPOINT requires at least one point");
  }
  return Geometry(GeometryType::kMultiPoint, std::move(coords), {});
}

Result<Geometry> Geometry::MakeLineString(std::vector<Coordinate> coords) {
  if (coords.size() < 2) {
    return Status::InvalidArgument("LINESTRING requires at least 2 points");
  }
  return Geometry(GeometryType::kLineString, std::move(coords), {});
}

Status Geometry::CloseAndValidateRing(Ring* ring) {
  if (ring->size() < 3) {
    return Status::InvalidArgument("polygon ring requires at least 3 points");
  }
  if (ring->front() != ring->back()) ring->push_back(ring->front());
  if (ring->size() < 4) {
    return Status::InvalidArgument("polygon ring degenerate after closing");
  }
  return Status::OK();
}

Result<Geometry> Geometry::MakePolygon(Ring shell, std::vector<Ring> holes) {
  STARK_RETURN_NOT_OK(CloseAndValidateRing(&shell));
  for (auto& hole : holes) {
    STARK_RETURN_NOT_OK(CloseAndValidateRing(&hole));
  }
  std::vector<PolygonData> polys;
  polys.push_back(PolygonData{std::move(shell), std::move(holes)});
  return Geometry(GeometryType::kPolygon, {}, std::move(polys));
}

Result<Geometry> Geometry::MakeMultiPolygon(std::vector<PolygonData> polygons) {
  if (polygons.empty()) {
    return Status::InvalidArgument("MULTIPOLYGON requires at least 1 polygon");
  }
  for (auto& poly : polygons) {
    STARK_RETURN_NOT_OK(CloseAndValidateRing(&poly.shell));
    for (auto& hole : poly.holes) {
      STARK_RETURN_NOT_OK(CloseAndValidateRing(&hole));
    }
  }
  return Geometry(GeometryType::kMultiPolygon, {}, std::move(polygons));
}

Geometry Geometry::MakeBox(const Envelope& env) {
  Ring shell{{env.min_x(), env.min_y()},
             {env.max_x(), env.min_y()},
             {env.max_x(), env.max_y()},
             {env.min_x(), env.max_y()},
             {env.min_x(), env.min_y()}};
  return MakePolygon(std::move(shell)).ValueOrDie();
}

Coordinate Geometry::Centroid() const {
  switch (type_) {
    case GeometryType::kPoint:
      return point_;
    case GeometryType::kMultiPoint:
    case GeometryType::kLineString: {
      Coordinate mean{0.0, 0.0};
      for (const auto& c : coords_) {
        mean.x += c.x;
        mean.y += c.y;
      }
      mean.x /= static_cast<double>(coords_.size());
      mean.y /= static_cast<double>(coords_.size());
      return mean;
    }
    case GeometryType::kPolygon:
      return RingCentroid(polygons_[0].shell);
    case GeometryType::kMultiPolygon: {
      // Area-weighted combination of per-polygon centroids.
      double total_area = 0.0;
      Coordinate acc{0.0, 0.0};
      for (const auto& poly : polygons_) {
        const double area = std::abs(SignedRingArea(poly.shell));
        const Coordinate c = RingCentroid(poly.shell);
        acc.x += c.x * area;
        acc.y += c.y * area;
        total_area += area;
      }
      if (total_area <= 0.0) return RingCentroid(polygons_[0].shell);
      return {acc.x / total_area, acc.y / total_area};
    }
  }
  return {0.0, 0.0};
}

size_t Geometry::NumCoordinates() const {
  size_t n = IsPoint() ? 1 : coords_.size();
  for (const auto& poly : polygons_) {
    n += poly.shell.size();
    for (const auto& hole : poly.holes) n += hole.size();
  }
  return n;
}

bool Geometry::PolysEqual(const Geometry& o) const {
  if (polygons_.size() != o.polygons_.size()) return false;
  for (size_t i = 0; i < polygons_.size(); ++i) {
    if (polygons_[i].shell != o.polygons_[i].shell) return false;
    if (polygons_[i].holes != o.polygons_[i].holes) return false;
  }
  return true;
}

std::string Geometry::ToWkt() const { return WriteWkt(*this); }

}  // namespace stark
