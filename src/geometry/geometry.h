/// \file geometry.h
/// The geometry model: Point, MultiPoint, LineString, Polygon (with holes)
/// and MultiPolygon, mirroring the subset of JTS that STARK uses.
#ifndef STARK_GEOMETRY_GEOMETRY_H_
#define STARK_GEOMETRY_GEOMETRY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "geometry/coordinate.h"
#include "geometry/envelope.h"
#include "geometry/kernels.h"

namespace stark {

/// Tag identifying the concrete shape stored in a Geometry.
enum class GeometryType {
  kPoint,
  kMultiPoint,
  kLineString,
  kPolygon,
  kMultiPolygon,
};

/// Returns the WKT keyword for \p type ("POINT", "POLYGON", ...).
const char* GeometryTypeName(GeometryType type);

/// Shell ring plus optional hole rings; all rings are stored closed
/// (first coordinate == last coordinate).
struct PolygonData {
  Ring shell;
  std::vector<Ring> holes;
};

/// \brief Immutable 2-D geometry value.
///
/// Construct through the factory functions; invalid inputs (e.g. a polygon
/// ring with fewer than 3 distinct points) are reported as Status errors.
/// The envelope is computed eagerly so bounding-box tests are free.
class Geometry {
 public:
  /// A single point.
  static Geometry MakePoint(double x, double y);
  static Geometry MakePoint(const Coordinate& c) { return MakePoint(c.x, c.y); }

  /// A collection of points; must be non-empty.
  static Result<Geometry> MakeMultiPoint(std::vector<Coordinate> coords);

  /// A polyline; must have at least 2 coordinates.
  static Result<Geometry> MakeLineString(std::vector<Coordinate> coords);

  /// A polygon from a shell and optional holes. Rings are closed
  /// automatically if the caller did not repeat the first coordinate.
  static Result<Geometry> MakePolygon(Ring shell, std::vector<Ring> holes = {});

  /// A collection of polygons; must be non-empty.
  static Result<Geometry> MakeMultiPolygon(std::vector<PolygonData> polygons);

  /// Convenience: the axis-aligned rectangle [min_x,max_x]x[min_y,max_y]
  /// as a polygon.
  static Geometry MakeBox(const Envelope& env);

  GeometryType type() const { return type_; }
  bool IsPoint() const { return type_ == GeometryType::kPoint; }

  /// Coordinates of a multipoint or linestring geometry; empty for every
  /// other type. A point keeps its coordinate inline: read it with AsPoint().
  const std::vector<Coordinate>& coordinates() const { return coords_; }

  /// Polygon parts for polygon / multipolygon geometries.
  const std::vector<PolygonData>& polygons() const { return polygons_; }

  /// The single coordinate of a point geometry, stored inline, so making,
  /// copying, moving or destroying a point never touches the heap.
  const Coordinate& AsPoint() const {
    STARK_DCHECK(type_ == GeometryType::kPoint);
    return point_;
  }

  /// Cached minimum bounding rectangle.
  const Envelope& envelope() const { return env_; }

  /// Area-weighted centroid (vertex mean for point/line types). This is the
  /// point STARK uses to assign a geometry to exactly one partition (§2.1).
  Coordinate Centroid() const;

  /// Total number of vertices across all parts.
  size_t NumCoordinates() const;

  /// WKT representation, e.g. "POINT (1 2)".
  std::string ToWkt() const;

  /// Exact coordinate equality, so a NaN coordinate is unequal to itself.
  bool operator==(const Geometry& o) const {
    return type_ == o.type_ && point_ == o.point_ && coords_ == o.coords_ &&
           PolysEqual(o);
  }

 private:
  explicit Geometry(const Coordinate& point);
  Geometry(GeometryType type, std::vector<Coordinate> coords,
           std::vector<PolygonData> polygons);

  bool PolysEqual(const Geometry& o) const;
  static Status CloseAndValidateRing(Ring* ring);

  GeometryType type_ = GeometryType::kPoint;
  Coordinate point_;                   // point; {0, 0} for other types
  std::vector<Coordinate> coords_;     // multipoint / linestring
  std::vector<PolygonData> polygons_;  // polygon / multipolygon
  Envelope env_;
};

}  // namespace stark

#endif  // STARK_GEOMETRY_GEOMETRY_H_
