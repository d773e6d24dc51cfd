#include "geometry/wkt.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

namespace stark {

namespace {

/// Recursive-descent scanner over a WKT string.
class WktScanner {
 public:
  explicit WktScanner(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  /// Reads an alphabetic keyword and upper-cases it.
  std::string ReadKeyword() {
    SkipSpace();
    std::string word;
    while (pos_ < text_.size() &&
           std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
      word.push_back(static_cast<char>(
          std::toupper(static_cast<unsigned char>(text_[pos_]))));
      ++pos_;
    }
    return word;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Status::ParseError(std::string("WKT: expected '") + c +
                                "' at offset " + std::to_string(pos_));
    }
    return Status::OK();
  }

  Result<double> ReadNumber() {
    SkipSpace();
    double value = 0.0;
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr == begin) {
      return Status::ParseError("WKT: expected number at offset " +
                                std::to_string(pos_));
    }
    pos_ += static_cast<size_t>(ptr - begin);
    return value;
  }

  Result<Coordinate> ReadCoordinate() {
    STARK_ASSIGN_OR_RETURN(double x, ReadNumber());
    STARK_ASSIGN_OR_RETURN(double y, ReadNumber());
    return Coordinate{x, y};
  }

  /// Reads "(x y, x y, ...)".
  Result<std::vector<Coordinate>> ReadCoordinateList() {
    STARK_RETURN_NOT_OK(Expect('('));
    std::vector<Coordinate> coords;
    do {
      STARK_ASSIGN_OR_RETURN(Coordinate c, ReadCoordinate());
      coords.push_back(c);
    } while (Consume(','));
    STARK_RETURN_NOT_OK(Expect(')'));
    return coords;
  }

  /// Reads "((ring), (ring), ...)" — a polygon body.
  Result<PolygonData> ReadPolygonBody() {
    STARK_RETURN_NOT_OK(Expect('('));
    PolygonData poly;
    STARK_ASSIGN_OR_RETURN(poly.shell, ReadCoordinateList());
    while (Consume(',')) {
      STARK_ASSIGN_OR_RETURN(Ring hole, ReadCoordinateList());
      poly.holes.push_back(std::move(hole));
    }
    STARK_RETURN_NOT_OK(Expect(')'));
    return poly;
  }

  size_t pos() const { return pos_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

void AppendNumber(std::string* out, double v) {
  char buf[32];
  // Integral values print without an exponent ("100000", not "1e+05").
  // The range test comes first: casting NaN, an infinity or a value past
  // 2^63 to long long is undefined.
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out->append(buf);
    return;
  }
  // %.17g round-trips doubles; trim to a compact representation.
  int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) {
      out->append(probe);
      return;
    }
  }
  out->append(buf, static_cast<size_t>(n));
}

void AppendCoordinate(std::string* out, const Coordinate& c) {
  AppendNumber(out, c.x);
  out->push_back(' ');
  AppendNumber(out, c.y);
}

void AppendCoordinateList(std::string* out,
                          const std::vector<Coordinate>& coords) {
  out->push_back('(');
  for (size_t i = 0; i < coords.size(); ++i) {
    if (i > 0) out->append(", ");
    AppendCoordinate(out, coords[i]);
  }
  out->push_back(')');
}

void AppendPolygonBody(std::string* out, const PolygonData& poly) {
  out->push_back('(');
  AppendCoordinateList(out, poly.shell);
  for (const auto& hole : poly.holes) {
    out->append(", ");
    AppendCoordinateList(out, hole);
  }
  out->push_back(')');
}

}  // namespace

Result<Geometry> ParseWkt(std::string_view text) {
  WktScanner scan(text);
  const std::string keyword = scan.ReadKeyword();
  if (keyword.empty()) {
    return Status::ParseError("WKT: missing geometry keyword");
  }

  Result<Geometry> result = [&]() -> Result<Geometry> {
    if (keyword == "POINT") {
      STARK_RETURN_NOT_OK(scan.Expect('('));
      STARK_ASSIGN_OR_RETURN(Coordinate c, scan.ReadCoordinate());
      STARK_RETURN_NOT_OK(scan.Expect(')'));
      return Geometry::MakePoint(c);
    }
    if (keyword == "MULTIPOINT") {
      // Accept both "MULTIPOINT (1 2, 3 4)" and "MULTIPOINT ((1 2), (3 4))".
      STARK_RETURN_NOT_OK(scan.Expect('('));
      std::vector<Coordinate> coords;
      do {
        if (scan.Consume('(')) {
          STARK_ASSIGN_OR_RETURN(Coordinate c, scan.ReadCoordinate());
          STARK_RETURN_NOT_OK(scan.Expect(')'));
          coords.push_back(c);
        } else {
          STARK_ASSIGN_OR_RETURN(Coordinate c, scan.ReadCoordinate());
          coords.push_back(c);
        }
      } while (scan.Consume(','));
      STARK_RETURN_NOT_OK(scan.Expect(')'));
      return Geometry::MakeMultiPoint(std::move(coords));
    }
    if (keyword == "LINESTRING") {
      STARK_ASSIGN_OR_RETURN(std::vector<Coordinate> coords,
                             scan.ReadCoordinateList());
      return Geometry::MakeLineString(std::move(coords));
    }
    if (keyword == "POLYGON") {
      STARK_ASSIGN_OR_RETURN(PolygonData poly, scan.ReadPolygonBody());
      return Geometry::MakePolygon(std::move(poly.shell),
                                   std::move(poly.holes));
    }
    if (keyword == "MULTIPOLYGON") {
      STARK_RETURN_NOT_OK(scan.Expect('('));
      std::vector<PolygonData> polys;
      do {
        STARK_ASSIGN_OR_RETURN(PolygonData poly, scan.ReadPolygonBody());
        polys.push_back(std::move(poly));
      } while (scan.Consume(','));
      STARK_RETURN_NOT_OK(scan.Expect(')'));
      return Geometry::MakeMultiPolygon(std::move(polys));
    }
    return Status::ParseError("WKT: unsupported geometry type: " + keyword);
  }();

  if (!result.ok()) return result;
  if (!scan.AtEnd()) {
    return Status::ParseError("WKT: trailing characters at offset " +
                              std::to_string(scan.pos()));
  }
  return result;
}

bool ParsePointWkt(std::string_view text, double* x, double* y) {
  WktScanner scan(text);
  if (scan.ReadKeyword() != "POINT") return false;
  if (!scan.Consume('(')) return false;
  Result<Coordinate> c = scan.ReadCoordinate();
  if (!c.ok()) return false;
  if (!scan.Consume(')')) return false;
  if (!scan.AtEnd()) return false;  // same trailing-bytes rule as ParseWkt
  *x = c.ValueOrDie().x;
  *y = c.ValueOrDie().y;
  return true;
}

std::string WriteWkt(const Geometry& geometry) {
  std::string out = GeometryTypeName(geometry.type());
  out.push_back(' ');
  switch (geometry.type()) {
    case GeometryType::kPoint: {
      out.push_back('(');
      AppendCoordinate(&out, geometry.AsPoint());
      out.push_back(')');
      break;
    }
    case GeometryType::kMultiPoint:
    case GeometryType::kLineString:
      AppendCoordinateList(&out, geometry.coordinates());
      break;
    case GeometryType::kPolygon:
      AppendPolygonBody(&out, geometry.polygons()[0]);
      break;
    case GeometryType::kMultiPolygon: {
      out.push_back('(');
      const auto& polys = geometry.polygons();
      for (size_t i = 0; i < polys.size(); ++i) {
        if (i > 0) out.append(", ");
        AppendPolygonBody(&out, polys[i]);
      }
      out.push_back(')');
      break;
    }
  }
  return out;
}

}  // namespace stark
