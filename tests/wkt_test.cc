// Tests for the WKT parser and writer.
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/wkt.h"

namespace stark {
namespace {

TEST(WktParseTest, Point) {
  Geometry g = ParseWkt("POINT (1.5 -2.25)").ValueOrDie();
  EXPECT_EQ(g.type(), GeometryType::kPoint);
  EXPECT_EQ(g.AsPoint().x, 1.5);
  EXPECT_EQ(g.AsPoint().y, -2.25);
}

TEST(WktParseTest, CaseAndWhitespaceInsensitive) {
  EXPECT_TRUE(ParseWkt("point(1 2)").ok());
  EXPECT_TRUE(ParseWkt("  PoInT  (  1   2  )  ").ok());
}

TEST(WktParseTest, ScientificNotation) {
  Geometry g = ParseWkt("POINT (1e3 -2.5e-2)").ValueOrDie();
  EXPECT_EQ(g.AsPoint().x, 1000.0);
  EXPECT_EQ(g.AsPoint().y, -0.025);
}

TEST(WktParseTest, LineString) {
  Geometry g = ParseWkt("LINESTRING (0 0, 1 1, 2 0)").ValueOrDie();
  EXPECT_EQ(g.type(), GeometryType::kLineString);
  ASSERT_EQ(g.coordinates().size(), 3u);
  EXPECT_EQ(g.coordinates()[2].x, 2.0);
}

TEST(WktParseTest, MultiPointBothStyles) {
  Geometry a = ParseWkt("MULTIPOINT (1 2, 3 4)").ValueOrDie();
  Geometry b = ParseWkt("MULTIPOINT ((1 2), (3 4))").ValueOrDie();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.coordinates().size(), 2u);
}

TEST(WktParseTest, Polygon) {
  Geometry g =
      ParseWkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))").ValueOrDie();
  EXPECT_EQ(g.type(), GeometryType::kPolygon);
  ASSERT_EQ(g.polygons().size(), 1u);
  EXPECT_EQ(g.polygons()[0].shell.size(), 5u);
  EXPECT_TRUE(g.polygons()[0].holes.empty());
}

TEST(WktParseTest, PolygonWithHole) {
  Geometry g = ParseWkt(
                   "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), "
                   "(2 2, 4 2, 4 4, 2 4, 2 2))")
                   .ValueOrDie();
  ASSERT_EQ(g.polygons()[0].holes.size(), 1u);
  EXPECT_EQ(g.polygons()[0].holes[0].size(), 5u);
}

TEST(WktParseTest, PolygonAutoCloseRing) {
  // Ring not explicitly closed: the factory closes it.
  Geometry g = ParseWkt("POLYGON ((0 0, 4 0, 4 4, 0 4))").ValueOrDie();
  const Ring& shell = g.polygons()[0].shell;
  EXPECT_EQ(shell.front(), shell.back());
  EXPECT_EQ(shell.size(), 5u);
}

TEST(WktParseTest, MultiPolygon) {
  Geometry g = ParseWkt(
                   "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), "
                   "((5 5, 6 5, 6 6, 5 6, 5 5)))")
                   .ValueOrDie();
  EXPECT_EQ(g.type(), GeometryType::kMultiPolygon);
  EXPECT_EQ(g.polygons().size(), 2u);
}

TEST(WktParseTest, Errors) {
  EXPECT_FALSE(ParseWkt("").ok());
  EXPECT_FALSE(ParseWkt("CIRCLE (0 0, 5)").ok());
  EXPECT_FALSE(ParseWkt("POINT (1)").ok());
  EXPECT_FALSE(ParseWkt("POINT (1 2").ok());
  EXPECT_FALSE(ParseWkt("POINT (1 2) trailing").ok());
  EXPECT_FALSE(ParseWkt("POINT (a b)").ok());
  EXPECT_FALSE(ParseWkt("LINESTRING (1 1)").ok());          // one point
  EXPECT_FALSE(ParseWkt("POLYGON ((0 0, 1 1))").ok());      // short ring
  EXPECT_FALSE(ParseWkt("POINT EMPTY").ok());
}

TEST(WktParseTest, ErrorIsParseError) {
  EXPECT_EQ(ParseWkt("NOPE").status().code(), StatusCode::kParseError);
}

TEST(WktWriteTest, CanonicalForms) {
  EXPECT_EQ(ParseWkt("POINT(1 2)").ValueOrDie().ToWkt(), "POINT (1 2)");
  EXPECT_EQ(ParseWkt("LINESTRING(0 0,1 1)").ValueOrDie().ToWkt(),
            "LINESTRING (0 0, 1 1)");
  EXPECT_EQ(
      ParseWkt("POLYGON((0 0,1 0,1 1,0 0))").ValueOrDie().ToWkt(),
      "POLYGON ((0 0, 1 0, 1 1, 0 0))");
}

TEST(WktWriteTest, CompactNumberFormatting) {
  EXPECT_EQ(ParseWkt("POINT(0.5 100000)").ValueOrDie().ToWkt(),
            "POINT (0.5 100000)");
}

TEST(WktWriteTest, NonFiniteAndHugeCoordinates) {
  // None of these fits a long long, so none takes the integral branch.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Geometry::MakePoint({nan, 3}).ToWkt(), "POINT (nan 3)");
  EXPECT_EQ(Geometry::MakePoint({inf, -inf}).ToWkt(), "POINT (inf -inf)");
  EXPECT_EQ(Geometry::MakePoint({1e300, -1e20}).ToWkt(),
            "POINT (1e+300 -1e+20)");
}

// Property: parse(write(g)) == g for random geometries of every type.
TEST(WktPropertyTest, RoundTripRandomGeometries) {
  Rng rng(11);
  auto coord = [&] {
    return Coordinate{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
  };
  for (int trial = 0; trial < 300; ++trial) {
    Geometry g = [&]() -> Geometry {
      switch (trial % 4) {
        case 0:
          return Geometry::MakePoint(coord());
        case 1: {
          std::vector<Coordinate> pts(2 + trial % 5);
          for (auto& p : pts) p = coord();
          return Geometry::MakeLineString(std::move(pts)).ValueOrDie();
        }
        case 2: {
          std::vector<Coordinate> pts(1 + trial % 6);
          for (auto& p : pts) p = coord();
          return Geometry::MakeMultiPoint(std::move(pts)).ValueOrDie();
        }
        default: {
          const Coordinate c = coord();
          Ring shell{{c.x, c.y}, {c.x + 3, c.y}, {c.x + 3, c.y + 3},
                     {c.x, c.y + 3}};
          return Geometry::MakePolygon(std::move(shell)).ValueOrDie();
        }
      }
    }();
    const std::string wkt = g.ToWkt();
    auto back = ParseWkt(wkt);
    ASSERT_TRUE(back.ok()) << wkt;
    EXPECT_EQ(back.ValueOrDie(), g) << wkt;
  }
}

// Mutated WKT must be rejected with a typed status, never crash or hang.
TEST(WktFuzzTest, MutatedStringsNeverCrash) {
  Rng rng(19);
  const std::string base =
      "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string fuzzed = base;
    const int mutations = static_cast<int>(rng.UniformInt(1, 6));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(0, fuzzed.size() - 1));
      fuzzed[pos] = static_cast<char>(rng.UniformInt(32, 126));
    }
    auto result = ParseWkt(fuzzed);  // must not crash or hang
    if (!result.ok()) {
      const auto code = result.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kInvalidArgument)
          << fuzzed;
    }
  }
}

}  // namespace
}  // namespace stark
