// Edge-case tests for the spatial predicates: boundary touches, collinear
// configurations, degenerate shapes, shared vertices, and the documented
// covers-style semantics.
#include <gtest/gtest.h>

#include "geometry/predicates.h"
#include "geometry/prepared.h"
#include "geometry/wkt.h"

namespace stark {
namespace {

Geometry G(const char* wkt) { return ParseWkt(wkt).ValueOrDie(); }

TEST(PredicateEdgeTest, PointOnPolygonCorner) {
  const Geometry poly = G("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
  EXPECT_TRUE(Intersects(G("POINT (0 0)"), poly));
  EXPECT_TRUE(Contains(poly, G("POINT (0 0)")));  // covers semantics
}

TEST(PredicateEdgeTest, PointOnSharedEdgeOfTwoPolygons) {
  const Geometry left = G("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))");
  const Geometry right = G("POLYGON ((2 0, 4 0, 4 2, 2 2, 2 0))");
  const Geometry pt = G("POINT (2 1)");
  EXPECT_TRUE(Contains(left, pt));
  EXPECT_TRUE(Contains(right, pt));
}

TEST(PredicateEdgeTest, LineAlongPolygonEdge) {
  const Geometry poly = G("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
  const Geometry edge = G("LINESTRING (1 0, 3 0)");
  EXPECT_TRUE(Intersects(edge, poly));
  EXPECT_TRUE(Contains(poly, edge));  // boundary counts as covered
}

TEST(PredicateEdgeTest, LineTouchingPolygonAtSinglePoint) {
  const Geometry poly = G("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
  const Geometry touching = G("LINESTRING (4 2, 8 2)");
  EXPECT_TRUE(Intersects(touching, poly));
  EXPECT_FALSE(Contains(poly, touching));
}

TEST(PredicateEdgeTest, PolygonsSharingOnlyACorner) {
  const Geometry a = G("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))");
  const Geometry b = G("POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))");
  EXPECT_TRUE(Intersects(a, b));
  EXPECT_FALSE(Contains(a, b));
  EXPECT_DOUBLE_EQ(Distance(a, b), 0.0);
}

TEST(PredicateEdgeTest, IdenticalPolygonsContainEachOther) {
  const Geometry a = G("POLYGON ((0 0, 3 0, 3 3, 0 3, 0 0))");
  const Geometry b = G("POLYGON ((0 0, 3 0, 3 3, 0 3, 0 0))");
  EXPECT_TRUE(Contains(a, b));
  EXPECT_TRUE(Contains(b, a));
}

TEST(PredicateEdgeTest, NestedPolygonTouchingInnerBoundary) {
  // Inner polygon shares part of the outer polygon's boundary.
  const Geometry outer = G("POLYGON ((0 0, 6 0, 6 6, 0 6, 0 0))");
  const Geometry inner = G("POLYGON ((0 0, 3 0, 3 3, 0 3, 0 0))");
  EXPECT_TRUE(Contains(outer, inner));
  EXPECT_FALSE(Contains(inner, outer));
}

TEST(PredicateEdgeTest, PolygonInsideHoleIsDisjointFromDonut) {
  const Geometry donut =
      G("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 8 2, 8 8, 2 8, 2 2))");
  const Geometry island = G("POLYGON ((4 4, 6 4, 6 6, 4 6, 4 4))");
  EXPECT_FALSE(Intersects(donut, island));
  EXPECT_FALSE(Contains(donut, island));
  EXPECT_DOUBLE_EQ(Distance(donut, island), 2.0);  // island to hole ring
}

TEST(PredicateEdgeTest, PolygonFillingHoleTouchesBoundary) {
  const Geometry donut =
      G("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 8 2, 8 8, 2 8, 2 2))");
  // Exactly fills the hole: shares the hole ring with the donut.
  const Geometry plug = G("POLYGON ((2 2, 8 2, 8 8, 2 8, 2 2))");
  EXPECT_TRUE(Intersects(donut, plug));   // boundaries touch
  EXPECT_FALSE(Contains(donut, plug));    // interior is missing
}

TEST(PredicateEdgeTest, ZeroAreaDegeneratePolygonRing) {
  // Collinear "polygon": parses (3 points + closure) but has zero area.
  auto degenerate = Geometry::MakePolygon({{0, 0}, {2, 0}, {4, 0}});
  ASSERT_TRUE(degenerate.ok());
  const Geometry g = degenerate.ValueOrDie();
  EXPECT_TRUE(Intersects(g, G("POINT (1 0)")));
  EXPECT_FALSE(Intersects(g, G("POINT (1 1)")));
}

TEST(PredicateEdgeTest, MultiPointPartiallyInside) {
  const Geometry poly = G("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
  EXPECT_TRUE(Intersects(G("MULTIPOINT (2 2, 9 9)"), poly));
  EXPECT_FALSE(Contains(poly, G("MULTIPOINT (2 2, 9 9)")));
  EXPECT_TRUE(Contains(poly, G("MULTIPOINT (2 2, 0 0)")));
}

TEST(PredicateEdgeTest, MultiPolygonDistanceUsesNearestPart) {
  const Geometry mp = G(
      "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), "
      "((10 0, 11 0, 11 1, 10 1, 10 0)))");
  EXPECT_DOUBLE_EQ(Distance(mp, G("POINT (12 0.5)")), 1.0);
  EXPECT_DOUBLE_EQ(Distance(mp, G("POINT (5.5 0.5)")), 4.5);
}

TEST(PredicateEdgeTest, LineStringSelfContainsReversed) {
  const Geometry forward = G("LINESTRING (0 0, 2 2, 4 0)");
  const Geometry backward = G("LINESTRING (4 0, 2 2, 0 0)");
  EXPECT_TRUE(Contains(forward, backward));
  EXPECT_TRUE(Contains(backward, forward));
}

TEST(PredicateEdgeTest, VeryThinTriangleDistance) {
  const Geometry sliver = G("POLYGON ((0 0, 10 0.001, 10 0, 0 0))");
  EXPECT_EQ(Distance(sliver, G("POINT (5 0.0004)")), 0.0);  // inside
  EXPECT_NEAR(Distance(sliver, G("POINT (5 1)")), 1.0, 1e-3);
}

TEST(PredicateEdgeTest, ContainsIsAntisymmetricForProperSubsets) {
  const Geometry big = G("POLYGON ((0 0, 8 0, 8 8, 0 8, 0 0))");
  const Geometry small = G("POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))");
  EXPECT_TRUE(Contains(big, small));
  EXPECT_FALSE(Contains(small, big));
}

TEST(PredicateEdgeTest, CrossingPolygonsNeitherContains) {
  // Plus-sign configuration: overlap but neither contains the other.
  const Geometry horizontal = G("POLYGON ((0 2, 8 2, 8 4, 0 4, 0 2))");
  const Geometry vertical = G("POLYGON ((3 0, 5 0, 5 8, 3 8, 3 0))");
  EXPECT_TRUE(Intersects(horizontal, vertical));
  EXPECT_FALSE(Contains(horizontal, vertical));
  EXPECT_FALSE(Contains(vertical, horizontal));
}

TEST(PredicateEdgeTest, NearlyCollinearEdgesOfDisjointTriangles) {
  // Each triangle has one edge on almost the same line as an edge of the
  // other, but the two edges are far apart. Their orientations are
  // (-1, 0, -1, 0), which must not count as a crossing.
  const Coordinate p1{0.70901728576658507, 0.046179861149300949};
  const Coordinate p2{1.7085991374900691, 0.075095630290913373};
  const Coordinate q1{-0.92758806196986865, -0.0011636378691382613};
  const Coordinate q2{-1.9271699136933713, -0.030079407010107806};
  const Geometry a = Geometry::MakePolygon({p1, p2, {1.2, -3.0}}).ValueOrDie();
  const Geometry b = Geometry::MakePolygon({q1, q2, {1.0, -5.0}}).ValueOrDie();
  EXPECT_FALSE(Intersects(a, b));
  EXPECT_FALSE(Intersects(b, a));
  EXPECT_FALSE(PreparedGeometry(a).IntersectedBy(b));
  EXPECT_FALSE(PreparedGeometry(b).IntersectedBy(a));
  EXPECT_NEAR(Distance(a, b), 0.906, 1e-3);
  EXPECT_EQ(PreparedGeometry(a).DistanceFrom(b), Distance(b, a));
  EXPECT_EQ(PreparedGeometry(b).DistanceFrom(a), Distance(a, b));
}

TEST(PredicateEdgeTest, LineReachingIntoBoxFromToleranceBand) {
  // The line's first vertex is 5e-12 below the box: outside it, but
  // within the collinearity tolerance of its bottom edge. The line still
  // crosses that edge and runs 1 unit into the box.
  const Geometry box = G("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
  const Geometry line = G("LINESTRING (5 -5e-12, 5 1)");
  EXPECT_TRUE(Intersects(box, line));
  EXPECT_TRUE(Intersects(line, box));
  EXPECT_TRUE(PreparedGeometry(box).IntersectedBy(line));
  EXPECT_TRUE(PreparedGeometry(line).IntersectedBy(box));
  EXPECT_EQ(Distance(box, line), 0.0);
}

TEST(PredicateEdgeTest, TriangleApexInToleranceBandOfBoxEdge) {
  // The same crossing from a triangle whose apex, its first vertex, lies
  // 5e-12 below the box and whose body is inside it.
  const Geometry box = G("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
  const Geometry tri = G("POLYGON ((5 -5e-12, 6 2, 4 2, 5 -5e-12))");
  EXPECT_TRUE(Intersects(box, tri));
  EXPECT_TRUE(Intersects(tri, box));
  EXPECT_TRUE(PreparedGeometry(box).IntersectedBy(tri));
  EXPECT_TRUE(PreparedGeometry(tri).IntersectedBy(box));
  EXPECT_EQ(Distance(tri, box), 0.0);
}

}  // namespace
}  // namespace stark
