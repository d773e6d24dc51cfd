// Tests for the low-level computational geometry kernels.
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/kernels.h"

namespace stark {
namespace {

TEST(OrientationTest, BasicTurns) {
  EXPECT_EQ(Orientation({0, 0}, {1, 0}, {1, 1}), 1);   // ccw
  EXPECT_EQ(Orientation({0, 0}, {1, 0}, {1, -1}), -1); // cw
  EXPECT_EQ(Orientation({0, 0}, {1, 0}, {2, 0}), 0);   // collinear
}

TEST(OrientationTest, NearCollinearIsCollinear) {
  EXPECT_EQ(Orientation({0, 0}, {1e6, 0}, {2e6, 1e-9}), 0);
}

TEST(PointOnSegmentTest, EndpointsAndMidpoints) {
  EXPECT_TRUE(PointOnSegment({0, 0}, {0, 0}, {2, 2}));
  EXPECT_TRUE(PointOnSegment({2, 2}, {0, 0}, {2, 2}));
  EXPECT_TRUE(PointOnSegment({1, 1}, {0, 0}, {2, 2}));
  EXPECT_FALSE(PointOnSegment({3, 3}, {0, 0}, {2, 2}));  // beyond the end
  EXPECT_FALSE(PointOnSegment({1, 1.5}, {0, 0}, {2, 2}));
}

TEST(SegmentsIntersectTest, ProperCrossing) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {2, 2}, {0, 2}, {2, 0}));
}

TEST(SegmentsIntersectTest, EndpointTouch) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {1, 1}, {1, 1}, {2, 0}));
}

TEST(SegmentsIntersectTest, CollinearOverlap) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {2, 0}, {1, 0}, {3, 0}));
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {1, 0}, {2, 0}, {3, 0}));
}

TEST(SegmentsIntersectTest, ParallelDisjoint) {
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {2, 0}, {0, 1}, {2, 1}));
}

TEST(SegmentsIntersectTest, TShapeTouch) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {2, 0}, {1, 0}, {1, 1}));
}

TEST(SegmentsIntersectTest, NearlyCollinearFarApartIsDisjoint) {
  // Two segments on almost the same line, far apart. Each has an endpoint
  // within the collinearity tolerance of the other's line, so the
  // orientations come out (-1, 0, -1, 0). That says "near the other line",
  // not "on the other segment": the segments' boxes are far apart.
  const Coordinate p1{0.70901728576658507, 0.046179861149300949};
  const Coordinate p2{1.7085991374900691, 0.075095630290913373};
  const Coordinate q1{-0.92758806196986865, -0.0011636378691382613};
  const Coordinate q2{-1.9271699136933713, -0.030079407010107806};
  ASSERT_EQ(Orientation(p1, p2, q1), -1);
  ASSERT_EQ(Orientation(p1, p2, q2), 0);
  ASSERT_EQ(Orientation(q1, q2, p1), -1);
  ASSERT_EQ(Orientation(q1, q2, p2), 0);
  EXPECT_FALSE(SegmentsIntersect(p1, p2, q1, q2));
  EXPECT_FALSE(SegmentsIntersect(q1, q2, p1, p2));
  EXPECT_GT(DistanceSegmentSegment(p1, p2, q1, q2), 1.0);
}

TEST(SegmentsIntersectTest, CrossingFromInsideTheToleranceBand) {
  // q really crosses p at (5, 0), but q1 lies 5e-12 below p: within the
  // collinearity tolerance of p's line, outside p's grown box. The
  // crossing must not depend on q1 passing PointOnSegment.
  const Coordinate p1{0, 0};
  const Coordinate p2{10, 0};
  const Coordinate q1{5, -5e-12};
  const Coordinate q2{5, 1};
  ASSERT_EQ(Orientation(p1, p2, q1), 0);
  ASSERT_FALSE(PointOnSegment(q1, p1, p2));
  EXPECT_TRUE(SegmentsIntersect(p1, p2, q1, q2));
  EXPECT_TRUE(SegmentsIntersect(q1, q2, p1, p2));
  EXPECT_TRUE(SegmentsIntersect(p2, p1, q2, q1));
}

TEST(SegmentsIntersectTest, CrossingNearBothStartPoints) {
  // q crosses p at (5e-12, 0). Both q1 and p1 are within tolerance of the
  // other line, so the orientations are (0, 1, 0, -1), and neither start
  // point lies in the other segment's grown box.
  const Coordinate p1{0, 0};
  const Coordinate p2{10, 0};
  const Coordinate q1{5e-12, -5e-12};
  const Coordinate q2{5e-12, 10};
  ASSERT_EQ(Orientation(p1, p2, q1), 0);
  ASSERT_EQ(Orientation(p1, p2, q2), 1);
  ASSERT_EQ(Orientation(q1, q2, p1), 0);
  ASSERT_EQ(Orientation(q1, q2, p2), -1);
  ASSERT_FALSE(PointOnSegment(q1, p1, p2));
  ASSERT_FALSE(PointOnSegment(p1, q1, q2));
  EXPECT_TRUE(SegmentsIntersect(p1, p2, q1, q2));
  EXPECT_TRUE(SegmentsIntersect(q1, q2, p1, p2));
}

Ring UnitSquare() {
  return {{0, 0}, {4, 0}, {4, 4}, {0, 4}, {0, 0}};
}

TEST(LocateInRingTest, InsideOutsideBoundary) {
  const Ring ring = UnitSquare();
  EXPECT_EQ(LocateInRing({2, 2}, ring), RingLocation::kInside);
  EXPECT_EQ(LocateInRing({5, 2}, ring), RingLocation::kOutside);
  EXPECT_EQ(LocateInRing({0, 2}, ring), RingLocation::kBoundary);
  EXPECT_EQ(LocateInRing({0, 0}, ring), RingLocation::kBoundary);
  EXPECT_EQ(LocateInRing({2, 4}, ring), RingLocation::kBoundary);
}

TEST(LocateInRingTest, ConcaveRing) {
  // U-shaped ring: the notch (2,3) is outside.
  const Ring ring = {{0, 0}, {6, 0}, {6, 6}, {4, 6}, {4, 2},
                     {2, 2}, {2, 6}, {0, 6}, {0, 0}};
  EXPECT_EQ(LocateInRing({1, 5}, ring), RingLocation::kInside);
  EXPECT_EQ(LocateInRing({5, 5}, ring), RingLocation::kInside);
  EXPECT_EQ(LocateInRing({3, 5}, ring), RingLocation::kOutside);  // notch
  EXPECT_EQ(LocateInRing({3, 1}, ring), RingLocation::kInside);   // below notch
}

TEST(LocateInRingTest, DegenerateRingIsOutside) {
  EXPECT_EQ(LocateInRing({0, 0}, Ring{{0, 0}, {1, 1}}),
            RingLocation::kOutside);
}

TEST(DistancePointSegmentTest, ProjectionCases) {
  EXPECT_DOUBLE_EQ(DistancePointSegment({0, 1}, {-1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(DistancePointSegment({3, 0}, {-1, 0}, {1, 0}), 2.0);
  EXPECT_DOUBLE_EQ(DistancePointSegment({0, 0}, {0, 0}, {0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(DistancePointSegment({1, 1}, {0, 0}, {2, 2}), 0.0);
}

TEST(DistanceSegmentSegmentTest, IntersectingIsZero) {
  EXPECT_EQ(DistanceSegmentSegment({0, 0}, {2, 2}, {0, 2}, {2, 0}), 0.0);
}

TEST(DistanceSegmentSegmentTest, ParallelGap) {
  EXPECT_DOUBLE_EQ(DistanceSegmentSegment({0, 0}, {2, 0}, {0, 3}, {2, 3}),
                   3.0);
}

TEST(DistanceSegmentSegmentTest, EndpointToEndpoint) {
  EXPECT_DOUBLE_EQ(DistanceSegmentSegment({0, 0}, {1, 0}, {4, 4}, {5, 5}),
                   5.0);  // (1,0) to (4,4): 3-4-5 triangle
}

TEST(SignedRingAreaTest, OrientationSign) {
  EXPECT_DOUBLE_EQ(SignedRingArea(UnitSquare()), 16.0);  // ccw positive
  Ring cw = UnitSquare();
  std::reverse(cw.begin(), cw.end());
  EXPECT_DOUBLE_EQ(SignedRingArea(cw), -16.0);
}

TEST(RingCentroidTest, SquareCentroid) {
  const Coordinate c = RingCentroid(UnitSquare());
  EXPECT_DOUBLE_EQ(c.x, 2.0);
  EXPECT_DOUBLE_EQ(c.y, 2.0);
}

TEST(RingCentroidTest, DegenerateFallsBackToVertexMean) {
  const Ring line = {{0, 0}, {2, 0}, {4, 0}, {0, 0}};
  const Coordinate c = RingCentroid(line);
  EXPECT_DOUBLE_EQ(c.x, 2.0);
  EXPECT_DOUBLE_EQ(c.y, 0.0);
}

// Property: SegmentsIntersect is symmetric in both segment order and
// endpoint order, over random segments.
TEST(KernelPropertyTest, SegmentIntersectSymmetry) {
  Rng rng(7);
  for (int trial = 0; trial < 1000; ++trial) {
    auto pt = [&] {
      return Coordinate{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    };
    const Coordinate a = pt(), b = pt(), c = pt(), d = pt();
    const bool r = SegmentsIntersect(a, b, c, d);
    EXPECT_EQ(r, SegmentsIntersect(c, d, a, b));
    EXPECT_EQ(r, SegmentsIntersect(b, a, d, c));
  }
}

// Property: if segments intersect, their distance is 0 and vice versa.
TEST(KernelPropertyTest, DistanceZeroIffIntersect) {
  Rng rng(8);
  for (int trial = 0; trial < 1000; ++trial) {
    auto pt = [&] {
      return Coordinate{rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
    };
    const Coordinate a = pt(), b = pt(), c = pt(), d = pt();
    const double dist = DistanceSegmentSegment(a, b, c, d);
    EXPECT_EQ(dist == 0.0, SegmentsIntersect(a, b, c, d));
  }
}

/// SegmentsIntersect without its grown-box test: the orientation rule
/// alone.
bool OrientationRuleIntersects(const Coordinate& p1, const Coordinate& p2,
                               const Coordinate& q1, const Coordinate& q2) {
  const int o1 = Orientation(p1, p2, q1);
  const int o2 = Orientation(p1, p2, q2);
  const int o3 = Orientation(q1, q2, p1);
  const int o4 = Orientation(q1, q2, p2);
  if (o1 != o2 && o3 != o4) return true;
  return (o1 == 0 && PointOnSegment(q1, p1, p2)) ||
         (o2 == 0 && PointOnSegment(q2, p1, p2)) ||
         (o3 == 0 && PointOnSegment(p1, q1, q2)) ||
         (o4 == 0 && PointOnSegment(p2, q1, q2));
}

// Property: SegmentsIntersect differs from the orientation rule alone only
// for segments whose grown boxes are apart, which share no point. Checked
// on segment pairs built to sit in Orientation's tolerance band: a
// segment's endpoint, or a point of it, nudged off it by less than the
// band's width, as the end of a second segment; at magnitudes 1 to 1e6.
TEST(KernelPropertyTest, SegmentsIntersectIsOrientationRuleOnNearbyBoxes) {
  Rng rng(19);
  size_t band_hits = 0;
  size_t box_rejects = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const double magnitude = std::pow(10.0, rng.UniformInt(0, 6));
    const double length = rng.Uniform(0.5, 20.0);
    const double angle = rng.Uniform(0.0, 6.283185307179586);
    const Coordinate u{std::cos(angle), std::sin(angle)};
    const Coordinate n{-u.y, u.x};
    const Coordinate o{magnitude * rng.Uniform(-1, 1),
                       magnitude * rng.Uniform(-1, 1)};
    const auto at = [&](double t, double off) {
      return Coordinate{o.x + t * u.x + off * n.x, o.y + t * u.y + off * n.y};
    };
    const auto nudge = [&] {
      return length * std::pow(10.0, rng.Uniform(-14.0, -10.0)) *
             (rng.Uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0);
    };
    const Coordinate p1 = at(0, 0);
    const Coordinate p2 = at(length, 0);
    // Where q starts: near p's line, before, on or beyond p; and where it
    // heads: across p, along p's line, or off at a random angle.
    const double t = rng.Uniform(-0.5, 1.5) * length;
    const Coordinate q1 = at(t, nudge());
    Coordinate q2;
    switch (trial % 3) {
      case 0:
        q2 = at(t + rng.Uniform(-1, 1), rng.Uniform(-5, 5));
        break;
      case 1:
        q2 = at(t + rng.Uniform(-2, 2) * length, nudge());
        break;
      default:
        q2 = {q1.x + rng.Uniform(-5, 5), q1.y + rng.Uniform(-5, 5)};
        break;
    }
    const bool boxes_meet =
        GrownSegmentBox(p1, p2).Overlaps(GrownSegmentBox(q1, q2));
    const bool rule = OrientationRuleIntersects(p1, p2, q1, q2);
    ASSERT_EQ(SegmentsIntersect(p1, p2, q1, q2), boxes_meet && rule)
        << trial;
    // In the tolerance band the rule depends on the argument order.
    ASSERT_EQ(SegmentsIntersect(q2, q1, p2, p1),
              boxes_meet && OrientationRuleIntersects(q2, q1, p2, p1))
        << trial;
    if (boxes_meet && rule && Orientation(p1, p2, q1) == 0 &&
        !PointOnSegment(q1, p1, p2)) {
      ++band_hits;
    }
    if (!boxes_meet && rule) ++box_rejects;
  }
  // Both sides of the rule must be exercised: intersections that rely on
  // an endpoint in the band but off the segment, and band "touches" that
  // the boxes reject.
  EXPECT_GT(band_hits, 100u);
  EXPECT_GT(box_rejects, 40u);
}

}  // namespace
}  // namespace stark
