// Differential testing of PreparedGeometry and BoundPredicate against the
// plain predicate entry points: over the shared fuzz corpus, every prepared
// evaluation must return exactly what the unprepared call returns —
// including bit-identical distances — and the preparation counters must
// reflect one miss per distinct geometry plus a hit per reuse.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stobject.h"
#include "geometry/geometry.h"
#include "geometry/kernels.h"
#include "geometry/predicates.h"
#include "geometry/prepared.h"
#include "spatial_rdd/predicate.h"
#include "test_util.h"

namespace stark {
namespace {

using test::RandomPopulation;

// ---------------------------------------------------------------------------
// PreparedGeometry vs plain predicates on the fuzz corpus
// ---------------------------------------------------------------------------

TEST(PreparedGeometryTest, AgreesWithPlainPredicatesOnFuzzCorpus) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/60708, 120);
  size_t intersecting = 0;
  for (size_t i = 0; i < pop.size(); ++i) {
    const PreparedGeometry prep(pop[i]);
    EXPECT_TRUE(prep.envelope() == pop[i].envelope());
    for (size_t j = 0; j < pop.size(); ++j) {
      const Geometry& other = pop[j];
      // IntersectedBy(other) == Intersects(other, mine).
      const bool expected_isect = Intersects(other, pop[i]);
      ASSERT_EQ(prep.IntersectedBy(other), expected_isect)
          << pop[i].ToWkt() << " vs " << other.ToWkt();
      // Contains(other) == Contains(mine, other); ContainedBy mirrors.
      ASSERT_EQ(prep.Contains(other), Contains(pop[i], other))
          << pop[i].ToWkt() << " vs " << other.ToWkt();
      ASSERT_EQ(prep.ContainedBy(other), Contains(other, pop[i]))
          << pop[i].ToWkt() << " vs " << other.ToWkt();
      // DistanceFrom replicates Distance(other, mine) exactly — same part
      // order, same arithmetic — so plain == comparison is the contract.
      ASSERT_EQ(prep.DistanceFrom(other), Distance(other, pop[i]))
          << pop[i].ToWkt() << " vs " << other.ToWkt();
      if (expected_isect) ++intersecting;
    }
  }
  // The corpus must exercise hits, not only misses.
  EXPECT_GT(intersecting, 100u);
}

// ---------------------------------------------------------------------------
// Polygon-heavy corpus against an unpruned reference
// ---------------------------------------------------------------------------

constexpr double kTwoPi = 6.283185307179586;

/// A ring of \p n vertices at evenly spaced, slightly jittered angles and
/// radii in [0.8, 1] x \p radius: convex enough that \p center is inside
/// and a ring of a third of the radius around it stays clear of the edges.
Ring JitteredRing(Rng* rng, const Coordinate& center, double radius, int n) {
  Ring ring;
  for (int i = 0; i < n; ++i) {
    const double a = kTwoPi * i / n + rng->Uniform(-0.1, 0.1);
    const double r = radius * rng->Uniform(0.8, 1.0);
    ring.push_back({center.x + r * std::cos(a), center.y + r * std::sin(a)});
  }
  return ring;
}

/// \p g moved by (dx, dy).
Geometry Translated(const Geometry& g, double dx, double dy) {
  const auto move = [dx, dy](std::vector<Coordinate> coords) {
    for (Coordinate& c : coords) c = {c.x + dx, c.y + dy};
    return coords;
  };
  switch (g.type()) {
    case GeometryType::kPoint:
      return Geometry::MakePoint(g.AsPoint().x + dx, g.AsPoint().y + dy);
    case GeometryType::kMultiPoint:
      return Geometry::MakeMultiPoint(move(g.coordinates())).ValueOrDie();
    case GeometryType::kLineString:
      return Geometry::MakeLineString(move(g.coordinates())).ValueOrDie();
    case GeometryType::kPolygon:
    case GeometryType::kMultiPolygon:
      break;
  }
  std::vector<PolygonData> polys = g.polygons();
  for (PolygonData& poly : polys) {
    poly.shell = move(poly.shell);
    for (Ring& hole : poly.holes) hole = move(hole);
  }
  if (g.type() == GeometryType::kPolygon) {
    return Geometry::MakePolygon(polys[0].shell, polys[0].holes).ValueOrDie();
  }
  return Geometry::MakeMultiPolygon(std::move(polys)).ValueOrDie();
}

/// Shapes that stress the boundary loop: star polygons of 4-12 vertices,
/// polygons with holes, multipolygons, grid-snapped boxes, triangles, lines
/// and points (shared edges, T-junctions, collinear overlaps, touching
/// corners), lines and triangles that cross or touch a box edge from
/// within its collinearity tolerance, nearly collinear triangle pairs, and
/// copies of a third of them at magnitudes 1e4-1e6, where kSegmentEps is
/// below one ulp.
std::vector<Geometry> PolygonHeavyPopulation(uint64_t seed) {
  Rng rng(seed);
  std::vector<Geometry> local;
  const auto center = [&rng] {
    return Coordinate{rng.Uniform(0.0, 24.0), rng.Uniform(0.0, 24.0)};
  };
  for (int i = 0; i < 30; ++i) {
    const Coordinate c = center();
    const double radius = rng.Uniform(0.5, 6.0);
    const int n = static_cast<int>(rng.UniformInt(4, 12));
    local.push_back(test::StarPolygonAround(&rng, c, radius, n));
  }
  for (int i = 0; i < 12; ++i) {
    const Coordinate c = center();
    const double radius = rng.Uniform(2.0, 6.0);
    const int n = static_cast<int>(rng.UniformInt(4, 10));
    Ring shell = JitteredRing(&rng, c, radius, n);
    Ring hole = JitteredRing(&rng, c, radius / 3, 4);
    local.push_back(
        Geometry::MakePolygon(std::move(shell), {std::move(hole)})
            .ValueOrDie());
  }
  for (int i = 0; i < 12; ++i) {
    std::vector<PolygonData> parts;
    const int count = static_cast<int>(rng.UniformInt(2, 3));
    for (int k = 0; k < count; ++k) {
      const Coordinate c = center();
      const double radius = rng.Uniform(0.5, 3.0);
      const int n = static_cast<int>(rng.UniformInt(4, 8));
      parts.push_back({JitteredRing(&rng, c, radius, n), {}});
    }
    local.push_back(Geometry::MakeMultiPolygon(std::move(parts)).ValueOrDie());
  }
  const auto grid = [&rng] {
    return static_cast<double>(rng.UniformInt(0, 12));
  };
  for (int i = 0; i < 60; ++i) {
    const double x = grid();
    const double y = grid();
    const auto w = static_cast<double>(rng.UniformInt(1, 4));
    const auto h = static_cast<double>(rng.UniformInt(1, 4));
    // A box, and a shape with a vertex just outside the box's bottom or top
    // edge, within the edge's collinearity tolerance. The shape's first
    // vertex is outside the box, so the boundary loop decides. Either the
    // vertex is outside the edge's grown box and a line or triangle reaches
    // from it into the box, or it is inside the grown box and a line bent
    // around the box ends there, touching the box only within tolerance.
    const double mid = x + w / 2;
    const double top = y + h;
    const auto near_edge = [&]() -> Geometry {
      if ((i / 6) % 2 == 0) {
        const Coordinate tip{mid, y - 5e-12};
        if (i % 6 == 4) {
          return Geometry::MakeLineString({tip, {mid, top}}).ValueOrDie();
        }
        return Geometry::MakePolygon({tip, {x + w, top}, {x, top}})
            .ValueOrDie();
      }
      if (i % 6 == 4) {
        return Geometry::MakeLineString(
                   {{x - 1, top}, {x - 1, y - 1}, {mid, y - 5e-13}})
            .ValueOrDie();
      }
      return Geometry::MakeLineString(
                 {{x + w + 1, y}, {x + w + 1, top + 1}, {mid, top + 5e-13}})
          .ValueOrDie();
    };
    switch (i % 6) {
      case 0:
        local.push_back(Geometry::MakeBox(Envelope(x, y, x + w, y + h)));
        break;
      case 1:
        local.push_back(
            Geometry::MakePolygon({{x, y}, {x + w, y}, {x, y + h}})
                .ValueOrDie());
        break;
      case 2:
        local.push_back(
            Geometry::MakeLineString({{x, y}, {x + w, y}, {x + w, y + h}})
                .ValueOrDie());
        break;
      case 3:
        local.push_back(Geometry::MakePoint(x + w / 2, y));
        break;
      default:
        local.push_back(Geometry::MakeBox(Envelope(x, y, x + w, y + h)));
        local.push_back(near_edge());
        break;
    }
  }
  // Triangle pairs with one edge each on almost the same line, apart or
  // just touching along it; endpoints sit within, at and beyond the
  // collinearity tolerance of that line.
  constexpr double kOffsets[] = {0.0, 1e-14, -1e-13, 3e-12, -1e-10};
  const auto offset = [&rng, &kOffsets] {
    return kOffsets[rng.UniformInt(0, 4)];
  };
  for (int i = 0; i < 14; ++i) {
    const Coordinate o = center();
    const double angle = rng.Uniform(0.0, kTwoPi);
    const Coordinate u{std::cos(angle), std::sin(angle)};
    const auto at = [&](double t, double off) {
      return Coordinate{o.x + t * u.x - off * u.y, o.y + t * u.y + off * u.x};
    };
    const double gap = i % 2 == 0 ? 0.0 : rng.Uniform(0.1, 2.0);
    const double len_a = rng.Uniform(0.5, 3.0);
    const double len_b = rng.Uniform(0.5, 3.0);
    const double side = rng.Uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0;
    const Coordinate p1 = at(gap / 2, offset());
    const Coordinate p2 = at(gap / 2 + len_a, offset());
    const Coordinate apex_a = at(gap / 2 + len_a / 2, rng.Uniform(1.0, 3.0));
    const Coordinate q1 = at(-gap / 2, offset());
    const Coordinate q2 = at(-gap / 2 - len_b, offset());
    const Coordinate apex_b =
        at(-gap / 2 - len_b / 2, side * rng.Uniform(1.0, 3.0));
    local.push_back(Geometry::MakePolygon({p1, p2, apex_a}).ValueOrDie());
    local.push_back(Geometry::MakePolygon({q1, q2, apex_b}).ValueOrDie());
  }
  const Coordinate p1{0.70901728576658507, 0.046179861149300949};
  const Coordinate p2{1.7085991374900691, 0.075095630290913373};
  const Coordinate q1{-0.92758806196986865, -0.0011636378691382613};
  const Coordinate q2{-1.9271699136933713, -0.030079407010107806};
  local.push_back(Geometry::MakePolygon({p1, p2, {1.2, -3.0}}).ValueOrDie());
  local.push_back(Geometry::MakePolygon({q1, q2, {1.0, -5.0}}).ValueOrDie());

  std::vector<Geometry> out = local;
  for (const double magnitude : {1.0e4, 2.5e5, 1.0e6}) {
    for (size_t i = 0; i < local.size(); i += 3) {
      out.push_back(Translated(local[i], magnitude, magnitude + 0.5));
    }
  }
  return out;
}

/// One simple part, read through the public Geometry accessors.
struct RefPart {
  GeometryType type;  // kPoint, kLineString or kPolygon
  Coordinate point{};
  std::vector<const std::vector<Coordinate>*> paths;  // line, or the rings
  const PolygonData* poly = nullptr;
};

std::vector<RefPart> RefParts(const Geometry& g) {
  std::vector<RefPart> parts;
  switch (g.type()) {
    case GeometryType::kPoint:
      parts.push_back({GeometryType::kPoint, g.AsPoint(), {}, nullptr});
      break;
    case GeometryType::kMultiPoint:
      for (const Coordinate& c : g.coordinates()) {
        parts.push_back({GeometryType::kPoint, c, {}, nullptr});
      }
      break;
    case GeometryType::kLineString:
      parts.push_back(
          {GeometryType::kLineString, {}, {&g.coordinates()}, nullptr});
      break;
    case GeometryType::kPolygon:
    case GeometryType::kMultiPolygon:
      for (const PolygonData& poly : g.polygons()) {
        RefPart part{GeometryType::kPolygon, {}, {&poly.shell}, &poly};
        for (const Ring& hole : poly.holes) part.paths.push_back(&hole);
        parts.push_back(part);
      }
      break;
  }
  return parts;
}

/// What the unpruned reference found for one geometry pair.
struct RefResult {
  bool intersects = false;
  double distance = std::numeric_limits<double>::infinity();
  size_t skippable = 0;   ///< segment pairs whose grown boxes miss
  bool boundary_hit = false;  ///< a part pair settled only by its boundary
};

/// The intersects and distance definitions with no pruning: the envelope
/// prefilter of Intersects, then for every part pair every segment pair
/// through SegmentsIntersect plus both point-in-polygon tests; boundary
/// distances over every segment pair when the parts are apart.
RefResult Reference(const Geometry& a, const Geometry& b) {
  RefResult out;
  bool any_part_meets = false;
  for (RefPart pa : RefParts(a)) {
    for (RefPart pb : RefParts(b)) {
      if (static_cast<int>(pa.type) > static_cast<int>(pb.type)) {
        std::swap(pa, pb);
      }
      bool meets = false;
      double dist = std::numeric_limits<double>::infinity();
      if (pa.type == GeometryType::kPoint) {
        const Coordinate& p = pa.point;
        if (pb.type == GeometryType::kPoint) {
          meets = std::abs(p.x - pb.point.x) <= 1e-12 &&
                  std::abs(p.y - pb.point.y) <= 1e-12;
          dist = p.DistanceTo(pb.point);
        } else {
          if (pb.poly != nullptr) {
            meets = LocateInPolygon(p, *pb.poly) != RingLocation::kOutside;
          }
          for (const auto* path : pb.paths) {
            for (size_t i = 0; i + 1 < path->size(); ++i) {
              const Coordinate& c = (*path)[i];
              const Coordinate& d = (*path)[i + 1];
              if (pb.poly == nullptr) meets = meets || PointOnSegment(p, c, d);
              dist = std::min(dist, DistancePointSegment(p, c, d));
            }
          }
        }
      } else {
        bool pip = false;
        if (pb.poly != nullptr) {
          pip = LocateInPolygon(pa.paths[0]->front(), *pb.poly) !=
                RingLocation::kOutside;
        }
        if (pa.poly != nullptr) {
          pip = pip || LocateInPolygon(pb.poly->shell.front(), *pa.poly) !=
                           RingLocation::kOutside;
        }
        bool crossing = false;
        for (const auto* pp : pa.paths) {
          for (size_t i = 0; i + 1 < pp->size(); ++i) {
            for (const auto* qp : pb.paths) {
              for (size_t j = 0; j + 1 < qp->size(); ++j) {
                const Coordinate& p1 = (*pp)[i];
                const Coordinate& p2 = (*pp)[i + 1];
                const Coordinate& q1 = (*qp)[j];
                const Coordinate& q2 = (*qp)[j + 1];
                crossing = crossing || SegmentsIntersect(p1, p2, q1, q2);
                if (!GrownSegmentBox(p1, p2).Overlaps(
                        GrownSegmentBox(q1, q2))) {
                  ++out.skippable;
                }
                dist = std::min(dist,
                                DistanceSegmentSegment(p1, p2, q1, q2));
              }
            }
          }
        }
        meets = pip || crossing;
        out.boundary_hit = out.boundary_hit || (crossing && !pip);
      }
      any_part_meets = any_part_meets || meets;
      out.distance = std::min(out.distance, meets ? 0.0 : dist);
    }
  }
  out.intersects = a.envelope().Intersects(b.envelope()) && any_part_meets;
  return out;
}

TEST(PreparedGeometryTest, PolygonHeavyCorpusMatchesUnprunedReference) {
  const std::vector<Geometry> pop = PolygonHeavyPopulation(/*seed=*/190419);
  std::vector<STObject> objs(pop.begin(), pop.end());
  const JoinPredicate intersects = JoinPredicate::Intersects();
  size_t hits_with_skips = 0;
  size_t misses_with_skips = 0;
  for (size_t i = 0; i < pop.size(); ++i) {
    const PreparedGeometry prep(pop[i]);
    const BoundPredicate cand_left(intersects, objs[i],
                                   BoundPredicate::Side::kCandidateLeft);
    const BoundPredicate cand_right(intersects, objs[i],
                                    BoundPredicate::Side::kCandidateRight);
    for (size_t j = 0; j < pop.size(); ++j) {
      const Geometry& other = pop[j];
      const RefResult ref = Reference(other, pop[i]);
      ASSERT_EQ(Intersects(other, pop[i]), ref.intersects)
          << other.ToWkt() << " vs " << pop[i].ToWkt();
      ASSERT_EQ(Intersects(pop[i], other), ref.intersects)
          << pop[i].ToWkt() << " vs " << other.ToWkt();
      ASSERT_EQ(prep.IntersectedBy(other), ref.intersects)
          << pop[i].ToWkt() << " prepared vs " << other.ToWkt();
      ASSERT_EQ(cand_left.Eval(objs[j]), ref.intersects) << i << ", " << j;
      ASSERT_EQ(cand_right.Eval(objs[j]), ref.intersects) << i << ", " << j;
      ASSERT_EQ(Distance(other, pop[i]), ref.distance)
          << other.ToWkt() << " vs " << pop[i].ToWkt();
      ASSERT_EQ(Distance(pop[i], other), ref.distance)
          << pop[i].ToWkt() << " vs " << other.ToWkt();
      ASSERT_EQ(prep.DistanceFrom(other), ref.distance)
          << pop[i].ToWkt() << " prepared vs " << other.ToWkt();
      if (ref.skippable == 0) continue;
      if (ref.intersects && ref.boundary_hit) ++hits_with_skips;
      if (!ref.intersects) ++misses_with_skips;
    }
  }
  // The pruning must have had pairs to skip on both sides of the answer:
  // hits found through the boundary loop, and misses.
  EXPECT_GT(hits_with_skips, 200u);
  EXPECT_GT(misses_with_skips, 200u);
}

// ---------------------------------------------------------------------------
// BoundPredicate vs JoinPredicate::Eval, both candidate sides, with and
// without temporal components
// ---------------------------------------------------------------------------

std::vector<STObject> MakeObjects(const std::vector<Geometry>& pop) {
  // Mix of no-time, instant, and interval objects so the combined
  // spatio-temporal rule (paper formulas (1)-(3)) is exercised end to end.
  std::vector<STObject> out;
  out.reserve(pop.size());
  for (size_t i = 0; i < pop.size(); ++i) {
    switch (i % 3) {
      case 0:
        out.emplace_back(pop[i]);
        break;
      case 1:
        out.emplace_back(pop[i], static_cast<Instant>(100 + i % 7));
        break;
      default:
        out.emplace_back(pop[i], static_cast<Instant>(i % 5),
                         static_cast<Instant>(i % 5 + 10));
        break;
    }
  }
  return out;
}

TEST(BoundPredicateTest, MatchesJoinPredicateEvalBothSides) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/424242, 90);
  const std::vector<STObject> objs = MakeObjects(pop);

  const std::vector<JoinPredicate> preds = {
      JoinPredicate::Intersects(),
      JoinPredicate::Contains(),
      JoinPredicate::ContainedBy(),
      JoinPredicate::WithinDistance(3.5),
  };
  for (const JoinPredicate& pred : preds) {
    for (size_t f = 0; f < objs.size(); f += 9) {
      const STObject& fixed = objs[f];
      BoundPredicate as_right(pred, fixed,
                              BoundPredicate::Side::kCandidateLeft);
      BoundPredicate as_left(pred, fixed,
                             BoundPredicate::Side::kCandidateRight);
      for (const STObject& cand : objs) {
        ASSERT_EQ(as_right.Eval(cand), pred.Eval(cand, fixed))
            << PredicateName(pred.type) << " candidate-left, fixed " << f;
        ASSERT_EQ(as_left.Eval(cand), pred.Eval(fixed, cand))
            << PredicateName(pred.type) << " candidate-right, fixed " << f;
      }
    }
  }
}

TEST(BoundPredicateTest, PreparesOnceAndCountsReuse) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/5150, 40);
  const std::vector<STObject> objs = MakeObjects(pop);
  const STObject& fixed = objs[0];
  const JoinPredicate pred = JoinPredicate::Intersects();

  BoundPredicate bound(pred, fixed, BoundPredicate::Side::kCandidateLeft);
  EXPECT_EQ(bound.prepared_misses(), 0u);  // nothing until the first Eval
  EXPECT_EQ(bound.prepared_hits(), 0u);
  for (const STObject& cand : objs) bound.Eval(cand);
  EXPECT_EQ(bound.prepared_misses(), 1u);
  EXPECT_EQ(bound.prepared_hits(), objs.size() - 1);
}

TEST(BoundPredicateTest, CustomDistanceFunctionBypassesPreparation) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/321, 30);
  const std::vector<STObject> objs = MakeObjects(pop);
  const JoinPredicate pred = JoinPredicate::WithinDistance(
      5.0, [](const STObject& a, const STObject& b) {
        return EuclideanDistance(a, b);
      });

  BoundPredicate bound(pred, objs[0], BoundPredicate::Side::kCandidateLeft);
  for (const STObject& cand : objs) {
    ASSERT_EQ(bound.Eval(cand), pred.Eval(cand, objs[0]));
  }
  // The custom function never interrogates the prepared form.
  EXPECT_EQ(bound.prepared_misses(), 0u);
  EXPECT_EQ(bound.prepared_hits(), 0u);
}

// ---------------------------------------------------------------------------
// PreparedGeometryCache bookkeeping
// ---------------------------------------------------------------------------

TEST(PreparedGeometryCacheTest, OneMissPerDistinctGeometry) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/888, 10);
  PreparedGeometryCache cache;
  for (int round = 0; round < 4; ++round) {
    for (const Geometry& g : pop) {
      const PreparedGeometry& p = cache.Get(g);
      ASSERT_EQ(&p.geometry(), &g);
    }
  }
  EXPECT_EQ(cache.misses(), pop.size());
  EXPECT_EQ(cache.hits(), 3 * pop.size());
  EXPECT_EQ(cache.size(), pop.size());
}

}  // namespace
}  // namespace stark
