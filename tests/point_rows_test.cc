// Point rows: a point Geometry keeps its coordinate inline (no heap
// allocation, unchanged bytes), and the point-slab kernels' point-operand
// branch returns exactly what per-candidate PreparedGeometry calls return.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "common/rng.h"
#include "core/st_serde.h"
#include "geometry/kernels.h"
#include "geometry/prepared.h"

namespace stark {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::nan("");

// ---- Inline storage --------------------------------------------------------

TEST(PointRowsTest, PointValuesNeverAllocate) {
  if (!test::kAllocCounterLive) {
    GTEST_SKIP() << "the sanitizer runtime owns operator new";
  }
  // The counter is live: a one-element vector and a linestring copy count.
  size_t before = test::AllocationsOnThisThread();
  {
    std::vector<Coordinate> one(1);
    const Geometry line =
        Geometry::MakeLineString({{0, 0}, {1, 1}}).ValueOrDie();
    const Geometry line_copy = line;
    EXPECT_EQ(line_copy, line);
  }
  EXPECT_GE(test::AllocationsOnThisThread() - before, 3u);

  BinaryWriter encoded;
  WriteSTObject(&encoded, STObject(Geometry::MakePoint(5, 6), 1, 2));

  before = test::AllocationsOnThisThread();
  {
    Geometry a = Geometry::MakePoint(1, 2);
    Geometry b = a;                        // copy
    Geometry c = std::move(b);             // move
    b = c;                                 // copy-assign
    c = std::move(a);                      // move-assign
    a = Geometry::MakePoint(Coordinate{3, 4});
    STObject s(a, 7, 9);
    STObject t = s;                        // copy
    STObject u = std::move(t);             // move
    t = u;                                 // copy-assign
    u = STObject(Geometry::MakePoint(8, 9));  // move-assign
    std::pair<STObject, int64_t> row(s, 1);
    std::pair<STObject, int64_t> row_copy = row;
    BinaryReader reader(encoded.buffer());
    Result<STObject> decoded = ReadSTObject(&reader);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(b.AsPoint().x, 1.0);
    EXPECT_EQ(c.AsPoint().y, 2.0);
    EXPECT_EQ(t.geo().AsPoint().x, 3.0);
    EXPECT_EQ(u.geo().AsPoint().y, 9.0);
    EXPECT_EQ(row_copy.first, row.first);
    EXPECT_EQ(decoded.ValueOrDie().geo().AsPoint().x, 5.0);
  }
  EXPECT_EQ(test::AllocationsOnThisThread() - before, 0u);
}

TEST(PointRowsTest, PointAccessorsSeeTheInlineCoordinate) {
  const Geometry p = Geometry::MakePoint(2.5, -1.0);
  EXPECT_TRUE(p.coordinates().empty());
  EXPECT_EQ(p.AsPoint(), (Coordinate{2.5, -1.0}));
  EXPECT_EQ(p.Centroid(), (Coordinate{2.5, -1.0}));
  EXPECT_EQ(p.NumCoordinates(), 1u);
  EXPECT_EQ(p.envelope(), Envelope(2.5, -1.0, 2.5, -1.0));
  EXPECT_EQ(p, Geometry::MakePoint(2.5, -1.0));
  EXPECT_FALSE(p == Geometry::MakePoint(2.5, -0.5));
  EXPECT_FALSE(p == Geometry::MakeMultiPoint({{2.5, -1.0}}).ValueOrDie());
  // NaN compares unequal, as coordinate vectors did.
  const Geometry n = Geometry::MakePoint(kNaN, 1.0);
  EXPECT_FALSE(n == n);
  EXPECT_TRUE(n.envelope().IsEmpty());
}

/// Lower-case hex of \p bytes.
std::string Hex(const std::vector<char>& bytes) {
  std::string out;
  char buf[3];
  for (char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned char>(c));
    out += buf;
  }
  return out;
}

// The geometry and STObject bytes and the WKT text of a point, captured
// from the coordinate-vector layout this one replaced: a point is still a
// one-element coordinate list on disk and on the wire.
TEST(PointRowsTest, PointBytesAndWktMatchTheGolden) {
  struct Golden {
    double x, y;
    const char* geo_hex;
    const char* wkt;
  };
  const Golden golden[] = {
      {1.5, -2.25, "000100000000000000000000000000f83f00000000000002c0",
       "POINT (1.5 -2.25)"},
      {0.0, -0.0, "00010000000000000000000000000000000000000000000080",
       "POINT (0 0)"},
      {-kInf, kInf, "000100000000000000000000000000f0ff000000000000f07f",
       "POINT (-inf inf)"},
      {1e9, -1e-9, "0001000000000000000000000065cdcd4195d626e80b2e11be",
       "POINT (1000000000 -1e-09)"},
      {0.1, 1.0 / 3.0, "0001000000000000009a9999999999b93f555555555555d53f",
       "POINT (0.1 0.3333333333333333)"},
      {kNaN, 7.0, "000100000000000000000000000000f87f0000000000001c40",
       "POINT (nan 7)"},
      {123456789.125, -0.000244140625,
       "00010000000000000000008054346f9d4100000000000030bf",
       "POINT (123456789.125 -0.000244140625)"},
  };
  for (const Golden& g : golden) {
    const Geometry p = Geometry::MakePoint(g.x, g.y);
    BinaryWriter w;
    WriteGeometry(&w, p);
    EXPECT_EQ(Hex(w.buffer()), g.geo_hex) << g.wkt;
    EXPECT_EQ(p.ToWkt(), g.wkt);
    // An STObject appends its time flag and interval.
    BinaryWriter st;
    WriteSTObject(&st, STObject(p, 3, 9));
    EXPECT_EQ(Hex(st.buffer()),
              std::string(g.geo_hex) + "0103000000000000000900000000000000")
        << g.wkt;
    BinaryReader r(st.buffer());
    Result<STObject> back = ReadSTObject(&r);
    ASSERT_TRUE(back.ok());
    BinaryWriter again;
    WriteSTObject(&again, back.ValueOrDie());
    EXPECT_EQ(again.buffer(), st.buffer()) << g.wkt;
  }
}

// ---- Point-operand kernel branch -------------------------------------------

/// Coordinates a point-vs-point test must get right: zeros of both signs,
/// infinities, NaN, values kPointEps and just over it apart from the
/// operand (exactly so for an operand of 0), and magnitudes up to 1e9.
std::vector<double> SpecialValuesNear(double q) {
  const double eps = 1e-12;
  return {q,        0.0,      -0.0,    kInf,    -kInf,
          kNaN,     1e9,      -1e9,    q + eps, q - eps,
          std::nextafter(q + eps, kInf), std::nextafter(q - eps, -kInf),
          std::nextafter(q, kInf),       q + 0.5};
}

/// Survivors of \p kernel over every row of the slab, in row order.
template <typename Kernel>
std::vector<uint32_t> Survivors(const std::vector<double>& px,
                                const std::vector<double>& py,
                                const Kernel& kernel) {
  std::vector<uint32_t> cand(px.size());
  for (uint32_t i = 0; i < cand.size(); ++i) cand[i] = i;
  std::vector<uint32_t> out(cand.size());
  out.resize(kernel(px.data(), py.data(), cand.data(), cand.size(),
                    out.data()));
  return out;
}

/// Rows whose coordinate passes \p keep, in row order.
template <typename Keep>
std::vector<uint32_t> Expected(const std::vector<double>& px,
                               const std::vector<double>& py,
                               const Keep& keep) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < px.size(); ++i) {
    if (keep(Coordinate{px[i], py[i]})) out.push_back(i);
  }
  return out;
}

/// Checks all four kernels against per-candidate PreparedGeometry calls for
/// a prepared point \p q over the slab (px, py).
void ExpectKernelsMatchPrepared(const Coordinate& q,
                                const std::vector<double>& px,
                                const std::vector<double>& py,
                                const std::vector<double>& distances) {
  const Geometry g = Geometry::MakePoint(q);
  const PreparedGeometry prep(g);
  const std::string where = "q = (" + std::to_string(q.x) + ", " +
                            std::to_string(q.y) + ")";
  EXPECT_EQ(Survivors(px, py,
                      [&](const double* x, const double* y, const uint32_t* c,
                          size_t n, uint32_t* o) {
                        return RefineIntersectsBatch(prep, x, y, c, n, o);
                      }),
            Expected(px, py,
                     [&](const Coordinate& p) {
                       return prep.IntersectsPoint(p);
                     }))
      << "intersects, " << where;
  EXPECT_EQ(Survivors(px, py,
                      [&](const double* x, const double* y, const uint32_t* c,
                          size_t n, uint32_t* o) {
                        return RefineContainsBatch(prep, x, y, c, n, o);
                      }),
            Expected(px, py,
                     [&](const Coordinate& p) {
                       return prep.ContainsPoint(p);
                     }))
      << "contains, " << where;
  EXPECT_EQ(Survivors(px, py,
                      [&](const double* x, const double* y, const uint32_t* c,
                          size_t n, uint32_t* o) {
                        return RefineContainedByBatch(prep, x, y, c, n, o);
                      }),
            Expected(px, py,
                     [&](const Coordinate& p) {
                       return prep.ContainedByPoint(p);
                     }))
      << "contained by, " << where;
  for (const double d : distances) {
    EXPECT_EQ(Survivors(px, py,
                        [&](const double* x, const double* y,
                            const uint32_t* c, size_t n, uint32_t* o) {
                          return RefineWithinDistanceBatch(prep, x, y, c, n, d,
                                                           o);
                        }),
              Expected(px, py,
                       [&](const Coordinate& p) {
                         return prep.DistanceFromPoint(p) <= d;
                       }))
        << "within distance " << d << ", " << where;
  }
}

TEST(PointKernelTest, PointOperandMatchesPreparedPerCandidate) {
  Rng rng(2024);
  std::vector<Coordinate> operands = {
      {0.0, 0.0},   {-0.0, 0.0}, {1.0, -1.0},   {1e9, -1e9},
      {kInf, 0.0},  {0.0, -kInf}, {kInf, kInf}, {kNaN, 0.0},
      {0.0, kNaN},  {kNaN, kNaN}, {1e-12, 0.0}, {0.3, 0.7}};
  for (int i = 0; i < 40; ++i) {
    const double scale = i % 2 == 0 ? 1.0 : 1e9;
    operands.push_back(
        {rng.Uniform(-scale, scale), rng.Uniform(-scale, scale)});
  }
  size_t rows_checked = 0;
  for (const Coordinate& q : operands) {
    // Every combination of special x and y values around q, plus seeded
    // random rows around it and across the plane.
    std::vector<double> px, py;
    for (const double x : SpecialValuesNear(q.x)) {
      for (const double y : SpecialValuesNear(q.y)) {
        px.push_back(x);
        py.push_back(y);
      }
    }
    for (int i = 0; i < 200; ++i) {
      const bool near = i % 2 == 0;
      px.push_back(near ? q.x + rng.Uniform(-2e-12, 2e-12)
                        : rng.Uniform(-1e9, 1e9));
      py.push_back(near ? q.y + rng.Uniform(-2e-12, 2e-12)
                        : rng.Uniform(-1.0, 1.0));
    }
    // Distances: the four edge values, seeded ones, and the exact distance
    // to a few rows so the <= boundary is met.
    std::vector<double> distances = {0.0, -1.0, kInf, kNaN, 1e-12,
                                     rng.Uniform(0.0, 1.0),
                                     rng.Uniform(0.0, 1e9)};
    for (size_t r = 0; r < px.size(); r += 37) {
      distances.push_back(Coordinate{px[r], py[r]}.DistanceTo(q));
    }
    ExpectKernelsMatchPrepared(q, px, py, distances);
    rows_checked += px.size();
  }
  EXPECT_GT(rows_checked, 10000u);
}

// The cases the point branch must not lose, pinned by value: kPointEps
// makes a distance within 1e-12 zero, a NaN row is +inf away (so it is
// within an infinite distance), and two points at the same infinity do not
// intersect.
TEST(PointKernelTest, PointOperandEdgeCasesByValue) {
  const std::vector<double> px = {1e-12, std::nextafter(1e-12, 1.0), kNaN, 0.0};
  const std::vector<double> py = {0.0, 0.0, 0.0, kNaN};
  const Geometry origin = Geometry::MakePoint(0, 0);
  const PreparedGeometry prep(origin);
  auto within = [&](double d) {
    return Survivors(px, py, [&](const double* x, const double* y,
                                 const uint32_t* c, size_t n, uint32_t* o) {
      return RefineWithinDistanceBatch(prep, x, y, c, n, d, o);
    });
  };
  EXPECT_EQ(within(0.0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(within(kInf), (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(within(kNaN), (std::vector<uint32_t>{}));

  const Geometry far = Geometry::MakePoint(kInf, 0);
  const PreparedGeometry prep_far(far);
  const std::vector<double> fx = {kInf}, fy = {0.0};
  EXPECT_TRUE(Survivors(fx, fy, [&](const double* x, const double* y,
                                    const uint32_t* c, size_t n,
                                    uint32_t* o) {
                return RefineIntersectsBatch(prep_far, x, y, c, n, o);
              }).empty());
}

}  // namespace
}  // namespace stark
