// Property-based differential testing of the spatial predicates and the
// R-tree-assisted filter path. A seeded generator produces a mixed
// population of points, boxes, star-shaped polygons, linestrings and
// multipoints; every unordered pair is checked against predicate algebra
// (symmetry, containment implies intersection, envelope consistency,
// distance/intersects duality), and R-tree candidate+refine query results
// are compared against a brute-force exact oracle over the whole
// population. Well over 10k generated cases per run, fully reproducible
// from the fixed seeds.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/envelope.h"
#include "geometry/geometry.h"
#include "geometry/predicates.h"
#include "index/packed_rtree.h"
#include "test_util.h"

namespace stark {
namespace {

// Generators live in test_util.h so the packed-index and prepared-geometry
// differential suites fuzz the same population shapes.
using test::RandomEnvelope;
using test::RandomPopulation;

// ---------------------------------------------------------------------------
// Predicate algebra over every pair of a mixed population
// ---------------------------------------------------------------------------

TEST(PredicateFuzzTest, PairwisePredicateAlgebraHolds) {
  // 160 geometries -> 12,720 unordered pairs; with several properties per
  // pair this is comfortably past the 10k-case bar for one seed alone.
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/1234, 160);
  size_t cases = 0;
  for (size_t i = 0; i < pop.size(); ++i) {
    const Geometry& a = pop[i];
    // Reflexivity: everything intersects itself at zero distance. (No
    // Contains(a, a) check: classifying a slanted boundary segment's
    // midpoint as on-boundary is tolerance-limited for arbitrary
    // polygons, so reflexive containment is not numerically guaranteed.)
    ASSERT_TRUE(Intersects(a, a)) << a.ToWkt();
    ASSERT_EQ(Distance(a, a), 0.0) << a.ToWkt();
    if (a.type() == GeometryType::kPoint ||
        a.type() == GeometryType::kMultiPoint) {
      ASSERT_TRUE(Contains(a, a)) << a.ToWkt();
    }
    for (size_t j = i + 1; j < pop.size(); ++j) {
      const Geometry& b = pop[j];
      ++cases;
      const bool ab = Intersects(a, b);

      // Intersects is symmetric.
      ASSERT_EQ(ab, Intersects(b, a)) << a.ToWkt() << " vs " << b.ToWkt();

      // ContainedBy is the mirror of Contains.
      const bool a_contains_b = Contains(a, b);
      const bool b_contains_a = Contains(b, a);
      ASSERT_EQ(ContainedBy(b, a), a_contains_b)
          << a.ToWkt() << " vs " << b.ToWkt();
      ASSERT_EQ(ContainedBy(a, b), b_contains_a)
          << a.ToWkt() << " vs " << b.ToWkt();

      // Containment implies intersection (shared points exist).
      if (a_contains_b || b_contains_a) {
        ASSERT_TRUE(ab) << a.ToWkt() << " vs " << b.ToWkt();
      }

      // Envelope consistency: exact hits never escape the MBR filter —
      // the soundness of every index-assisted candidate+refine plan.
      if (ab) {
        ASSERT_TRUE(a.envelope().Intersects(b.envelope()))
            << a.ToWkt() << " vs " << b.ToWkt();
      }
      if (a_contains_b) {
        ASSERT_TRUE(a.envelope().Contains(b.envelope()))
            << a.ToWkt() << " vs " << b.ToWkt();
      }

      // Distance/intersects duality. Distance is symmetric and never
      // below the envelope lower bound (the kNN pruning invariant).
      const double d = Distance(a, b);
      ASSERT_DOUBLE_EQ(d, Distance(b, a)) << a.ToWkt() << " vs " << b.ToWkt();
      if (ab) {
        ASSERT_EQ(d, 0.0) << a.ToWkt() << " vs " << b.ToWkt();
      } else {
        ASSERT_GT(d, 0.0) << a.ToWkt() << " vs " << b.ToWkt();
      }
      ASSERT_GE(d, a.envelope().Distance(b.envelope()) - 1e-9)
          << a.ToWkt() << " vs " << b.ToWkt();
    }
  }
  EXPECT_GE(cases, 10000u);
}

TEST(PredicateFuzzTest, BoxContainmentMatchesEnvelopeSemantics) {
  // For two axis-aligned boxes the exact predicates must agree with the
  // envelope predicates — a differential oracle with an independent,
  // trivially correct implementation.
  Rng rng(977);
  for (int i = 0; i < 4000; ++i) {
    const Envelope ea = RandomEnvelope(&rng, 12.0);
    const Envelope eb = RandomEnvelope(&rng, 12.0);
    const Geometry a = Geometry::MakeBox(ea);
    const Geometry b = Geometry::MakeBox(eb);
    ASSERT_EQ(Intersects(a, b), ea.Intersects(eb))
        << a.ToWkt() << " vs " << b.ToWkt();
    ASSERT_EQ(Contains(a, b), ea.Contains(eb))
        << a.ToWkt() << " vs " << b.ToWkt();
    ASSERT_EQ(ContainedBy(a, b), eb.Contains(ea))
        << a.ToWkt() << " vs " << b.ToWkt();
  }
}

// ---------------------------------------------------------------------------
// R-tree-assisted filter vs. brute-force exact oracle
// ---------------------------------------------------------------------------

using IdSet = std::set<size_t>;

IdSet RefineCandidates(const PackedRTree<size_t>& tree,
                       const Envelope& query_env, const Geometry& query_geom,
                       const std::vector<Geometry>& pop) {
  IdSet out;
  for (const size_t* id : tree.QueryCandidates(query_env)) {
    if (Intersects(query_geom, pop[*id])) out.insert(*id);
  }
  return out;
}

IdSet BruteForceOracle(const Envelope& query_env, const Geometry& query_geom,
                       const std::vector<Geometry>& pop) {
  IdSet out;
  for (size_t id = 0; id < pop.size(); ++id) {
    // Envelope prefilter + exact refine, over *every* geometry — the
    // index-free reference plan.
    if (!query_env.Intersects(pop[id].envelope())) continue;
    if (Intersects(query_geom, pop[id])) out.insert(id);
  }
  return out;
}

TEST(PredicateFuzzTest, RTreeFilterMatchesBruteForceOracle) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/555, 300);

  std::vector<std::pair<Envelope, size_t>> entries;
  for (size_t id = 0; id < pop.size(); ++id) {
    entries.emplace_back(pop[id].envelope(), id);
  }
  // Differential across tree shapes too: a wide and a narrow node order
  // must answer identically.
  const PackedRTree<size_t> wide(8, entries);
  const PackedRTree<size_t> narrow(4, entries);
  ASSERT_EQ(wide.size(), pop.size());
  ASSERT_EQ(narrow.size(), pop.size());

  Rng rng(31337);
  size_t nonempty = 0;
  for (int q = 0; q < 120; ++q) {
    const Envelope query_env = RandomEnvelope(&rng, 20.0);
    const Geometry query_geom = Geometry::MakeBox(query_env);
    const IdSet expected = BruteForceOracle(query_env, query_geom, pop);
    ASSERT_EQ(RefineCandidates(wide, query_env, query_geom, pop), expected)
        << "order-8 tree, query " << query_geom.ToWkt();
    ASSERT_EQ(RefineCandidates(narrow, query_env, query_geom, pop), expected)
        << "order-4 tree, query " << query_geom.ToWkt();
    if (!expected.empty()) ++nonempty;
  }
  // The workload must actually exercise matches, not vacuous empty sets.
  EXPECT_GT(nonempty, 60u);
}

TEST(PredicateFuzzTest, RTreeContainmentQueriesMatchOracle) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/888, 250);
  std::vector<std::pair<Envelope, size_t>> entries;
  for (size_t id = 0; id < pop.size(); ++id) {
    entries.emplace_back(pop[id].envelope(), id);
  }
  const PackedRTree<size_t> tree(10, entries);

  Rng rng(4242);
  size_t nonempty = 0;
  for (int q = 0; q < 80; ++q) {
    const Envelope query_env = RandomEnvelope(&rng, 30.0);
    const Geometry query_geom = Geometry::MakeBox(query_env);

    IdSet expected;
    for (size_t id = 0; id < pop.size(); ++id) {
      if (Contains(query_geom, pop[id])) expected.insert(id);
    }
    IdSet got;
    for (const size_t* id : tree.QueryCandidates(query_env)) {
      if (Contains(query_geom, pop[*id])) got.insert(*id);
    }
    ASSERT_EQ(got, expected) << "query " << query_geom.ToWkt();
    if (!expected.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 20u);
}

}  // namespace
}  // namespace stark
