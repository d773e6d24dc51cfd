// Tests for the packed (flat SoA) R-tree, the engine's only R-tree: STR
// bulk loading, adopting a storage order (FromStorageOrder), window queries
// and branch-and-bound kNN checked against a brute-force oracle across tree
// orders (the paper's liveIndex `order`), random mixed-geometry
// populations, duplicates and degenerate sizes, and the leaf visitor's
// tiling of the storage order. Also unit tests of the branchless
// FilterEnvelopesBatch kernel the leaf scans use and of its gathered-list
// variant.
#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geometry/envelope.h"
#include "geometry/geometry.h"
#include "geometry/kernels.h"
#include "geometry/predicates.h"
#include "index/packed_rtree.h"
#include "test_util.h"

namespace stark {
namespace {

using test::RandomEnvelope;
using test::RandomPopulation;

std::vector<std::pair<Envelope, size_t>> EntriesFor(
    const std::vector<Geometry>& pop) {
  std::vector<std::pair<Envelope, size_t>> entries;
  entries.reserve(pop.size());
  for (size_t id = 0; id < pop.size(); ++id) {
    entries.emplace_back(pop[id].envelope(), id);
  }
  return entries;
}

std::multiset<size_t> BruteForceCandidates(
    const std::vector<std::pair<Envelope, size_t>>& entries,
    const Envelope& query) {
  std::multiset<size_t> out;
  for (const auto& [env, id] : entries) {
    if (query.Intersects(env)) out.insert(id);
  }
  return out;
}

template <typename Tree>
std::multiset<size_t> TreeCandidates(const Tree& tree, const Envelope& query) {
  std::multiset<size_t> out;
  tree.Query(query, [&out](const Envelope&, const size_t& id) {
    out.insert(id);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Window queries: packed vs brute force
// ---------------------------------------------------------------------------

TEST(PackedRTreeTest, QueryMatchesBruteForceAcrossOrders) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/20260807, 400);
  const auto entries = EntriesFor(pop);
  Envelope all;
  for (const auto& [env, id] : entries) all.ExpandToInclude(env);

  for (size_t order : {2u, 3u, 5u, 10u, 32u}) {
    PackedRTree<size_t> packed(order, entries);
    ASSERT_EQ(packed.size(), pop.size());
    // STR shape: ceil(sqrt(ceil(n / order))) vertical slices, each chunked
    // into leaves of `order` entries, then ceil(nodes / order) parents per
    // level up to a single root.
    const size_t n = entries.size();
    const size_t slices = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>((n + order - 1) / order))));
    const size_t slice_size = (n + slices - 1) / slices;
    size_t leaves = 0;
    for (size_t s = 0; s < n; s += slice_size) {
      leaves += (std::min(slice_size, n - s) + order - 1) / order;
    }
    size_t depth = 1;
    for (size_t nodes = leaves; nodes > 1;
         nodes = (nodes + order - 1) / order) {
      ++depth;
    }
    ASSERT_EQ(packed.num_leaf_nodes(), leaves) << "order " << order;
    ASSERT_EQ(packed.Depth(), depth) << "order " << order;
    ASSERT_TRUE(packed.bounds() == all) << "order " << order;

    Rng rng(1000 + order);
    size_t nonempty = 0;
    for (int q = 0; q < 150; ++q) {
      const Envelope query = RandomEnvelope(&rng, 25.0);
      const std::multiset<size_t> expected =
          BruteForceCandidates(entries, query);
      ASSERT_EQ(TreeCandidates(packed, query), expected)
          << "order " << order << " query " << q;
      if (!expected.empty()) ++nonempty;
    }
    EXPECT_GT(nonempty, 100u) << "order " << order;
  }
}

TEST(PackedRTreeTest, QueryCandidatesAndForEachCoverEveryEntry) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/77, 123);
  PackedRTree<size_t> packed(8, EntriesFor(pop));

  // The universe query sees everything, as does ForEach.
  const Envelope all(-1e9, -1e9, 1e9, 1e9);
  EXPECT_EQ(packed.QueryCandidates(all).size(), pop.size());

  std::multiset<size_t> seen;
  packed.ForEach([&seen, &pop](const Envelope& env, const size_t& id) {
    seen.insert(id);
    EXPECT_TRUE(env == pop[id].envelope()) << id;
  });
  EXPECT_EQ(seen.size(), pop.size());
}

TEST(PackedRTreeTest, EmptyAndTinyTrees) {
  PackedRTree<size_t> empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.Depth(), 1u);
  EXPECT_TRUE(empty.bounds().IsEmpty());
  EXPECT_TRUE(empty.QueryCandidates(Envelope(0, 0, 1, 1)).empty());
  EXPECT_TRUE(empty
                  .Knn(Envelope(0, 0, 0, 0), 3,
                       [](const size_t&) { return 0.0; }, std::less<>())
                  .empty());

  // One entry: root is a leaf.
  std::vector<std::pair<Envelope, size_t>> one;
  one.emplace_back(Envelope(1, 1, 2, 2), 42u);
  PackedRTree<size_t> single(4, one);
  EXPECT_EQ(single.size(), 1u);
  EXPECT_EQ(single.Depth(), 1u);
  EXPECT_EQ(single.num_leaf_nodes(), 1u);
  auto hits = single.QueryCandidates(Envelope(0, 0, 3, 3));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(*hits[0], 42u);
  EXPECT_TRUE(single.QueryCandidates(Envelope(5, 5, 6, 6)).empty());
}

TEST(PackedRTreeTest, DuplicateEnvelopesAllReported) {
  std::vector<std::pair<Envelope, size_t>> entries;
  const Envelope dup(3, 3, 4, 4);
  for (size_t i = 0; i < 37; ++i) entries.emplace_back(dup, i);
  PackedRTree<size_t> packed(4, entries);
  const auto got = TreeCandidates(packed, Envelope(0, 0, 10, 10));
  EXPECT_EQ(got.size(), 37u);
  for (size_t i = 0; i < 37; ++i) EXPECT_EQ(got.count(i), 1u) << i;
}

TEST(PackedRTreeTest, LeavesTileTheForEachOrder) {
  for (const size_t order : {size_t{2}, size_t{3}, size_t{4}, size_t{10}}) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{123},
                           size_t{1000}}) {
      const std::vector<Geometry> pop = RandomPopulation(/*seed=*/31 + n, n);
      const PackedRTree<size_t> tree(order, EntriesFor(pop));
      std::vector<std::pair<Envelope, size_t>> storage;
      tree.ForEach([&](const Envelope& env, const size_t& id) {
        storage.emplace_back(env, id);
      });
      const std::string label =
          "order " + std::to_string(order) + " n " + std::to_string(n);

      size_t next = 0;
      size_t leaves = 0;
      tree.ForEachLeaf([&](const Envelope& box, size_t begin, size_t end) {
        ++leaves;
        EXPECT_EQ(begin, next) << label;
        EXPECT_LT(begin, end) << label;
        EXPECT_LE(end - begin, tree.order()) << label;
        Envelope expect;
        for (size_t e = begin; e < end && e < storage.size(); ++e) {
          expect.ExpandToInclude(storage[e].first);
          EXPECT_TRUE(tree.envelope_at(e) == storage[e].first) << label;
          EXPECT_EQ(tree.value_at(e), storage[e].second) << label;
        }
        EXPECT_TRUE(box == expect) << label << " leaf " << leaves;
        next = end;
      });
      EXPECT_EQ(next, n) << label;
      EXPECT_EQ(leaves, tree.num_leaf_nodes()) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// kNN: packed vs brute force
// ---------------------------------------------------------------------------

/// The kNN order of (distance, id) hits: ties at equal distance by id.
bool ByDistanceThenId(const std::pair<double, const size_t*>& a,
                      const std::pair<double, const size_t*>& b) {
  return a.first < b.first || (a.first == b.first && *a.second < *b.second);
}

TEST(PackedRTreeTest, KnnMatchesBruteForce) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/909, 250);
  const auto entries = EntriesFor(pop);
  PackedRTree<size_t> packed(7, entries);

  // Point queries, then mixed geometries whose envelopes are not points
  // (boxes, star polygons, lines, multipoints): the node bound is the
  // envelope-to-envelope distance, admissible for both.
  Rng rng(606);
  std::vector<Geometry> probes;
  for (int q = 0; q < 60; ++q) {
    probes.push_back(Geometry::MakePoint(
        Coordinate{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)}));
  }
  for (const Geometry& g : RandomPopulation(/*seed=*/607, 60)) {
    probes.push_back(g);
  }
  for (size_t q = 0; q < probes.size(); ++q) {
    const Geometry& probe = probes[q];
    const size_t k = q % 12 == 11 ? 0 : 1 + q % 12;

    const auto packed_hits = packed.Knn(
        probe.envelope(), k,
        [&](const size_t& id) { return Distance(pop[id], probe); },
        ByDistanceThenId);

    // Brute force: the k smallest (exact distance, id) pairs.
    std::vector<std::pair<double, size_t>> all;
    all.reserve(pop.size());
    for (size_t id = 0; id < pop.size(); ++id) {
      all.emplace_back(Distance(pop[id], probe), id);
    }
    std::sort(all.begin(), all.end());
    all.resize(std::min(k, all.size()));

    ASSERT_EQ(packed_hits.size(), all.size()) << "query " << q;
    for (size_t i = 0; i < all.size(); ++i) {
      // Ties at equal distance order by the key (here the id).
      EXPECT_EQ(packed_hits[i].first, all[i].first) << "query " << q;
      EXPECT_EQ(*packed_hits[i].second, all[i].second) << "query " << q;
    }
  }
}

// ---------------------------------------------------------------------------
// FromStorageOrder: packing entries already in STR storage order
// ---------------------------------------------------------------------------

/// Splits (envelope, id) entries into FromStorageOrder's two arrays.
PackedRTree<size_t> Adopt(size_t order,
                          const std::vector<std::pair<Envelope, size_t>>& in) {
  EnvelopeSoA envelopes;
  std::vector<size_t> ids;
  for (const auto& [env, id] : in) {
    envelopes.PushBack(env);
    ids.push_back(id);
  }
  return PackedRTree<size_t>::FromStorageOrder(order, std::move(envelopes),
                                               std::move(ids));
}

/// Every entry in storage (ForEach) order.
std::vector<std::pair<Envelope, size_t>> StorageOrder(
    const PackedRTree<size_t>& tree) {
  std::vector<std::pair<Envelope, size_t>> out;
  tree.ForEach([&](const Envelope& env, const size_t& id) {
    out.emplace_back(env, id);
  });
  return out;
}

// Entries in no STR order at all still give an exact tree (every node box
// is the union of its children), stored in the order given.
TEST(PackedRTreeTest, FromStorageOrderOfShuffledEntriesIsExact) {
  const std::vector<Geometry> pop = RandomPopulation(/*seed=*/5151, 300);
  auto shuffled = EntriesFor(pop);
  Rng rng(5152);
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i],
              shuffled[static_cast<size_t>(rng.UniformInt(0, i))]);
  }
  Envelope all;
  for (const auto& [env, id] : shuffled) all.ExpandToInclude(env);

  for (size_t order : {2u, 3u, 7u, 32u}) {
    SCOPED_TRACE("order " + std::to_string(order));
    const PackedRTree<size_t> tree = Adopt(order, shuffled);
    ASSERT_EQ(tree.size(), pop.size());
    EXPECT_TRUE(tree.bounds() == all);
    EXPECT_TRUE(StorageOrder(tree) == shuffled);
    for (int q = 0; q < 100; ++q) {
      const Envelope query = RandomEnvelope(&rng, 25.0);
      ASSERT_EQ(TreeCandidates(tree, query),
                BruteForceCandidates(shuffled, query))
          << "query " << q;
    }
    for (const Geometry& probe : RandomPopulation(order, 40)) {
      for (size_t k : {1u, 4u, 13u}) {
        const auto hits = tree.Knn(
            probe.envelope(), k,
            [&](const size_t& id) { return Distance(pop[id], probe); },
            ByDistanceThenId);
        std::vector<std::pair<double, size_t>> want;
        for (size_t id = 0; id < pop.size(); ++id) {
          want.emplace_back(Distance(pop[id], probe), id);
        }
        std::sort(want.begin(), want.end());
        want.resize(k);
        ASSERT_EQ(hits.size(), want.size());
        for (size_t i = 0; i < k; ++i) {
          EXPECT_EQ(hits[i].first, want[i].first);
          EXPECT_EQ(*hits[i].second, want[i].second);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R-tree contract: empty and tiny trees, bulk load, kNN, ForEach and bounds
// on random boxes, parameterized over the tree order
// ---------------------------------------------------------------------------

std::vector<std::pair<Envelope, size_t>> RandomBoxes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Envelope, size_t>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(-100, 100);
    const double y = rng.Uniform(-100, 100);
    const double w = rng.Uniform(0, 4);
    const double h = rng.Uniform(0, 4);
    out.emplace_back(Envelope(x, y, x + w, y + h), i);
  }
  return out;
}

std::set<size_t> TreeQuery(const PackedRTree<size_t>& tree,
                           const Envelope& probe) {
  std::set<size_t> hits;
  tree.Query(probe, [&](const Envelope&, const size_t& id) {
    auto [it, inserted] = hits.insert(id);
    EXPECT_TRUE(inserted) << "duplicate id " << id << " from tree query";
  });
  return hits;
}

std::set<size_t> BruteForceQuery(
    const std::vector<std::pair<Envelope, size_t>>& data,
    const Envelope& probe) {
  std::set<size_t> hits;
  for (const auto& [env, id] : data) {
    if (env.Intersects(probe)) hits.insert(id);
  }
  return hits;
}

TEST(RTreeTest, EmptyTree) {
  PackedRTree<int> tree(4, {});
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  int hits = 0;
  tree.Query(Envelope(-1e9, -1e9, 1e9, 1e9),
             [&](const Envelope&, const int&) { ++hits; });
  EXPECT_EQ(hits, 0);
  EXPECT_TRUE(tree.Knn(Envelope(0, 0, 0, 0), 3, [](const int&) { return 0.0; },
                       std::less<>())
                  .empty());
}

TEST(RTreeTest, OrderIsClampedToAtLeastTwo) {
  PackedRTree<int> tree(0, {});
  EXPECT_GE(tree.order(), 2u);
}

TEST(RTreeTest, SingleEntry) {
  PackedRTree<size_t> tree(4, {{Envelope(0, 0, 1, 1), 7}});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(TreeQuery(tree, Envelope(0.5, 0.5, 2, 2)),
            (std::set<size_t>{7}));
  EXPECT_TRUE(TreeQuery(tree, Envelope(5, 5, 6, 6)).empty());
}

class RTreeOrderTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RTreeOrderTest, BulkLoadMatchesBruteForce) {
  const auto data = RandomBoxes(500, 33);
  PackedRTree<size_t> tree(GetParam(), data);
  EXPECT_EQ(tree.size(), data.size());

  Rng rng(34);
  for (int q = 0; q < 100; ++q) {
    const double x = rng.Uniform(-110, 110);
    const double y = rng.Uniform(-110, 110);
    const Envelope probe(x, y, x + rng.Uniform(0, 30), y + rng.Uniform(0, 30));
    EXPECT_EQ(TreeQuery(tree, probe), BruteForceQuery(data, probe));
  }
}

TEST_P(RTreeOrderTest, KnnMatchesBruteForce) {
  Rng rng(35);
  std::vector<std::pair<Envelope, size_t>> data;
  std::vector<Coordinate> pts;
  for (size_t i = 0; i < 400; ++i) {
    const Coordinate c{rng.Uniform(-50, 50), rng.Uniform(-50, 50)};
    pts.push_back(c);
    data.emplace_back(Envelope(c), i);
  }
  PackedRTree<size_t> tree(GetParam(), data);

  for (int q = 0; q < 50; ++q) {
    const Coordinate query{rng.Uniform(-60, 60), rng.Uniform(-60, 60)};
    for (size_t k : {1u, 5u, 17u}) {
      auto result = tree.Knn(
          Envelope(query), k,
          [&](const size_t& id) { return query.DistanceTo(pts[id]); },
          ByDistanceThenId);
      ASSERT_EQ(result.size(), std::min<size_t>(k, pts.size()));
      // Distances must be ascending.
      for (size_t i = 1; i < result.size(); ++i) {
        EXPECT_LE(result[i - 1].first, result[i].first);
      }
      // The k-th distance must match brute force.
      std::vector<double> dists;
      for (const auto& p : pts) dists.push_back(query.DistanceTo(p));
      std::sort(dists.begin(), dists.end());
      EXPECT_DOUBLE_EQ(result.back().first, dists[result.size() - 1]);
    }
  }
}

TEST_P(RTreeOrderTest, ForEachVisitsEverything) {
  const auto data = RandomBoxes(200, 36);
  PackedRTree<size_t> tree(GetParam(), data);
  std::set<size_t> seen;
  tree.ForEach([&](const Envelope&, const size_t& id) { seen.insert(id); });
  EXPECT_EQ(seen.size(), data.size());
}

TEST_P(RTreeOrderTest, BoundsCoverAllEntries) {
  const auto data = RandomBoxes(300, 37);
  PackedRTree<size_t> tree(GetParam(), data);
  for (const auto& [env, id] : data) {
    EXPECT_TRUE(tree.bounds().Contains(env));
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, RTreeOrderTest,
                         ::testing::Values(2, 3, 5, 10, 32),
                         [](const auto& info) {
                           return "order" + std::to_string(info.param);
                         });

TEST(RTreeTest, DuplicateEnvelopesAllReturned) {
  std::vector<std::pair<Envelope, size_t>> data;
  for (size_t i = 0; i < 20; ++i) data.emplace_back(Envelope(1, 1, 2, 2), i);
  PackedRTree<size_t> tree(4, data);
  EXPECT_EQ(TreeQuery(tree, Envelope(0, 0, 3, 3)).size(), 20u);
}

TEST(RTreeTest, DepthGrowsWithSize) {
  PackedRTree<size_t> small(4, {{Envelope(0, 0, 1, 1), 0}});
  EXPECT_EQ(small.Depth(), 1u);

  PackedRTree<size_t> big(4, RandomBoxes(200, 38));
  EXPECT_GT(big.Depth(), 2u);
}

TEST(RTreeTest, BulkLoadReplacesContents) {
  // A packed tree is rebuilt, not mutated: a freshly bulk-loaded tree
  // assigned over an old one carries only the new entries.
  PackedRTree<size_t> tree(4, {{Envelope(0, 0, 1, 1), 999}});
  tree = PackedRTree<size_t>(4, RandomBoxes(50, 39));
  EXPECT_EQ(tree.size(), 50u);
  std::set<size_t> seen;
  tree.ForEach([&](const Envelope&, const size_t& id) { seen.insert(id); });
  EXPECT_EQ(seen.count(999), 0u);
}

// ---------------------------------------------------------------------------
// FilterEnvelopesBatch kernel
// ---------------------------------------------------------------------------

TEST(PackedRTreeTest, FilterEnvelopesBatchMatchesEnvelopeIntersects) {
  Rng rng(2468);
  EnvelopeSoA soa;
  std::vector<Envelope> envs;
  for (int i = 0; i < 500; ++i) {
    const Envelope e = RandomEnvelope(&rng, 15.0);
    envs.push_back(e);
    soa.PushBack(e);
  }
  for (int q = 0; q < 200; ++q) {
    const Envelope query = RandomEnvelope(&rng, 40.0);
    std::vector<uint32_t> got;
    FilterEnvelopesBatch(soa, query, &got);
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < envs.size(); ++i) {
      if (query.Intersects(envs[i])) expected.push_back(i);
    }
    ASSERT_EQ(got, expected) << "query " << q;
  }
}

TEST(PackedRTreeTest, FilterEnvelopesBatchHandlesEmptyAndNaN) {
  // The contract is consistency with Envelope::Intersects, including for
  // the empty sentinel (never matches: its +inf/-inf bounds fail the
  // comparisons) and all-NaN boxes (every comparison is false, so the
  // negated form matches — same answer Envelope::Intersects gives).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Envelope> envs = {
      Envelope(0, 0, 1, 1),
      Envelope(),  // empty sentinel
      Envelope(nan, nan, nan, nan),
  };
  EnvelopeSoA soa;
  for (const Envelope& e : envs) soa.PushBack(e);

  std::vector<uint32_t> out;
  // Empty query intersects nothing (matches Envelope::Intersects).
  EXPECT_EQ(FilterEnvelopesBatch(soa, Envelope(), &out), 0u);
  out.clear();
  const Envelope query(-1, -1, 2, 2);
  const size_t n = FilterEnvelopesBatch(soa, query, &out);
  std::vector<uint32_t> expected;
  for (uint32_t i = 0; i < envs.size(); ++i) {
    // Element-wise comparison form, as the kernel computes it (the
    // Envelope::Intersects entry point short-circuits empties first, which
    // the empty sentinel's ordering makes equivalent).
    const Envelope& e = envs[i];
    const bool hit = !(e.min_x() > query.max_x()) &&
                     !(e.max_x() < query.min_x()) &&
                     !(e.min_y() > query.max_y()) &&
                     !(e.max_y() < query.min_y());
    if (hit) expected.push_back(i);
  }
  ASSERT_EQ(n, expected.size());
  EXPECT_EQ(out, expected);
  // The real (non-NaN) envelopes agree with Envelope::Intersects exactly.
  EXPECT_TRUE(query.Intersects(envs[0]));
  EXPECT_FALSE(query.Intersects(envs[1]));
  EXPECT_EQ(out[0], 0u);
}

TEST(PackedRTreeTest, FilterEnvelopeRowsBatchFiltersAGatheredList) {
  // The gathered-list filter keeps, in list order, exactly the rows at or
  // after min_row that FilterEnvelopesBatch's test keeps, empty sentinels,
  // inverted and NaN boxes included.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(1357);
  EnvelopeSoA soa;
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < 300; ++i) {
    Envelope e = RandomEnvelope(&rng, 15.0);
    if (i % 17 == 0) e = Envelope();
    if (i % 23 == 0) e = Envelope(3, inf, 3, -inf);
    if (i % 29 == 0) e = Envelope(nan, nan, nan, nan);
    soa.PushBack(e);
    rows.push_back(static_cast<uint32_t>(rng.UniformInt(0, 400)));
  }
  for (int q = 0; q < 100; ++q) {
    const Envelope query = RandomEnvelope(&rng, 40.0);
    const auto min_row = static_cast<uint32_t>(rng.UniformInt(0, 400));
    std::vector<uint32_t> positions;
    FilterEnvelopesBatch(soa, query, &positions);
    std::vector<uint32_t> expected = {7};
    for (const uint32_t i : positions) {
      if (rows[i] >= min_row) expected.push_back(rows[i]);
    }
    std::vector<uint32_t> got = {7};
    EXPECT_EQ(FilterEnvelopeRowsBatch(soa, rows.data(), query, min_row, &got),
              expected.size() - 1);
    ASSERT_EQ(got, expected) << "query " << q;
  }
  std::vector<uint32_t> none;
  EXPECT_EQ(FilterEnvelopeRowsBatch(soa, rows.data(), Envelope(), 0, &none),
            0u);
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace stark
