// Tests for the sparklet engine: lazy lineage, transformations, actions,
// caching and shuffles.
#include <atomic>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "engine/rdd.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"

namespace stark {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

class EngineTest : public ::testing::Test {
 protected:
  Context ctx_{4};
};

TEST_F(EngineTest, ParallelizeSplitsIntoPartitions) {
  RDD<int> rdd = MakeRDD(&ctx_, Iota(100), 7);
  EXPECT_EQ(rdd.NumPartitions(), 7u);
  EXPECT_EQ(rdd.Count(), 100u);
  std::vector<int> collected = rdd.Collect();
  EXPECT_EQ(collected, Iota(100));  // partition order preserves input order
}

TEST_F(EngineTest, DefaultPartitionsUseContextParallelism) {
  RDD<int> rdd = MakeRDD(&ctx_, Iota(10));
  EXPECT_EQ(rdd.NumPartitions(), 4u);
}

TEST_F(EngineTest, EmptyInput) {
  RDD<int> rdd = MakeRDD(&ctx_, std::vector<int>{}, 3);
  EXPECT_EQ(rdd.Count(), 0u);
  EXPECT_TRUE(rdd.Collect().empty());
}

TEST_F(EngineTest, MapTransformsEveryElement) {
  auto doubled = MakeRDD(&ctx_, Iota(50), 5).Map([](int& x) { return x * 2; });
  std::vector<int> out = doubled.Collect();
  ASSERT_EQ(out.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(out[i], 2 * i);
}

TEST_F(EngineTest, MapCanChangeType) {
  auto strs = MakeRDD(&ctx_, Iota(3), 2).Map([](int& x) {
    return std::to_string(x);
  });
  EXPECT_EQ(strs.Collect(), (std::vector<std::string>{"0", "1", "2"}));
}

TEST_F(EngineTest, FilterKeepsMatching) {
  auto evens =
      MakeRDD(&ctx_, Iota(100), 8).Filter([](const int& x) {
        return x % 2 == 0;
      });
  EXPECT_EQ(evens.Count(), 50u);
}

TEST_F(EngineTest, FlatMapExpands) {
  auto out = MakeRDD(&ctx_, Iota(10), 3).FlatMap([](int& x) {
    return std::vector<int>(static_cast<size_t>(x % 3), x);
  });
  // x in 0..9 contributes (x % 3) copies: {1,4,7} once, {2,5,8} twice.
  EXPECT_EQ(out.Count(), 3u * 1 + 3u * 2);
}

TEST_F(EngineTest, MapPartitionsWithIndexSeesPartitionIds) {
  auto ids = MakeRDD(&ctx_, Iota(40), 4)
                 .MapPartitionsWithIndex([](size_t idx, std::vector<int> part) {
                   return std::vector<size_t>{idx, part.size()};
                 });
  std::vector<size_t> out = ids.Collect();
  EXPECT_EQ(out, (std::vector<size_t>{0, 10, 1, 10, 2, 10, 3, 10}));
}

TEST_F(EngineTest, UnionConcatenates) {
  auto a = MakeRDD(&ctx_, Iota(10), 2);
  auto b = MakeRDD(&ctx_, Iota(5), 3);
  auto u = a.Union(b);
  EXPECT_EQ(u.NumPartitions(), 5u);
  EXPECT_EQ(u.Count(), 15u);
}

TEST_F(EngineTest, LazinessNoWorkUntilAction) {
  std::atomic<int> calls{0};
  auto mapped = MakeRDD(&ctx_, Iota(10), 2).Map([&calls](int& x) {
    ++calls;
    return x;
  });
  EXPECT_EQ(calls.load(), 0);  // nothing computed yet
  mapped.Collect();
  EXPECT_EQ(calls.load(), 10);
  mapped.Collect();
  EXPECT_EQ(calls.load(), 20);  // recomputed: no implicit caching
}

TEST_F(EngineTest, CacheComputesEachPartitionOnce) {
  std::atomic<int> calls{0};
  auto cached = MakeRDD(&ctx_, Iota(10), 2)
                    .Map([&calls](int& x) {
                      ++calls;
                      return x;
                    })
                    .Cache();
  cached.Collect();
  cached.Collect();
  cached.Count();
  EXPECT_EQ(calls.load(), 10);  // computed exactly once
}

TEST_F(EngineTest, FoldSumsAcrossPartitions) {
  auto rdd = MakeRDD(&ctx_, Iota(101), 7);
  const int sum = rdd.Fold(0, [](int a, int b) { return a + b; });
  EXPECT_EQ(sum, 5050);
}

TEST_F(EngineTest, TakeReturnsPrefix) {
  auto rdd = MakeRDD(&ctx_, Iota(100), 5);
  EXPECT_EQ(rdd.Take(3), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(rdd.Take(0).size(), 0u);
  EXPECT_EQ(rdd.Take(1000).size(), 100u);
}

TEST_F(EngineTest, PartitionByRoutesEveryElement) {
  auto rdd = MakeRDD(&ctx_, Iota(100), 4);
  auto parted =
      rdd.PartitionBy(10, [](const int& x) { return static_cast<size_t>(x) % 10; });
  EXPECT_EQ(parted.NumPartitions(), 10u);
  EXPECT_EQ(parted.Count(), 100u);
  auto parts = parted.CollectPartitions();
  for (size_t p = 0; p < parts.size(); ++p) {
    EXPECT_EQ(parts[p].size(), 10u);
    for (int x : parts[p]) EXPECT_EQ(static_cast<size_t>(x) % 10, p);
  }
}

TEST_F(EngineTest, RepartitionBalances) {
  auto rdd = MakeRDD(&ctx_, Iota(100), 1).Repartition(4);
  EXPECT_EQ(rdd.NumPartitions(), 4u);
  auto parts = rdd.CollectPartitions();
  for (const auto& p : parts) EXPECT_EQ(p.size(), 25u);
  EXPECT_EQ(rdd.Count(), 100u);
}

TEST_F(EngineTest, ZipWithIndexIsGloballyUniqueAndOrdered) {
  auto zipped = MakeRDD(&ctx_, Iota(50), 7).ZipWithIndex();
  auto out = zipped.Collect();
  ASSERT_EQ(out.size(), 50u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].second, i);
    EXPECT_EQ(out[i].first, static_cast<int>(i));
  }
}

TEST_F(EngineTest, SampleIsDeterministicAndRoughlyProportional) {
  auto rdd = MakeRDD(&ctx_, Iota(10'000), 4);
  auto s1 = rdd.Sample(0.1, 7).Collect();
  auto s2 = rdd.Sample(0.1, 7).Collect();
  EXPECT_EQ(s1, s2);
  EXPECT_GT(s1.size(), 700u);
  EXPECT_LT(s1.size(), 1300u);
  EXPECT_TRUE(rdd.Sample(0.0).Collect().empty());
  EXPECT_EQ(rdd.Sample(1.0).Count(), 10'000u);
}

TEST_F(EngineTest, ChainedPipeline) {
  // A small end-to-end lineage: map -> filter -> flatMap -> fold.
  auto result = MakeRDD(&ctx_, Iota(20), 3)
                    .Map([](int& x) { return x + 1; })
                    .Filter([](const int& x) { return x % 2 == 0; })
                    .FlatMap([](int& x) {
                      return std::vector<int>{x, -x};
                    })
                    .Fold(0, [](int a, int b) { return a + b; });
  EXPECT_EQ(result, 0);  // every x is cancelled by -x
}

TEST_F(EngineTest, CollectPartitionsPreservesStructure) {
  auto rdd = MakeRDD(&ctx_, Iota(10), 3);
  auto parts = rdd.CollectPartitions();
  ASSERT_EQ(parts.size(), 3u);
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, 10u);
}

// ---- Reading partitions in place ------------------------------------------

/// An element that counts every copy made of it, anywhere.
struct Tracked {
  static std::atomic<int64_t> copies;
  int value = 0;

  Tracked() = default;
  explicit Tracked(int v) : value(v) {}
  Tracked(const Tracked& other) : value(other.value) { copies.fetch_add(1); }
  Tracked& operator=(const Tracked& other) {
    value = other.value;
    copies.fetch_add(1);
    return *this;
  }
  Tracked(Tracked&&) noexcept = default;
  Tracked& operator=(Tracked&&) noexcept = default;
};
std::atomic<int64_t> Tracked::copies{0};

std::vector<std::vector<Tracked>> TrackedPartitions(int n, size_t parts) {
  std::vector<std::vector<Tracked>> out(parts);
  for (int i = 0; i < n; ++i) out[static_cast<size_t>(i) % parts].emplace_back(i);
  return out;
}

uint64_t CounterValue(const std::string& name) {
  return obs::DefaultMetrics().GetCounter(name)->Value();
}

TEST_F(EngineTest, CountsReadStoredPartitionsWithoutCopying) {
  RDD<Tracked> stored = MakeRDDFromPartitions(&ctx_, TrackedPartitions(100, 4));
  // A cache over a computed (mapped) parent, and over a stored one.
  RDD<Tracked> cached =
      stored.Map([](Tracked& t) { return Tracked(t.value); }).Cache();
  RDD<Tracked> cached_stored = stored.Cache();
  EXPECT_EQ(cached.Count(), 100u);  // materializes; the Map constructs
  const auto even = [](const Tracked& t) { return t.value % 2 == 0; };

  Tracked::copies = 0;
  for (const RDD<Tracked>& rdd : {stored, cached, cached_stored}) {
    EXPECT_EQ(rdd.Count(), 100u);
    EXPECT_EQ(rdd.Filter(even).Count(), 50u);
  }
  EXPECT_EQ(Tracked::copies.load(), 0);

  // A filter over a stored parent copies only its survivors.
  EXPECT_EQ(stored.Filter(even).Collect().size(), 50u);
  EXPECT_EQ(Tracked::copies.load(), 50);
}

TEST_F(EngineTest, FilterWithMutablePredicateStillCountsAndCollects) {
  RDD<Tracked> stored = MakeRDDFromPartitions(&ctx_, TrackedPartitions(30, 3));
  auto bump = stored.Filter([](Tracked& t) {
    t.value += 1;
    return t.value % 3 == 0;
  });
  EXPECT_EQ(bump.Count(), 10u);
  std::vector<Tracked> out = bump.Collect();
  ASSERT_EQ(out.size(), 10u);
  for (const Tracked& t : out) EXPECT_EQ(t.value % 3, 0);
  // The stored input is untouched: the predicate ran on copies.
  EXPECT_EQ(stored.Collect()[0].value, 0);
}

TEST_F(EngineTest, PartitionViewsBorrowStoredAndComputeTheRest) {
  RDD<Tracked> stored = MakeRDDFromPartitions(&ctx_, TrackedPartitions(40, 4));
  RDD<Tracked> cached = stored.Map([](Tracked& t) { return Tracked(t.value); })
                            .Cache();
  RDD<Tracked> mapped =
      stored.Map([](Tracked& t) { return Tracked(t.value * 2); });
  EXPECT_EQ(cached.Count(), 40u);  // materializes the cache
  Tracked::copies = 0;
  for (const RDD<Tracked>& rdd : {stored, cached}) {
    std::vector<std::vector<Tracked>> storage;
    const auto first = rdd.PartitionViews(&storage);
    const auto second = rdd.PartitionViews(&storage);
    EXPECT_EQ(first, second);  // the same stored vectors, both times
    for (size_t p = 0; p < first.size(); ++p) {
      EXPECT_TRUE(storage[p].empty());
      EXPECT_EQ(first[p]->size(), 10u);
    }
  }
  EXPECT_EQ(Tracked::copies.load(), 0);
  std::vector<std::vector<Tracked>> storage;
  const auto views = mapped.PartitionViews(&storage);
  ASSERT_EQ(views.size(), 4u);
  for (size_t p = 0; p < views.size(); ++p) {
    EXPECT_EQ(views[p], &storage[p]);  // computed into caller storage
    for (size_t k = 0; k < views[p]->size(); ++k) {
      EXPECT_EQ((*views[p])[k].value, 2 * static_cast<int>(p + 4 * k));
    }
  }
}

TEST_F(EngineTest, CacheHitsAndMissesAreCountedOncePerPartitionRead) {
  RDD<int> cached =
      MakeRDD(&ctx_, Iota(60), 3).Map([](int& x) { return x; }).Cache();
  auto delta = [&](auto&& action) {
    const uint64_t hits = CounterValue("engine.cache.hits");
    const uint64_t misses = CounterValue("engine.cache.misses");
    action();
    return std::pair<uint64_t, uint64_t>(
        CounterValue("engine.cache.hits") - hits,
        CounterValue("engine.cache.misses") - misses);
  };
  using Delta = std::pair<uint64_t, uint64_t>;  // (hits, misses)
  EXPECT_EQ(delta([&] { EXPECT_EQ(cached.Collect(), Iota(60)); }),
            (Delta{0, 3}));
  EXPECT_EQ(delta([&] { EXPECT_EQ(cached.Count(), 60u); }), (Delta{3, 0}));
  EXPECT_EQ(delta([&] {
              EXPECT_EQ(cached.Filter([](const int& x) { return x < 10; })
                            .Count(),
                        10u);
            }),
            (Delta{3, 0}));
  EXPECT_EQ(delta([&] {
              std::vector<std::vector<int>> storage;
              EXPECT_EQ(cached.PartitionViews(&storage).size(), 3u);
            }),
            (Delta{3, 0}));
}

TEST_F(EngineTest, CountOverCacheRetriesAnInjectedMaterializeFault) {
  fault::FailPoint* const fp =
      fault::DefaultFailPoints().Get("engine.cache.materialize");
  ASSERT_TRUE(fault::DefaultFailPoints()
                  .ArmFromSpec("engine.cache.materialize=nth:1")
                  .ok());
  std::atomic<int> computes{0};
  RDD<int> cached = MakeRDD(&ctx_, Iota(40), 4)
                        .Map([&computes](int& x) {
                          computes.fetch_add(1);
                          return x;
                        })
                        .Cache();
  EXPECT_EQ(cached.Count(), 40u);
  EXPECT_EQ(fp->fires(), 1u);  // arming reset the counter
  EXPECT_EQ(computes.load(), 40);  // the failed attempt computed nothing
  EXPECT_EQ(cached.Filter([](const int& x) { return x >= 30; }).Count(), 10u);
  fault::DefaultFailPoints().DisarmAll();
}

}  // namespace
}  // namespace stark
