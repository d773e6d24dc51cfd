/// \file rdd.h
/// Lazy, lineage-based resilient-distributed-dataset abstraction — the
/// sparklet engine's equivalent of Spark's RDD. Transformations build a
/// lineage graph of RDDImpl nodes; actions evaluate all partitions in
/// parallel on the Context's worker pool.
#ifndef STARK_ENGINE_RDD_H_
#define STARK_ENGINE_RDD_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/rng.h"
#include "engine/context.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace stark {

/// \brief The consumer end of RDDImpl::ForEach: a borrowed callable that
/// takes one element at a time. The element is the producer's to give
/// away, so the sink may modify or move from it. Cheap to copy; it refers
/// to the callable it was made from and must not outlive that call.
template <typename T>
class Sink {
 public:
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Sink>>>
  Sink(F&& fn)  // NOLINT(runtime/explicit)
      : fn_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* f, T& x) {
          (*static_cast<std::remove_reference_t<F>*>(f))(x);
        }) {}

  void operator()(T& x) const { call_(fn_, x); }

 private:
  void* fn_;
  void (*call_)(void*, T&);
};

/// Lineage node: computes the contents of one partition on demand.
template <typename T>
class RDDImpl {
 public:
  explicit RDDImpl(Context* ctx) : ctx_(ctx) { STARK_CHECK(ctx != nullptr); }
  virtual ~RDDImpl() = default;

  virtual size_t NumPartitions() const = 0;
  /// An owned copy of one partition's contents.
  virtual std::vector<T> Compute(size_t partition) const = 0;

  /// The partition this node already holds in memory, readable in place
  /// for as long as the node lives; null when it has to be computed.
  virtual const std::vector<T>* Stored(size_t partition) const {
    (void)partition;
    return nullptr;
  }

  /// Pushes each element of one partition into \p sink, in partition
  /// order, without building the partition when the node can produce its
  /// elements one by one. By default a stored partition is read in place
  /// (each element copied as it is pushed) and any other one is computed.
  virtual void ForEach(size_t partition, Sink<T> sink) const {
    if (const std::vector<T>* stored = Stored(partition)) {
      for (const T& x : *stored) {
        T copy = x;
        sink(copy);
      }
      return;
    }
    std::vector<T> part = Compute(partition);
    for (T& x : part) sink(x);
  }

  /// Number of elements in one partition; O(1) on stored nodes.
  virtual size_t Count(size_t partition) const {
    size_t n = 0;
    ForEach(partition, [&n](T&) { ++n; });
    return n;
  }

  /// The stage label of the jobs that read this node, when the node does
  /// the work they should be attributed to (a lazy join labels its probe
  /// tasks); null lets each action use its own label.
  virtual const char* Stage() const { return nullptr; }

  Context* ctx() const { return ctx_; }

 private:
  Context* ctx_;
};

namespace engine_internal {

/// Partition \p p of \p impl for reading: the stored partition when the
/// node holds one, else the partition computed into \p storage.
template <typename T>
const std::vector<T>& Borrow(const RDDImpl<T>& impl, size_t p,
                             std::vector<T>* storage) {
  if (const std::vector<T>* stored = impl.Stored(p)) return *stored;
  *storage = impl.Compute(p);
  return *storage;
}

/// Materialized data, the leaf of every lineage graph.
template <typename T>
class CollectionRDD final : public RDDImpl<T> {
 public:
  CollectionRDD(Context* ctx, std::vector<std::vector<T>> partitions)
      : RDDImpl<T>(ctx), partitions_(std::move(partitions)) {}

  size_t NumPartitions() const override { return partitions_.size(); }
  std::vector<T> Compute(size_t p) const override { return partitions_[p]; }
  const std::vector<T>* Stored(size_t p) const override {
    return &partitions_[p];
  }
  size_t Count(size_t p) const override { return partitions_[p].size(); }

 private:
  std::vector<std::vector<T>> partitions_;
};

template <typename T, typename U, typename F>
class MapRDD final : public RDDImpl<U> {
 public:
  MapRDD(std::shared_ptr<const RDDImpl<T>> parent, F fn)
      : RDDImpl<U>(parent->ctx()), parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  size_t NumPartitions() const override { return parent_->NumPartitions(); }
  std::vector<U> Compute(size_t p) const override {
    std::vector<T> in = parent_->Compute(p);
    std::vector<U> out;
    out.reserve(in.size());
    for (auto& x : in) out.push_back(fn_(x));
    return out;
  }
  void ForEach(size_t p, Sink<U> sink) const override {
    parent_->ForEach(p, [&](T& x) {
      U y = fn_(x);
      sink(y);
    });
  }
  const char* Stage() const override { return parent_->Stage(); }

 private:
  std::shared_ptr<const RDDImpl<T>> parent_;
  F fn_;
};

template <typename T, typename F>
class FilterRDD final : public RDDImpl<T> {
 public:
  FilterRDD(std::shared_ptr<const RDDImpl<T>> parent, F fn)
      : RDDImpl<T>(parent->ctx()), parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  size_t NumPartitions() const override { return parent_->NumPartitions(); }
  std::vector<T> Compute(size_t p) const override {
    std::vector<T> out;
    ForEach(p, [&out](T& x) { out.push_back(std::move(x)); });
    return out;
  }
  void ForEach(size_t p, Sink<T> sink) const override {
    Scan(p, [&](auto& x) {
      if constexpr (std::is_const_v<std::remove_reference_t<decltype(x)>>) {
        T copy = x;
        sink(copy);
      } else {
        sink(x);
      }
    });
  }
  size_t Count(size_t p) const override {
    size_t hits = 0;
    Scan(p, [&hits](const T&) { ++hits; });
    return hits;
  }
  const char* Stage() const override { return parent_->Stage(); }

 private:
  /// Whether the predicate can test an element it may not modify.
  static constexpr bool kReadsConst = std::is_invocable_v<const F&, const T&>;

  /// Calls hit(x) for each element that passes. A stored parent is read in
  /// place (x is const) when the predicate reads const elements, so only
  /// the survivors are ever copied; otherwise x is each element the parent
  /// pushes.
  template <typename Hit>
  void Scan(size_t p, Hit&& hit) const {
    if constexpr (kReadsConst) {
      if (const std::vector<T>* in = parent_->Stored(p)) {
        for (const T& x : *in) {
          if (fn_(x)) hit(x);
        }
        return;
      }
    }
    parent_->ForEach(p, [&](T& x) {
      if (fn_(x)) hit(x);
    });
  }

  std::shared_ptr<const RDDImpl<T>> parent_;
  F fn_;
};

template <typename T, typename U, typename F>
class FlatMapRDD final : public RDDImpl<U> {
 public:
  FlatMapRDD(std::shared_ptr<const RDDImpl<T>> parent, F fn)
      : RDDImpl<U>(parent->ctx()), parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  size_t NumPartitions() const override { return parent_->NumPartitions(); }
  std::vector<U> Compute(size_t p) const override {
    std::vector<T> in = parent_->Compute(p);
    std::vector<U> out;
    for (auto& x : in) {
      std::vector<U> ys = fn_(x);
      for (auto& y : ys) out.push_back(std::move(y));
    }
    return out;
  }

 private:
  std::shared_ptr<const RDDImpl<T>> parent_;
  F fn_;
};

/// fn(partition_index, partition_contents) -> new partition contents.
template <typename T, typename U, typename F>
class MapPartitionsRDD final : public RDDImpl<U> {
 public:
  MapPartitionsRDD(std::shared_ptr<const RDDImpl<T>> parent, F fn)
      : RDDImpl<U>(parent->ctx()), parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  size_t NumPartitions() const override { return parent_->NumPartitions(); }
  std::vector<U> Compute(size_t p) const override {
    return fn_(p, parent_->Compute(p));
  }

 private:
  std::shared_ptr<const RDDImpl<T>> parent_;
  F fn_;
};

template <typename T>
class UnionRDD final : public RDDImpl<T> {
 public:
  UnionRDD(std::shared_ptr<const RDDImpl<T>> a,
           std::shared_ptr<const RDDImpl<T>> b)
      : RDDImpl<T>(a->ctx()), a_(std::move(a)), b_(std::move(b)) {}

  size_t NumPartitions() const override {
    return a_->NumPartitions() + b_->NumPartitions();
  }
  std::vector<T> Compute(size_t p) const override {
    if (p < a_->NumPartitions()) return a_->Compute(p);
    return b_->Compute(p - a_->NumPartitions());
  }

 private:
  std::shared_ptr<const RDDImpl<T>> a_;
  std::shared_ptr<const RDDImpl<T>> b_;
};

/// Skips whole partitions without ever computing them — the engine-level
/// hook behind STARK's partition-bound pruning (Spark's
/// PartitionPruningRDD). Pruned partitions yield an empty result.
template <typename T>
class PrunePartitionsRDD final : public RDDImpl<T> {
 public:
  PrunePartitionsRDD(std::shared_ptr<const RDDImpl<T>> parent,
                     std::function<bool(size_t)> keep)
      : RDDImpl<T>(parent->ctx()), parent_(std::move(parent)),
        keep_(std::move(keep)) {}

  size_t NumPartitions() const override { return parent_->NumPartitions(); }
  std::vector<T> Compute(size_t p) const override {
    static obs::Counter* const pruned =
        obs::DefaultMetrics().GetCounter("engine.partitions.pruned");
    if (!keep_(p)) {
      pruned->Increment();
      return {};
    }
    return parent_->Compute(p);
  }

 private:
  std::shared_ptr<const RDDImpl<T>> parent_;
  std::function<bool(size_t)> keep_;
};

/// Computes each parent partition at most once and keeps the result, like
/// Spark's MEMORY-persisted RDDs.
template <typename T>
class CacheRDD final : public RDDImpl<T> {
 public:
  explicit CacheRDD(std::shared_ptr<const RDDImpl<T>> parent)
      : RDDImpl<T>(parent->ctx()), parent_(std::move(parent)),
        slots_(parent_->NumPartitions()) {}

  size_t NumPartitions() const override { return parent_->NumPartitions(); }
  std::vector<T> Compute(size_t p) const override { return *Stored(p); }
  size_t Count(size_t p) const override { return Stored(p)->size(); }

  /// Materializes partition \p p on first use; every call counts one
  /// cache hit or miss.
  const std::vector<T>* Stored(size_t p) const override {
    static obs::Counter* const hits =
        obs::DefaultMetrics().GetCounter("engine.cache.hits");
    static obs::Counter* const misses =
        obs::DefaultMetrics().GetCounter("engine.cache.misses");
    static fault::FailPoint* const cache_fp =
        fault::DefaultFailPoints().Get("engine.cache.materialize");
    Slot& slot = slots_[p];
    bool computed = false;
    // The acquire load pairs with the release store below: a reader that
    // sees `done` also sees the slot's contents. An injected (or real)
    // failure propagates out before `done` is set, so a retried task
    // re-materializes the partition — the cache never latches a half-built
    // slot. A parent that already stores the partition is referenced, not
    // copied.
    if (!slot.done.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(slot.mu);
      if (!slot.done.load(std::memory_order_relaxed)) {
        fault::MaybeThrow(cache_fp);
        slot.view = parent_->Stored(p);
        if (slot.view == nullptr) {
          slot.data = parent_->Compute(p);
          slot.view = &slot.data;
        }
        slot.done.store(true, std::memory_order_release);
        computed = true;
      }
    }
    (computed ? misses : hits)->Increment();
    return slot.view;
  }

 private:
  struct Slot {
    std::mutex mu;
    std::atomic<bool> done{false};
    std::vector<T> data;
    const std::vector<T>* view = nullptr;
  };
  std::shared_ptr<const RDDImpl<T>> parent_;
  mutable std::vector<Slot> slots_;
};

}  // namespace engine_internal

/// \brief User-facing RDD handle (cheap to copy; shares the lineage node).
template <typename T>
class RDD {
 public:
  using ElementType = T;

  RDD() = default;
  explicit RDD(std::shared_ptr<const RDDImpl<T>> impl)
      : impl_(std::move(impl)) {}

  bool Valid() const { return impl_ != nullptr; }
  Context* ctx() const { return impl_->ctx(); }
  size_t NumPartitions() const { return impl_->NumPartitions(); }

  // ---- Transformations (lazy) -------------------------------------------

  /// Element-wise transform, like Spark's `map`.
  template <typename F>
  auto Map(F fn) const {
    using U = std::invoke_result_t<F, T&>;
    return RDD<U>(std::make_shared<engine_internal::MapRDD<T, U, F>>(
        impl_, std::move(fn)));
  }

  /// Keeps elements for which \p fn returns true.
  template <typename F>
  RDD<T> Filter(F fn) const {
    return RDD<T>(std::make_shared<engine_internal::FilterRDD<T, F>>(
        impl_, std::move(fn)));
  }

  /// Element to zero-or-more elements; \p fn returns a std::vector.
  template <typename F>
  auto FlatMap(F fn) const {
    using Vec = std::invoke_result_t<F, T&>;
    using U = typename Vec::value_type;
    return RDD<U>(std::make_shared<engine_internal::FlatMapRDD<T, U, F>>(
        impl_, std::move(fn)));
  }

  /// Whole-partition transform: fn(partition_index, std::vector<T>) must
  /// return the new partition contents (any element type).
  template <typename F>
  auto MapPartitionsWithIndex(F fn) const {
    using Vec = std::invoke_result_t<F, size_t, std::vector<T>>;
    using U = typename Vec::value_type;
    return RDD<U>(
        std::make_shared<engine_internal::MapPartitionsRDD<T, U, F>>(
            impl_, std::move(fn)));
  }

  /// Concatenation of the two datasets' partition lists.
  RDD<T> Union(const RDD<T>& other) const {
    return RDD<T>(std::make_shared<engine_internal::UnionRDD<T>>(
        impl_, other.impl_));
  }

  /// Marks this RDD as cached: each partition is computed at most once.
  RDD<T> Cache() const {
    return RDD<T>(std::make_shared<engine_internal::CacheRDD<T>>(impl_));
  }

  /// Skips partitions for which \p keep returns false without computing
  /// them (Spark's PartitionPruningRDD; partition count is preserved).
  RDD<T> PrunePartitions(std::function<bool(size_t)> keep) const {
    return RDD<T>(std::make_shared<engine_internal::PrunePartitionsRDD<T>>(
        impl_, std::move(keep)));
  }

  /// Bernoulli sample of roughly `fraction` of the elements; deterministic
  /// for a given seed (each partition derives its own stream).
  RDD<T> Sample(double fraction, uint64_t seed = 42) const {
    return MapPartitionsWithIndex(
        [fraction, seed](size_t idx, std::vector<T> part) {
          Rng rng(seed * 1315423911u + idx);
          std::vector<T> out;
          for (auto& x : part) {
            if (rng.Bernoulli(fraction)) out.push_back(std::move(x));
          }
          return out;
        });
  }

  // ---- Shuffles (eager, like a Spark stage boundary) --------------------

  /// Reassigns every element to the partition returned by \p target
  /// (which must be < \p num_partitions). Materializes the shuffle.
  RDD<T> PartitionBy(size_t num_partitions,
                     const std::function<size_t(const T&)>& target) const {
    STARK_CHECK(num_partitions >= 1);
    static obs::Counter* const shuffle_records =
        obs::DefaultMetrics().GetCounter("engine.shuffle.records");
    static obs::Counter* const shuffles =
        obs::DefaultMetrics().GetCounter("engine.shuffles");
    static fault::FailPoint* const shuffle_fp =
        fault::DefaultFailPoints().Get("engine.shuffle.route");
    shuffles->Increment();
    const size_t in_parts = NumPartitions();
    // Route each input partition into per-target buckets in parallel...
    // (Each attempt rebuilds its buckets from the lineage and the metric
    // Add happens after routing succeeds, so a retried map task neither
    // duplicates data nor double-counts records.)
    std::vector<std::vector<std::vector<T>>> routed(in_parts);
    ctx()->RunTasks(StageFor("rdd.shuffle.map"), in_parts, [&](size_t p) {
      fault::MaybeThrow(shuffle_fp);
      std::vector<std::vector<T>> buckets(num_partitions);
      // A stored partition is read in place and each element copied once
      // into its bucket; a computed one is owned here, so it is moved.
      auto route = [&](auto& in) {
        if (obs::TaskSpan* span = ActionSpan()) {
          span->records_in = in.size();
          span->records_out = in.size();
          span->bytes = in.size() * sizeof(T);
        }
        for (auto& x : in) {
          const size_t t = target(x);
          STARK_DCHECK(t < num_partitions);
          buckets[t].push_back(std::move(x));
        }
        shuffle_records->Add(in.size());
      };
      if (const std::vector<T>* stored = impl_->Stored(p)) {
        route(*stored);
      } else {
        std::vector<T> computed = impl_->Compute(p);
        route(computed);
      }
      routed[p] = std::move(buckets);
    });
    // ...then concatenate the buckets per target partition.
    std::vector<std::vector<T>> out(num_partitions);
    for (size_t t = 0; t < num_partitions; ++t) {
      size_t total = 0;
      for (size_t p = 0; p < in_parts; ++p) total += routed[p][t].size();
      out[t].reserve(total);
      for (size_t p = 0; p < in_parts; ++p) {
        for (auto& x : routed[p][t]) out[t].push_back(std::move(x));
        routed[p][t].clear();
      }
    }
    return RDD<T>(std::make_shared<engine_internal::CollectionRDD<T>>(
        ctx(), std::move(out)));
  }

  /// Rebalances into \p num_partitions equal chunks (round-robin).
  RDD<T> Repartition(size_t num_partitions) const {
    std::vector<T> all = Collect();
    return MakeRDD(ctx(), std::move(all), num_partitions);
  }

  /// Pairs every element with a globally unique, stable index.
  RDD<std::pair<T, size_t>> ZipWithIndex() const {
    std::vector<std::vector<T>> parts = CollectPartitions();
    std::vector<std::vector<std::pair<T, size_t>>> out(parts.size());
    size_t next = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      out[p].reserve(parts[p].size());
      for (auto& x : parts[p]) out[p].emplace_back(std::move(x), next++);
    }
    return RDD<std::pair<T, size_t>>(
        std::make_shared<engine_internal::CollectionRDD<std::pair<T, size_t>>>(
            ctx(), std::move(out)));
  }

  // ---- Actions (trigger evaluation) --------------------------------------
  //
  // Each action has a Status-returning Try* form and a throwing
  // value-returning form. A task that keeps failing after the context's
  // RetryPolicy is exhausted surfaces as a non-OK Result from Try*; the
  // plain forms throw the same failure as a StatusError on the driver
  // thread (never through the worker pool). A job is labelled with the
  // action's stage unless the lineage names its own (RDDImpl::Stage).

  /// Evaluates and returns all partitions, in partition order.
  Result<std::vector<std::vector<T>>> TryCollectPartitions() const {
    const size_t n = NumPartitions();
    std::vector<std::vector<T>> parts(n);
    const char* stage = StageFor("rdd.collect");
    STARK_RETURN_NOT_OK(ctx()->TryRunTasks(stage, n, [&](size_t p) {
      parts[p] = impl_->Compute(p);
      if (obs::TaskSpan* span = ActionSpan()) {
        span->records_in = parts[p].size();
        span->records_out = parts[p].size();
      }
    }));
    return parts;
  }

  std::vector<std::vector<T>> CollectPartitions() const {
    Result<std::vector<std::vector<T>>> parts = TryCollectPartitions();
    if (!parts.ok()) throw StatusError(parts.status());
    return std::move(parts).ValueOrDie();
  }

  /// Read-only views of all partitions, in partition order, for consumers
  /// that only read them. A partition the lineage already stores (a
  /// Cache()d or in-memory RDD) is borrowed in place and stays valid while
  /// this RDD lives; any other partition is computed into \p storage, which
  /// must outlive the views.
  Result<std::vector<const std::vector<T>*>> TryPartitionViews(
      std::vector<std::vector<T>>* storage) const {
    const size_t n = NumPartitions();
    storage->assign(n, {});
    std::vector<const std::vector<T>*> views(n, nullptr);
    const char* stage = StageFor("rdd.collect");
    STARK_RETURN_NOT_OK(ctx()->TryRunTasks(stage, n, [&](size_t p) {
      views[p] = &engine_internal::Borrow(*impl_, p, &(*storage)[p]);
      if (obs::TaskSpan* span = ActionSpan()) {
        span->records_in = views[p]->size();
        span->records_out = views[p]->size();
      }
    }));
    return views;
  }

  std::vector<const std::vector<T>*> PartitionViews(
      std::vector<std::vector<T>>* storage) const {
    Result<std::vector<const std::vector<T>*>> views =
        TryPartitionViews(storage);
    if (!views.ok()) throw StatusError(views.status());
    return std::move(views).ValueOrDie();
  }

  /// Evaluates and concatenates all partitions.
  Result<std::vector<T>> TryCollect() const {
    STARK_ASSIGN_OR_RETURN(std::vector<std::vector<T>> parts,
                           TryCollectPartitions());
    size_t total = 0;
    for (const auto& part : parts) total += part.size();
    std::vector<T> out;
    out.reserve(total);
    for (auto& part : parts) {
      for (auto& x : part) out.push_back(std::move(x));
    }
    return out;
  }

  std::vector<T> Collect() const {
    Result<std::vector<T>> out = TryCollect();
    if (!out.ok()) throw StatusError(out.status());
    return std::move(out).ValueOrDie();
  }

  /// Number of elements.
  Result<size_t> TryCount() const {
    const size_t n = NumPartitions();
    std::vector<size_t> counts(n, 0);
    const char* stage = StageFor("rdd.count");
    STARK_RETURN_NOT_OK(ctx()->TryRunTasks(stage, n, [&](size_t p) {
      counts[p] = impl_->Count(p);
      if (obs::TaskSpan* span = ActionSpan()) {
        span->records_in = counts[p];
        span->records_out = 1;
      }
    }));
    size_t total = 0;
    for (size_t c : counts) total += c;
    return total;
  }

  size_t Count() const {
    Result<size_t> count = TryCount();
    if (!count.ok()) throw StatusError(count.status());
    return count.ValueOrDie();
  }

  /// Folds all elements with \p fn starting from \p init (fn must be
  /// associative and commutative, as in Spark).
  template <typename F>
  T Fold(T init, F fn) const {
    const size_t n = NumPartitions();
    std::vector<T> partials(n, init);
    ctx()->RunTasks(StageFor("rdd.fold"), n, [&](size_t p) {
      std::vector<T> items = impl_->Compute(p);
      if (obs::TaskSpan* span = ActionSpan()) {
        span->records_in = items.size();
        span->records_out = 1;
      }
      T acc = init;
      for (auto& x : items) acc = fn(acc, x);
      partials[p] = std::move(acc);
    });
    T acc = init;
    for (auto& x : partials) acc = fn(acc, x);
    return acc;
  }

  /// First \p n elements in partition order.
  std::vector<T> Take(size_t n) const {
    std::vector<T> out;
    for (size_t p = 0; p < NumPartitions() && out.size() < n; ++p) {
      std::vector<T> part = impl_->Compute(p);
      for (auto& x : part) {
        if (out.size() >= n) break;
        out.push_back(std::move(x));
      }
    }
    return out;
  }

  const std::shared_ptr<const RDDImpl<T>>& impl() const { return impl_; }

 private:
  /// The stage label of an action's job: the lineage's own when it has one,
  /// else \p action.
  const char* StageFor(const char* action) const {
    const char* stage = impl_->Stage();
    return stage != nullptr ? stage : action;
  }

  /// The current task's span for the action to annotate; null when the
  /// lineage labels the stage, because its tasks annotate their own spans.
  obs::TaskSpan* ActionSpan() const {
    return impl_->Stage() == nullptr ? obs::CurrentTaskSpan() : nullptr;
  }

  std::shared_ptr<const RDDImpl<T>> impl_;
};

/// Creates an RDD from in-memory data split into \p num_partitions chunks
/// (0 = the context's default parallelism) — Spark's `parallelize`.
template <typename T>
RDD<T> MakeRDD(Context* ctx, std::vector<T> data, size_t num_partitions = 0) {
  const size_t n =
      num_partitions != 0 ? num_partitions : ctx->default_parallelism();
  std::vector<std::vector<T>> parts(n);
  const size_t chunk = (data.size() + n - 1) / std::max<size_t>(n, 1);
  size_t i = 0;
  for (size_t p = 0; p < n && i < data.size(); ++p) {
    const size_t end = std::min(i + chunk, data.size());
    parts[p].reserve(end - i);
    for (; i < end; ++i) parts[p].push_back(std::move(data[i]));
  }
  return RDD<T>(std::make_shared<engine_internal::CollectionRDD<T>>(
      ctx, std::move(parts)));
}

/// Creates an RDD directly from pre-built partitions.
template <typename T>
RDD<T> MakeRDDFromPartitions(Context* ctx,
                             std::vector<std::vector<T>> partitions) {
  return RDD<T>(std::make_shared<engine_internal::CollectionRDD<T>>(
      ctx, std::move(partitions)));
}

}  // namespace stark

#endif  // STARK_ENGINE_RDD_H_
