/// \file join.h
/// Spatio-temporal join (§2.3). STARK assigns each element to exactly one
/// partition (centroid assignment) and keeps overlapping partition extents,
/// so the join enumerates partition *pairs* whose extents can satisfy the
/// predicate, indexes one side, and probes it with the other — no
/// replication, no result deduplication (contrast with the GeoSpark-style
/// baseline).
///
/// Three strategies, each a thin planner over one shared core (see
/// docs/JOINS.md): the live partition-pair join (the SpatialRDD overload),
/// the cached-index join (the IndexedSpatialRDD overload, which probes the
/// trees Index()/LiveIndex()/Load() built and never builds one), and the
/// broadcast join (a small side flattened into one R-tree, probed from
/// every partition of the other side). The core: EnumeratePairs prunes
/// partition pairs by extent, RunProbeTasks and RunBroadcast plan the probe
/// tasks and return them as a lazy ProbeRDD, and ProbeRows is the row loop
/// every task runs. Per probe row it calls columnar_refine::RefineFixed,
/// the refine core the filters share, which owns the kernel, scalar-tree
/// and nested-loop refine paths for either operand orientation
/// (`cand_left`). A live self-join on a symmetric predicate runs the same
/// core over a symmetric PairPlan: pairs (i, j) with i <= j only, each
/// match refined once and emitted in both orders; over point rows its
/// tasks probe one leaf of the probe partition's tree at a time
/// (columnar_refine::RefineLeafGroups).
///
/// Planning (partition reads, pair pruning, index builds) runs when a join
/// is called; the probe tasks run inside the job that reads its result and
/// push each match straight into that job, so a Filter(...).Count() over a
/// join never materializes the pairs. Cache() a result that is read twice.
///
/// Probe work is scheduled skew-aware: per-pair cost is estimated as
/// |probe| * log(|indexed|) (indexed) or |probe| * |build| (nested loop),
/// pairs whose cost exceeds `skew_split_factor` times the mean are split
/// into probe sub-range tasks, and tasks run longest-first so one dense
/// partition no longer serializes the join.
#ifndef STARK_SPATIAL_RDD_JOIN_H_
#define STARK_SPATIAL_RDD_JOIN_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/context.h"
#include "engine/rdd.h"
#include "geometry/prepared.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spatial_rdd/columnar_refine.h"
#include "spatial_rdd/spatial_rdd.h"

namespace stark {

/// Tuning knobs for SpatialJoin.
struct JoinOptions {
  /// Order of the R-tree built over each left partition (live path) or over
  /// the broadcast side; 0 disables indexing and uses a nested-loop per
  /// partition pair ("No Indexing"). Ignored by the cached-index overloads,
  /// which reuse the trees as built.
  size_t index_order = 10;

  /// When > 0 and one side's total element count is <= this threshold, that
  /// side is broadcast: flattened into one R-tree probed by every partition
  /// of the other side, instead of enumerating nl x nr partition pairs.
  /// 0 disables broadcasting.
  size_t broadcast_threshold = 0;

  /// A partition pair whose estimated cost exceeds this factor times the
  /// mean pair cost is split into probe sub-range tasks (skew mitigation).
  /// <= 0 disables splitting.
  double skew_split_factor = 4.0;

  /// Upper bound on the number of sub-range tasks one pair is split into.
  size_t max_subtasks_per_pair = 32;
};

/// Global named-metric mirrors for the join engine, registered in
/// obs::DefaultMetrics() under engine.join.* (the join analogue of
/// GlobalFilterMetrics). Counters are batched per task, never per element.
struct JoinMetricSet {
  obs::Counter* pairs_enumerated;  ///< partition pairs turned into tasks
  obs::Counter* pairs_pruned;      ///< partition pairs skipped by extents
  obs::Counter* pairs_split;       ///< pairs split into sub-range tasks
  obs::Counter* subtasks;          ///< probe tasks actually scheduled
  obs::Counter* tree_builds;       ///< R-trees built by the join itself
  obs::Counter* tree_reuse_hits;   ///< cached trees probed without rebuild
  obs::Counter* broadcast_joins;   ///< joins that took the broadcast path
  obs::Counter* prefilter_skips;   ///< nested-loop pairs rejected by envelope
  obs::Counter* results;           ///< result records emitted
};

inline const JoinMetricSet& GlobalJoinMetrics() {
  static const JoinMetricSet metrics = [] {
    obs::MetricsRegistry& m = obs::DefaultMetrics();
    return JoinMetricSet{
        m.GetCounter("engine.join.pairs_enumerated"),
        m.GetCounter("engine.join.pairs_pruned"),
        m.GetCounter("engine.join.pairs_split"),
        m.GetCounter("engine.join.subtasks"),
        m.GetCounter("engine.join.tree_builds"),
        m.GetCounter("engine.join.tree_reuse_hits"),
        m.GetCounter("engine.join.broadcast_joins"),
        m.GetCounter("engine.join.prefilter_skips"),
        m.GetCounter("engine.join.results"),
    };
  }();
  return metrics;
}

namespace join_internal {

/// One schedulable unit of probe work: right-partition elements
/// [begin, end) probed against left partition `left`. A whole pair is one
/// task with [0, |R_j|); a skew-split pair becomes several tasks over
/// disjoint sub-ranges.
struct ProbeTask {
  size_t left = 0;
  size_t right = 0;
  size_t begin = 0;
  size_t end = 0;
  double cost = 0.0;
};

/// Estimated cost of probing \p probe_count elements against a partition of
/// \p build_count elements. Indexed probes are logarithmic in the indexed
/// side, nested loops linear. The +2 keeps log2 positive for tiny trees.
inline double PairCost(size_t probe_count, size_t build_count, bool indexed) {
  if (indexed) {
    return static_cast<double>(probe_count) *
           std::log2(2.0 + static_cast<double>(build_count));
  }
  return static_cast<double>(probe_count) * static_cast<double>(build_count);
}

/// \brief Turns surviving partition pairs into an ordered probe-task list.
///
/// Cost per pair is PairCost(|R_j|, |L_i|, indexed). Pairs whose cost
/// exceeds `skew_split_factor` times the mean are split into up to
/// `max_subtasks_per_pair` equal probe sub-ranges (each targeting roughly
/// the mean cost); the final list is sorted cost-descending, which on the
/// FIFO worker pool schedules the longest tasks first (LPT). Increments
/// the pairs_split counter via \p pairs_split when non-null.
inline std::vector<ProbeTask> PlanProbeTasks(
    const std::vector<std::pair<size_t, size_t>>& pairs,
    const std::vector<size_t>& left_sizes,
    const std::vector<size_t>& right_sizes, bool indexed,
    const JoinOptions& options, size_t* pairs_split = nullptr) {
  std::vector<ProbeTask> tasks;
  tasks.reserve(pairs.size());
  double total_cost = 0.0;
  for (const auto& [i, j] : pairs) {
    ProbeTask t;
    t.left = i;
    t.right = j;
    t.end = right_sizes[j];
    t.cost = PairCost(right_sizes[j], left_sizes[i], indexed);
    total_cost += t.cost;
    tasks.push_back(t);
  }

  size_t split_count = 0;
  if (options.skew_split_factor > 0.0 && tasks.size() > 1) {
    const double mean = total_cost / static_cast<double>(tasks.size());
    const double limit = mean * options.skew_split_factor;
    std::vector<ProbeTask> expanded;
    expanded.reserve(tasks.size());
    for (const ProbeTask& t : tasks) {
      const size_t range = t.end - t.begin;
      size_t subtasks = 1;
      if (mean > 0.0 && t.cost > limit && range > 1) {
        subtasks = static_cast<size_t>(std::ceil(t.cost / mean));
        subtasks = std::min({subtasks, options.max_subtasks_per_pair, range});
      }
      if (subtasks <= 1) {
        expanded.push_back(t);
        continue;
      }
      ++split_count;
      const size_t chunk = (range + subtasks - 1) / subtasks;
      for (size_t b = t.begin; b < t.end; b += chunk) {
        ProbeTask sub = t;
        sub.begin = b;
        sub.end = std::min(t.end, b + chunk);
        sub.cost = t.cost * static_cast<double>(sub.end - sub.begin) /
                   static_cast<double>(range);
        expanded.push_back(sub);
      }
    }
    tasks = std::move(expanded);
  }
  if (pairs_split != nullptr) *pairs_split = split_count;

  // Longest-first: the pool consumes its queue in submission order, so a
  // descending sort is a priority schedule that stops the biggest pair
  // from being picked up last and dragging the join's tail.
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const ProbeTask& a, const ProbeTask& b) {
                     return a.cost > b.cost;
                   });
  return tasks;
}

/// Trace annotation for a probe task, e.g. "L3xR1" or "L3xR1 [500,1000)"
/// for a skew-split sub-range.
inline std::string TaskDetail(const ProbeTask& t, size_t full_range) {
  std::string d = "L" + std::to_string(t.left) + "xR" + std::to_string(t.right);
  if (t.begin != 0 || t.end != full_range) {
    d += " [" + std::to_string(t.begin) + "," + std::to_string(t.end) + ")";
  }
  return d;
}

/// Partition pairs that survive extent pruning, and which left partitions
/// take part in at least one of them. A symmetric plan joins one input with
/// itself on a symmetric predicate and holds only the pairs with i <= j;
/// each of its probe tasks emits every match in both orders.
struct PairPlan {
  std::vector<std::pair<size_t, size_t>> pairs;
  std::vector<char> left_used;
  bool symmetric = false;
};

/// \brief Enumerates the partition pairs (i, j) of an nl x nr join whose
/// extents can satisfy \p pred, pruning only for a prunable predicate with
/// both extent lists present (one extent per partition). With \p symmetric
/// (a self-join, nl == nr) only the pairs with j >= i are walked. Counts
/// engine.join.pairs_{enumerated,pruned} over the walked pairs.
inline PairPlan EnumeratePairs(
    size_t nl, size_t nr,
    const std::shared_ptr<std::vector<Envelope>>& left_extents,
    const std::shared_ptr<std::vector<Envelope>>& right_extents,
    const JoinPredicate& pred, bool symmetric = false) {
  const bool can_prune =
      pred.Prunable() && left_extents != nullptr && right_extents != nullptr;
  const double margin = pred.EnvelopeMargin();
  PairPlan plan;
  plan.pairs.reserve(can_prune ? nl + nr : nl * nr);
  plan.left_used.assign(nl, 0);
  plan.symmetric = symmetric;
  size_t pruned = 0;
  for (size_t i = 0; i < nl; ++i) {
    for (size_t j = symmetric ? i : 0; j < nr; ++j) {
      if (can_prune && !(*left_extents)[i].Expanded(margin).Intersects(
                           (*right_extents)[j])) {
        ++pruned;
        continue;
      }
      plan.pairs.emplace_back(i, j);
      plan.left_used[i] = 1;
    }
  }
  const JoinMetricSet& metrics = GlobalJoinMetrics();
  metrics.pairs_enumerated->Add(plan.pairs.size());
  metrics.pairs_pruned->Add(pruned);
  return plan;
}

/// Closes a probe task: annotates its span, e.g. "L3xR1 packed_probes=128
/// prepared=500/3", and flushes its tallies into the global metrics.
inline void FinishTask(const std::string& detail, size_t records_in,
                       size_t results, const columnar_refine::TaskState& task) {
  task.Flush();
  if (obs::TaskSpan* span = obs::CurrentTaskSpan()) {
    span->detail = detail + " packed_probes=" +
                   std::to_string(task.packed_probes) + " prepared=" +
                   std::to_string(task.prepared_hits) + "/" +
                   std::to_string(task.prepared_misses);
    span->records_in = records_in;
    span->records_out = results;
    span->candidates = task.packed_probes;
    span->refined = results;
  }
  GlobalJoinMetrics().prefilter_skips->Add(task.prefilter_skips);
  GlobalJoinMetrics().results->Add(results);
}

/// \brief The one probe loop every join task runs: refines each row of
/// [begin, end) of \p probe against \p source with RefineFixed (the
/// candidates fill the \p cand_left operand slot; see there for \p stable)
/// and calls emit(candidate, probe_row) for each match, per probe row in
/// candidate order. On a \p diagonal pair of a symmetric plan the probe
/// rows are the source's own rows, and each probe row only meets the rows
/// at or after it (RowSource::min_row). A cooperative checkpoint also runs
/// every 1024 probe rows, for probes that find no candidates. On a
/// symmetric plan \p own is the probe rows' own source, their partition's
/// tree and slabs; when it and \p source both carry point slabs the rows
/// go through RefineLeafGroups, one leaf of that tree at a time, with the
/// same candidates per row but in the tree's storage order.
template <typename P, typename Source, typename Emit>
void ProbeRows(const JoinPredicate& pred, Source source, bool cand_left,
               const std::vector<P>& probe, size_t begin, size_t end,
               bool diagonal, const std::type_identity_t<Source>* own,
               PreparedGeometryCache* stable,
               columnar_refine::TaskState* task, Emit&& emit) {
  if constexpr (Source::kSlabRows) {
    if (own != nullptr && own->points != nullptr &&
        source.points != nullptr) {
      columnar_refine::RefineLeafGroups(pred, source, cand_left, probe,
                                        *own->tree, begin, end, diagonal,
                                        task, emit);
      return;
    }
  }
  for (size_t i = begin; i < end; ++i) {
    if (((i - begin) & 1023u) == 0) ThrowIfTaskCancelled();
    if constexpr (Source::kSlabRows) {
      if (diagonal) source.min_row = i;
    }
    const P& p = probe[i];
    columnar_refine::RefineFixed(pred, source, p.first, cand_left, stable,
                                 task, [&](const auto& c) { emit(c, p); });
  }
}

/// The partitions of one join input, read in place: \c views[p] is the
/// partition the lineage stores (kept alive by \c rdd) or the one computed
/// into \c storage.
template <typename T>
struct InputParts {
  RDD<T> rdd;
  std::vector<std::vector<T>> storage;
  std::vector<const std::vector<T>*> views;
};

template <typename T>
std::shared_ptr<const InputParts<T>> ReadParts(const RDD<T>& rdd) {
  auto parts = std::make_shared<InputParts<T>>();
  parts->rdd = rdd;
  parts->views = rdd.PartitionViews(&parts->storage);
  return parts;
}

/// \brief A join's lazy probe stage: partition t is probe task t, which
/// runs inside whichever job reads it and pushes each result straight into
/// that job's sink, so a consumer such as Filter(...).Count() never holds
/// the pairs. The task body owns, through its captures, everything the
/// tasks read. The node labels the reading jobs with its stage and the
/// body annotates their spans; a task's tallies are flushed only when it
/// finishes, so a failed attempt counts nothing and its retry starts over.
template <typename Out>
class ProbeRDD final : public RDDImpl<Out> {
 public:
  using RunTask = std::function<void(size_t, Sink<Out>)>;

  ProbeRDD(Context* ctx, const char* stage, size_t tasks, RunTask run_task)
      : RDDImpl<Out>(ctx), stage_(stage), tasks_(tasks),
        run_task_(std::move(run_task)) {}

  size_t NumPartitions() const override { return tasks_; }
  std::vector<Out> Compute(size_t t) const override {
    std::vector<Out> out;
    run_task_(t, [&out](Out& x) { out.push_back(std::move(x)); });
    return out;
  }
  void ForEach(size_t t, Sink<Out> sink) const override { run_task_(t, sink); }
  const char* Stage() const override { return stage_; }

 private:
  const char* stage_;
  size_t tasks_;
  RunTask run_task_;
};

/// \brief The partition-pair probe stage of the live and cached-index
/// planners: PlanProbeTasks now, then one lazy `spatial.join.probe` task
/// per ProbeTask, probing its right sub-range against source_of(task.left)
/// (candidates in the left slot). make(l, r) projects a match; a symmetric
/// plan also emits make(r, l) for each match but a row with itself.
/// source_of and make are kept by the returned node, so they capture by
/// value.
template <typename Out, typename R, typename SourceOf, typename Make>
RDD<Out> RunProbeTasks(Context* ctx, const PairPlan& plan,
                       const std::vector<size_t>& left_sizes,
                       std::shared_ptr<const InputParts<R>> right,
                       bool indexed, const JoinPredicate& pred,
                       const JoinOptions& options, SourceOf source_of,
                       Make make) {
  const JoinMetricSet& metrics = GlobalJoinMetrics();
  std::vector<size_t> right_sizes(right->views.size());
  for (size_t j = 0; j < right->views.size(); ++j) {
    right_sizes[j] = right->views[j]->size();
  }
  size_t pairs_split = 0;
  std::vector<ProbeTask> tasks = PlanProbeTasks(
      plan.pairs, left_sizes, right_sizes, indexed, options, &pairs_split);
  metrics.pairs_split->Add(pairs_split);
  metrics.subtasks->Add(tasks.size());

  const size_t num_tasks = tasks.size();
  return RDD<Out>(std::make_shared<ProbeRDD<Out>>(
      ctx, "spatial.join.probe", num_tasks,
      [tasks = std::move(tasks), right = std::move(right), pred,
       symmetric = plan.symmetric, source_of = std::move(source_of),
       make = std::move(make)](size_t t, Sink<Out> sink) {
        const ProbeTask& task = tasks[t];
        const std::vector<R>& rv = *right->views[task.right];
        const auto source = source_of(task.left);
        // The probe rows of a symmetric plan are an input partition as
        // well, so their own tree and slabs are at hand.
        const auto own = symmetric ? source_of(task.right)
                                   : std::decay_t<decltype(source)>{};
        columnar_refine::TaskState state;
        size_t results = 0;
        const auto push = [&](Out out) {
          ++results;
          sink(out);
        };
        ProbeRows(pred, source, /*cand_left=*/true, rv, task.begin, task.end,
                  /*diagonal=*/symmetric && task.left == task.right,
                  symmetric ? &own : nullptr, /*stable=*/nullptr, &state,
                  [&](const auto& l, const R& r) {
                    push(make(l, r));
                    if constexpr (std::is_same_v<
                                      std::decay_t<decltype(l)>, R>) {
                      // On a diagonal pair a row meets itself once.
                      if (symmetric && &l != &r) push(make(r, l));
                    }
                  });
        if (source.points != nullptr && task.begin != 0) {
          // A skew-split sub-task reuses the slab its sibling built.
          GlobalColumnarMetrics().slab_reuse->Increment();
        }
        FinishTask(TaskDetail(task, rv.size()), task.end - task.begin,
                   results, state);
      }));
}

/// The flattened small side of a broadcast join and its index.
template <typename S>
struct BroadcastSide {
  std::vector<S> rows;
  columnar_refine::RowIndex index;
};

/// \brief The broadcast strategy for both directions: \p small_parts (the
/// side under the threshold, the left one iff \p small_left) is flattened
/// and indexed now (nested loop without \p use_index), then probed lazily
/// from every partition of \p big, one `spatial.join.broadcast` task each.
/// make(small_row, big_row) projects a match in (left, right) order and is
/// kept by the returned node. The small side is stable for the whole join,
/// so its slabs are shared by every task and the scalar refine prepares its
/// geometries through a per-task PreparedGeometryCache.
template <typename Out, typename S, typename B, typename Make>
RDD<Out> RunBroadcast(Context* ctx,
                      const std::vector<const std::vector<S>*>& small_parts,
                      std::shared_ptr<const InputParts<B>> big,
                      bool small_left, bool use_index,
                      const JoinPredicate& pred, const JoinOptions& options,
                      Make make) {
  GlobalJoinMetrics().broadcast_joins->Increment();
  auto small = std::make_shared<BroadcastSide<S>>();
  for (const std::vector<S>* part : small_parts) {
    small->rows.insert(small->rows.end(), part->begin(), part->end());
  }
  if (use_index) {
    small->index =
        columnar_refine::BuildRowIndex(small->rows, pred, options.index_order);
    GlobalJoinMetrics().tree_builds->Increment();
  }

  const size_t num_tasks = big->views.size();
  return RDD<Out>(std::make_shared<ProbeRDD<Out>>(
      ctx, "spatial.join.broadcast", num_tasks,
      [small = std::move(small), big = std::move(big), small_left, use_index,
       pred, make = std::move(make)](size_t i, Sink<Out> sink) {
        const auto source = columnar_refine::IndexedRows(
            &small->rows, use_index ? &small->index : nullptr, pred);
        const std::vector<B>& probe = *big->views[i];
        columnar_refine::TaskState state;
        PreparedGeometryCache cache;
        size_t results = 0;
        ProbeRows(pred, source, small_left, probe, 0, probe.size(),
                  /*diagonal=*/false, /*own=*/nullptr, &cache, &state,
                  [&](const S& s, const B& b) {
                    Out out = make(s, b);
                    ++results;
                    sink(out);
                  });
        state.prepared_hits += cache.hits();
        state.prepared_misses += cache.misses();
        if (source.points != nullptr) {
          // The broadcast slabs are shared by every task.
          GlobalColumnarMetrics().slab_reuse->Increment();
        }
        const std::string part = std::to_string(i);
        FinishTask((small_left ? "L*xR" + part : "L" + part + "xR*") +
                       " (broadcast)",
                   probe.size(), results, state);
      }));
}

}  // namespace join_internal

/// \brief Joins two spatial RDDs on \p pred and emits project(l, r) for
/// every matching pair — the projection runs inside the join tasks, so
/// callers that only need payloads (or ids) avoid materializing full
/// geometry pairs. The returned RDD probes in the job that reads it and
/// keeps \p project and both inputs alive until then.
///
/// With `options.broadcast_threshold` set and one side small enough, the
/// broadcast strategy is taken. Otherwise partition pairs are enumerated —
/// pruned by the partitioners' extents when both sides are spatially
/// partitioned (correctness does not require it) — and each participating
/// left partition gets a live R-tree built at join time, skipped entirely
/// when the predicate cannot use it (`index_order = 0` or a non-prunable
/// predicate: nested loop).
///
/// A self-join (both sides one lineage node) reads its input once. On a
/// symmetric predicate it also walks only the pairs (i, j) with i <= j and
/// refines each unordered pair of rows once, emitting project(a, b) and
/// project(b, a) from that one refine: the same result multiset, in
/// another order (see docs/JOINS.md).
template <typename V, typename W, typename Project>
auto SpatialJoinProject(const SpatialRDD<V>& left, const SpatialRDD<W>& right,
                        const JoinPredicate& pred, const JoinOptions& options,
                        Project project)
    -> RDD<std::invoke_result_t<Project, const std::pair<STObject, V>&,
                                const std::pair<STObject, W>&>> {
  using L = std::pair<STObject, V>;
  using R = std::pair<STObject, W>;
  using Out = std::invoke_result_t<Project, const L&, const R&>;
  namespace ji = join_internal;
  Context* ctx = left.ctx();
  const size_t nl = left.NumPartitions();

  // Read both sides in place: cached or in-memory partitions are borrowed,
  // the rest are computed once into storage the join keeps.
  const auto left_parts = ji::ReadParts(left.rdd());
  std::shared_ptr<const ji::InputParts<R>> right_parts;
  bool self_join = false;
  if constexpr (std::is_same_v<V, W>) {
    self_join = left.rdd().impl() == right.rdd().impl();
    if (self_join) right_parts = left_parts;
  }
  if (right_parts == nullptr) right_parts = ji::ReadParts(right.rdd());
  std::vector<size_t> left_sizes(nl, 0);
  size_t total_l = 0;
  size_t total_r = 0;
  for (size_t i = 0; i < nl; ++i) {
    total_l += left_sizes[i] = left_parts->views[i]->size();
  }
  for (const std::vector<R>* part : right_parts->views) total_r += part->size();

  // An index only helps predicates that admit envelope candidate pruning;
  // for the rest, building trees would be pure wasted work.
  const bool use_index = options.index_order > 0 && pred.Prunable();
  if (options.broadcast_threshold > 0 &&
      std::min(total_l, total_r) <= options.broadcast_threshold) {
    if (total_r <= total_l) {
      return ji::RunBroadcast<Out>(
          ctx, right_parts->views, left_parts, /*small_left=*/false,
          use_index, pred, options,
          [project](const R& r, const L& l) { return project(l, r); });
    }
    return ji::RunBroadcast<Out>(ctx, left_parts->views, right_parts,
                                 /*small_left=*/true, use_index, pred,
                                 options, std::move(project));
  }

  const ji::PairPlan plan =
      ji::EnumeratePairs(nl, right.NumPartitions(), left.Extents(),
                         right.Extents(), pred, self_join && pred.Symmetric());

  // Build a live index over each participating left partition (once, not
  // once per pair) in the same stage that picks its refine path. Every
  // probe task that targets the partition shares the index (skew-split
  // sub-tasks of the same pair share one slab: engine.columnar.slab_reuse).
  auto left_index = std::make_shared<std::vector<columnar_refine::RowIndex>>(
      use_index ? nl : 0);
  if (use_index) {
    ctx->RunTasks("spatial.join.build", nl, [&](size_t i) {
      if (!plan.left_used[i]) return;
      (*left_index)[i] = columnar_refine::BuildRowIndex(
          *left_parts->views[i], pred, options.index_order);
    });
    GlobalJoinMetrics().tree_builds->Add(
        std::count(plan.left_used.begin(), plan.left_used.end(), 1));
  }
  return ji::RunProbeTasks<Out>(
      ctx, plan, left_sizes, right_parts, use_index, pred, options,
      [left_parts, left_index, pred](size_t i) {
        return columnar_refine::IndexedRows(
            left_parts->views[i],
            left_index->empty() ? nullptr : &(*left_index)[i], pred);
      },
      std::move(project));
}

/// \brief Cached-index join: probes the R-trees already held by \p left —
/// built once by Index()/LiveIndex() or loaded from disk — instead of
/// rebuilding them per call. `engine.join.tree_builds` stays at 0 on this
/// path; every probed tree counts as an `engine.join.tree_reuse_hits`.
///
/// Partition pairs are pruned with the extents captured at indexing time.
/// A non-prunable predicate cannot use the trees; each task then walks the
/// elements of its partition's trees in place (a nested loop, still no tree
/// build). The broadcast strategy never applies here — the index is already
/// paid for.
template <typename V, typename W, typename Project>
auto SpatialJoinProject(const IndexedSpatialRDD<V>& left,
                        const SpatialRDD<W>& right, const JoinPredicate& pred,
                        const JoinOptions& options, Project project)
    -> RDD<std::invoke_result_t<Project, const std::pair<STObject, V>&,
                                const std::pair<STObject, W>&>> {
  using L = std::pair<STObject, V>;
  using R = std::pair<STObject, W>;
  using Out = std::invoke_result_t<Project, const L&, const R&>;
  using TreePtr = typename IndexedSpatialRDD<V>::TreePtr;
  namespace ji = join_internal;
  Context* ctx = right.ctx();
  const size_t nl = left.NumPartitions();

  // A cached trees RDD is read in place: the shared tree pointers are
  // neither copied nor rebuilt. The right side is borrowed the same way.
  const auto left_trees = ji::ReadParts(left.trees());
  const auto right_parts = ji::ReadParts(right.rdd());
  std::vector<size_t> left_sizes(nl, 0);
  for (size_t i = 0; i < nl; ++i) {
    for (const TreePtr& tree : *left_trees->views[i]) {
      left_sizes[i] += tree->size();
    }
  }

  const ji::PairPlan plan = ji::EnumeratePairs(
      nl, right.NumPartitions(), left.extents(), right.Extents(), pred);
  size_t reuse_hits = 0;
  for (size_t i = 0; i < nl; ++i) {
    if (plan.left_used[i]) reuse_hits += left_trees->views[i]->size();
  }
  GlobalJoinMetrics().tree_reuse_hits->Add(reuse_hits);

  return ji::RunProbeTasks<Out>(
      ctx, plan, left_sizes, right_parts, /*indexed=*/pred.Prunable(), pred,
      options,
      [left_trees, prune = pred.Prunable()](size_t i) {
        return columnar_refine::TreeListSource<L>{left_trees->views[i], prune};
      },
      std::move(project));
}

/// Joins \p left (a SpatialRDD, or an IndexedSpatialRDD whose cached trees
/// are probed) with \p right on \p pred; emits every full pair (l, r) with
/// pred.Eval(l.first, r.first) == true, as an RDD of std::pair<L, R>.
template <typename Left, typename W>
auto SpatialJoin(const Left& left, const SpatialRDD<W>& right,
                 const JoinPredicate& pred, const JoinOptions& options = {}) {
  return SpatialJoinProject(
      left, right, pred, options,
      [](const auto& l, const auto& r) { return std::pair(l, r); });
}

/// \brief Self join that excludes the trivial identity matches: each
/// element is tagged with a unique id and pairs (x, x) are dropped; both
/// orderings of a matching pair are emitted (standard join semantics).
template <typename V>
RDD<std::pair<std::pair<STObject, std::pair<V, size_t>>,
              std::pair<STObject, std::pair<V, size_t>>>>
SelfSpatialJoin(const SpatialRDD<V>& data, const JoinPredicate& pred,
                const JoinOptions& options = {}) {
  using Tagged = std::pair<STObject, std::pair<V, size_t>>;
  RDD<Tagged> tagged =
      data.rdd().ZipWithIndex().Map([](std::pair<std::pair<STObject, V>,
                                                 size_t>& e) {
        return Tagged{std::move(e.first.first),
                      {std::move(e.first.second), e.second}};
      });
  SpatialRDD<std::pair<V, size_t>> wrapped(tagged.Cache(),
                                           data.partitioner());
  auto joined = SpatialJoin(wrapped, wrapped, pred, options);
  return joined.Filter([](const std::pair<Tagged, Tagged>& pair) {
    return pair.first.second.second != pair.second.second.second;
  });
}

}  // namespace stark

#endif  // STARK_SPATIAL_RDD_JOIN_H_
