/// \file join.h
/// Spatio-temporal join (§2.3). STARK assigns each element to exactly one
/// partition (centroid assignment) and keeps overlapping partition extents,
/// so the join enumerates partition *pairs* whose extents can satisfy the
/// predicate, indexes the left side, and probes it with the right
/// partitions — no replication, no result deduplication (contrast with the
/// GeoSpark-style baseline).
///
/// Three execution strategies (see docs/JOINS.md):
///  - live-index: build an R-tree over each participating left partition at
///    join time (the classic STARK plan);
///  - cached-index: the overloads taking an IndexedSpatialRDD probe the
///    trees built by Index()/LiveIndex()/Load() instead of rebuilding —
///    `engine.join.tree_builds` stays 0 on this path;
///  - broadcast: when one side is small (`JoinOptions::broadcast_threshold`),
///    it is flattened into a single R-tree and probed against every
///    partition of the large side, skipping partition-pair enumeration.
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
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/context.h"
#include "geometry/prepared.h"
#include "index/packed_rtree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spatial_rdd/columnar_refine.h"
#include "spatial_rdd/query_stats.h"
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
    t.begin = 0;
    t.end = right_sizes[j];
    t.cost = PairCost(right_sizes[j], left_sizes[i], indexed);
    total_cost += t.cost;
    tasks.push_back(t);
  }

  if (options.skew_split_factor > 0.0 && tasks.size() > 1) {
    const double mean = total_cost / static_cast<double>(tasks.size());
    const double limit = mean * options.skew_split_factor;
    std::vector<ProbeTask> expanded;
    expanded.reserve(tasks.size());
    size_t split_count = 0;
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
    if (pairs_split != nullptr) *pairs_split = split_count;
    tasks = std::move(expanded);
  } else if (pairs_split != nullptr) {
    *pairs_split = 0;
  }

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

/// Annotates the current task span (when tracing or profiling) with the
/// probe detail, record counts, and index candidate/refined counts; no-op
/// outside an observed task.
inline void AnnotateSpan(const std::string& detail, size_t records_in,
                         size_t records_out, size_t candidates = 0,
                         size_t refined = 0) {
  if (obs::TaskSpan* span = obs::CurrentTaskSpan()) {
    span->detail = detail;
    span->records_in = records_in;
    span->records_out = records_out;
    span->candidates = candidates;
    span->refined = refined;
  }
}

/// Suffix describing the packed-index / prepared-geometry work a task did,
/// appended to its span detail (e.g. " packed_probes=128 prepared=500/3").
inline std::string IndexDetail(size_t packed_probes, size_t prepared_hits,
                               size_t prepared_misses) {
  return " packed_probes=" + std::to_string(packed_probes) +
         " prepared=" + std::to_string(prepared_hits) + "/" +
         std::to_string(prepared_misses);
}

/// Flushes task-local packed/prepared counters into the global metric set
/// (once per task — the granularity rule).
inline void FlushIndexMetrics(size_t packed_probes, size_t prepared_hits,
                              size_t prepared_misses) {
  const IndexMetricSet& m = GlobalIndexMetrics();
  m.packed_probes->Add(packed_probes);
  m.prepared_hits->Add(prepared_hits);
  m.prepared_misses->Add(prepared_misses);
}

}  // namespace join_internal

/// \brief Joins two spatial RDDs on \p pred and emits project(l, r) for
/// every matching pair — the projection runs inside the join tasks, so
/// callers that only need payloads (or ids) avoid materializing full
/// geometry pairs.
///
/// Live-index strategy: an R-tree is built over each participating left
/// partition at join time (skipped entirely when the predicate cannot use
/// it). With `options.broadcast_threshold` set and one side small enough,
/// the broadcast strategy is taken instead. Correctness does not require
/// spatial partitioning; with it, extent pruning skips partition pairs that
/// cannot match.
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
  const size_t nr = right.NumPartitions();
  const double margin = pred.EnvelopeMargin();
  const JoinMetricSet& metrics = GlobalJoinMetrics();

  // An index only helps predicates that admit envelope candidate pruning;
  // for the rest, building trees would be pure wasted work.
  const bool use_index = options.index_order > 0 && pred.Prunable();

  // Read both sides in place: cached or in-memory partitions are borrowed,
  // the rest are computed once into the storage here.
  std::vector<std::vector<L>> left_storage;
  std::vector<std::vector<R>> right_storage;
  const std::vector<const std::vector<L>*> left_parts =
      left.rdd().PartitionViews(&left_storage);
  const std::vector<const std::vector<R>*> right_parts =
      right.rdd().PartitionViews(&right_storage);
  std::vector<size_t> left_sizes(nl, 0);
  std::vector<size_t> right_sizes(nr, 0);
  size_t total_l = 0;
  size_t total_r = 0;
  for (size_t i = 0; i < nl; ++i) total_l += left_sizes[i] = left_parts[i]->size();
  for (size_t j = 0; j < nr; ++j) total_r += right_sizes[j] = right_parts[j]->size();

  // ---- Broadcast strategy -------------------------------------------------
  // One side fits under the threshold: flatten it, index it once, and probe
  // it from every partition of the other side — no pair enumeration at all.
  // The small side's geometries are stable for the whole join, so each task
  // refines through a PreparedGeometryCache keyed on them: one preparation
  // per distinct small geometry per task, reuse for every repeat candidate.
  // Custom withinDistance functions bypass preparation (the kernels never
  // see the geometry).
  const bool custom_fn =
      pred.type == PredicateType::kWithinDistance && pred.distance != nullptr;
  if (options.broadcast_threshold > 0 &&
      std::min(total_l, total_r) <= options.broadcast_threshold) {
    metrics.broadcast_joins->Increment();
    if (total_r <= total_l) {
      // Broadcast the right side; one task per left partition.
      std::vector<R> small;
      small.reserve(total_r);
      for (const std::vector<R>* part : right_parts) {
        small.insert(small.end(), part->begin(), part->end());
      }
      PackedRTree<size_t> tree;
      if (use_index) {
        std::vector<std::pair<Envelope, size_t>> entries;
        entries.reserve(small.size());
        for (size_t e = 0; e < small.size(); ++e) {
          entries.emplace_back(small[e].first.envelope(), e);
        }
        tree = PackedRTree<size_t>(options.index_order, std::move(entries));
        metrics.tree_builds->Increment();
      }
      // Kernel refinement when columnar_refine::SelectKernels picks it for
      // the broadcast side, which is stable for the whole join: its point
      // slabs are built once and each probe's candidate list is refined
      // batch-at-a-time, the probe being the prepared fixed operand. Results
      // and emission order are identical to the scalar refine.
      std::shared_ptr<const ColumnarBatch> small_points;
      if (use_index) {
        small_points = columnar_refine::SelectKernels(pred, [&] {
          return ColumnarBatch::BuildPoints(
              small, [](const R& e) -> const STObject& { return e.first; });
        });
      }
      std::vector<std::vector<Out>> out(nl);
      ctx->RunTasks("spatial.join.broadcast", nl, [&](size_t i) {
        std::vector<Out>& sink = out[i];
        sink.clear();  // retry-idempotent: a re-run starts from scratch
        size_t prefilter_skips = 0;
        size_t probed = 0;
        size_t packed_probes = 0;
        size_t prep_hits = 0;
        size_t prep_misses = 0;
        PreparedGeometryCache cache;
        columnar_refine::Stats cstats;
        std::vector<uint32_t> cand;
        std::vector<uint32_t> scratch;
        auto refine = [&](const L& l, const R& r) {
          return custom_fn ? pred.Eval(l.first, r.first)
                           : EvalWithPreparedRight(pred, l.first, r.first,
                                                   cache.Get(r.first.geo()));
        };
        for (const L& l : *left_parts[i]) {
          // Cooperative checkpoint: long probe tasks stop here when their
          // job is cancelled or past its deadline.
          if ((probed++ & 1023u) == 0) ThrowIfTaskCancelled();
          const Envelope probe = l.first.envelope().Expanded(margin);
          if (small_points != nullptr) {
            cand.clear();
            tree.Query(probe, [&](const Envelope&, const size_t& e) {
              cand.push_back(static_cast<uint32_t>(e));
            });
            ++packed_probes;
            if (!cand.empty()) {
              const size_t in_count = cand.size();
              PreparedGeometry prep(l.first.geo());
              columnar_refine::RefineCandidates(
                  *small_points, pred, l.first, prep, /*cand_left=*/false,
                  &cand, &cstats, &scratch);
              prep_misses += 1;
              prep_hits += in_count - 1;
              for (const uint32_t e : cand) sink.push_back(project(l, small[e]));
            }
          } else if (use_index) {
            tree.Query(probe, [&](const Envelope&, const size_t& e) {
              ++cstats.fallback_rows;
              if (refine(l, small[e])) sink.push_back(project(l, small[e]));
            });
            ++packed_probes;
          } else {
            for (const R& r : small) {
              if (pred.Prunable() && !probe.Intersects(r.first.envelope())) {
                ++prefilter_skips;
                continue;
              }
              if (refine(l, r)) sink.push_back(project(l, r));
            }
          }
        }
        cstats.Flush();
        if (small_points != nullptr) {
          // The broadcast slabs are shared by every task.
          GlobalColumnarMetrics().slab_reuse->Increment();
        }
        ji::AnnotateSpan("L" + std::to_string(i) + "xR* (broadcast)" +
                             ji::IndexDetail(packed_probes,
                                             cache.hits() + prep_hits,
                                             cache.misses() + prep_misses),
                         left_parts[i]->size(), sink.size(), packed_probes,
                         sink.size());
        metrics.prefilter_skips->Add(prefilter_skips);
        metrics.results->Add(sink.size());
        ji::FlushIndexMetrics(packed_probes, cache.hits() + prep_hits,
                              cache.misses() + prep_misses);
      });
      return MakeRDDFromPartitions(ctx, std::move(out));
    }
    // Broadcast the left side; one task per right partition.
    std::vector<L> small;
    small.reserve(total_l);
    for (const std::vector<L>* part : left_parts) {
      small.insert(small.end(), part->begin(), part->end());
    }
    PackedRTree<size_t> tree;
    if (use_index) {
      std::vector<std::pair<Envelope, size_t>> entries;
      entries.reserve(small.size());
      for (size_t e = 0; e < small.size(); ++e) {
        entries.emplace_back(small[e].first.envelope(), e);
      }
      tree = PackedRTree<size_t>(options.index_order, std::move(entries));
      metrics.tree_builds->Increment();
    }
    // Kernel refinement over the stable broadcast side (see the
    // right-broadcast branch above); here the candidates fill the left
    // operand slot.
    std::shared_ptr<const ColumnarBatch> small_points;
    if (use_index) {
      small_points = columnar_refine::SelectKernels(pred, [&] {
        return ColumnarBatch::BuildPoints(
            small, [](const L& e) -> const STObject& { return e.first; });
      });
    }
    std::vector<std::vector<Out>> out(nr);
    ctx->RunTasks("spatial.join.broadcast", nr, [&](size_t j) {
      std::vector<Out>& sink = out[j];
      sink.clear();
      size_t prefilter_skips = 0;
      size_t probed = 0;
      size_t packed_probes = 0;
      size_t prep_hits = 0;
      size_t prep_misses = 0;
      PreparedGeometryCache cache;
      columnar_refine::Stats cstats;
      std::vector<uint32_t> cand;
      std::vector<uint32_t> scratch;
      auto refine = [&](const L& l, const R& r) {
        return custom_fn ? pred.Eval(l.first, r.first)
                         : EvalWithPreparedLeft(pred, l.first, r.first,
                                                cache.Get(l.first.geo()));
      };
      for (const R& r : *right_parts[j]) {
        if ((probed++ & 1023u) == 0) ThrowIfTaskCancelled();
        const Envelope probe = r.first.envelope().Expanded(margin);
        if (small_points != nullptr) {
          cand.clear();
          tree.Query(probe, [&](const Envelope&, const size_t& e) {
            cand.push_back(static_cast<uint32_t>(e));
          });
          ++packed_probes;
          if (!cand.empty()) {
            const size_t in_count = cand.size();
            PreparedGeometry prep(r.first.geo());
            columnar_refine::RefineCandidates(*small_points, pred, r.first,
                                              prep, /*cand_left=*/true, &cand,
                                              &cstats, &scratch);
            prep_misses += 1;
            prep_hits += in_count - 1;
            for (const uint32_t e : cand) sink.push_back(project(small[e], r));
          }
        } else if (use_index) {
          tree.Query(probe, [&](const Envelope&, const size_t& e) {
            ++cstats.fallback_rows;
            if (refine(small[e], r)) sink.push_back(project(small[e], r));
          });
          ++packed_probes;
        } else {
          for (const L& l : small) {
            if (pred.Prunable() && !probe.Intersects(l.first.envelope())) {
              ++prefilter_skips;
              continue;
            }
            if (refine(l, r)) sink.push_back(project(l, r));
          }
        }
      }
      cstats.Flush();
      if (small_points != nullptr) {
        // The broadcast slabs are shared by every task.
        GlobalColumnarMetrics().slab_reuse->Increment();
      }
      ji::AnnotateSpan("L*xR" + std::to_string(j) + " (broadcast)" +
                           ji::IndexDetail(packed_probes,
                                           cache.hits() + prep_hits,
                                           cache.misses() + prep_misses),
                       right_parts[j]->size(), sink.size(), packed_probes,
                       sink.size());
      metrics.prefilter_skips->Add(prefilter_skips);
      metrics.results->Add(sink.size());
      ji::FlushIndexMetrics(packed_probes, cache.hits() + prep_hits,
                            cache.misses() + prep_misses);
    });
    return MakeRDDFromPartitions(ctx, std::move(out));
  }

  // ---- Partition-pair strategy (live index / nested loop) ----------------
  // Enumerate candidate partition pairs, pruned by extents when available.
  const auto& lp = left.partitioner();
  const auto& rp = right.partitioner();
  const bool can_prune = pred.Prunable() && lp != nullptr && rp != nullptr;
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(can_prune ? nl + nr : nl * nr);
  size_t pruned = 0;
  for (size_t i = 0; i < nl; ++i) {
    for (size_t j = 0; j < nr; ++j) {
      if (can_prune) {
        const Envelope le = lp->PartitionExtent(i).Expanded(margin);
        if (!le.Intersects(rp->PartitionExtent(j))) {
          ++pruned;
          continue;
        }
      }
      pairs.emplace_back(i, j);
    }
  }
  metrics.pairs_enumerated->Add(pairs.size());
  metrics.pairs_pruned->Add(pruned);

  // Build a live index over each participating left partition (once, not
  // once per pair) — but only when the predicate can actually use it.
  std::vector<char> left_used(nl, 0);
  for (const auto& [i, j] : pairs) {
    (void)j;
    left_used[i] = 1;
  }
  std::vector<std::unique_ptr<PackedRTree<size_t>>> left_trees(nl);
  // The refine path is selected per left partition in the same stage that
  // builds its live tree: columnar_refine::SelectKernels yields point slabs
  // (or null for the scalar refine), reused by every probe task that
  // targets the partition (skew-split sub-tasks of the same pair share one
  // slab: engine.columnar.slab_reuse).
  std::vector<std::shared_ptr<const ColumnarBatch>> left_points(nl);
  if (use_index) {
    size_t builds = 0;
    for (size_t i = 0; i < nl; ++i) builds += left_used[i] ? 1 : 0;
    ctx->RunTasks("spatial.join.build", nl, [&](size_t i) {
      if (!left_used[i]) return;
      std::vector<std::pair<Envelope, size_t>> entries;
      const std::vector<L>& part = *left_parts[i];
      entries.reserve(part.size());
      for (size_t e = 0; e < part.size(); ++e) {
        entries.emplace_back(part[e].first.envelope(), e);
      }
      left_trees[i] = std::make_unique<PackedRTree<size_t>>(
          options.index_order, std::move(entries));
      left_points[i] = columnar_refine::SelectKernels(pred, [&] {
        return ColumnarBatch::BuildPoints(
            part, [](const L& e) -> const STObject& { return e.first; });
      });
    });
    metrics.tree_builds->Add(builds);
  }

  // Plan the probe schedule: per-pair costs, skew splitting, longest-first.
  size_t pairs_split = 0;
  const std::vector<ji::ProbeTask> tasks = ji::PlanProbeTasks(
      pairs, left_sizes, right_sizes, use_index, options, &pairs_split);
  metrics.pairs_split->Add(pairs_split);
  metrics.subtasks->Add(tasks.size());

  std::vector<std::vector<Out>> out(tasks.size());
  ctx->RunTasks("spatial.join.probe", tasks.size(), [&](size_t t) {
    const ji::ProbeTask& task = tasks[t];
    const std::vector<L>& lv = *left_parts[task.left];
    const std::vector<R>& rv = *right_parts[task.right];
    std::vector<Out>& sink = out[t];
    sink.clear();  // retry-idempotent: a re-run starts from scratch
    size_t prefilter_skips = 0;
    size_t packed_probes = 0;
    size_t prep_hits = 0;
    size_t prep_misses = 0;
    columnar_refine::Stats cstats;
    if (left_points[task.left] != nullptr) {
      // Kernel probe: collect the tree's candidate rows, then refine them
      // batch-at-a-time against the probe's prepared geometry. Survivors
      // come back in candidate order, so emission matches the scalar path.
      const PackedRTree<size_t>& tree = *left_trees[task.left];
      const ColumnarBatch& batch = *left_points[task.left];
      std::vector<uint32_t> cand;
      std::vector<uint32_t> scratch;
      if (task.begin != 0) {
        // A skew-split sub-task reuses the slab its sibling built.
        GlobalColumnarMetrics().slab_reuse->Increment();
      }
      for (size_t rix = task.begin; rix < task.end; ++rix) {
        if (((rix - task.begin) & 1023u) == 0) ThrowIfTaskCancelled();
        const R& r = rv[rix];
        const Envelope probe = r.first.envelope().Expanded(margin);
        cand.clear();
        tree.Query(probe, [&](const Envelope&, const size_t& e) {
          cand.push_back(static_cast<uint32_t>(e));
        });
        ++packed_probes;
        if (cand.empty()) continue;
        const size_t in_count = cand.size();
        PreparedGeometry prep(r.first.geo());
        columnar_refine::RefineCandidates(batch, pred, r.first, prep,
                                          /*cand_left=*/true, &cand, &cstats,
                                          &scratch);
        prep_misses += 1;
        prep_hits += in_count - 1;
        for (const uint32_t e : cand) sink.push_back(project(lv[e], r));
      }
    } else if (use_index) {
      const PackedRTree<size_t>& tree = *left_trees[task.left];
      for (size_t rix = task.begin; rix < task.end; ++rix) {
        // Cooperative checkpoint for cancellation/deadline/speculation.
        if (((rix - task.begin) & 1023u) == 0) ThrowIfTaskCancelled();
        const R& r = rv[rix];
        const Envelope probe = r.first.envelope().Expanded(margin);
        // The probe row is the fixed operand for every candidate this
        // query returns — prepare it lazily via a bound predicate.
        BoundPredicate bound(pred, r.first,
                             BoundPredicate::Side::kCandidateLeft);
        tree.Query(probe, [&](const Envelope&, const size_t& e) {
          ++cstats.fallback_rows;
          if (bound.Eval(lv[e].first)) sink.push_back(project(lv[e], r));
        });
        ++packed_probes;
        prep_hits += bound.prepared_hits();
        prep_misses += bound.prepared_misses();
      }
    } else {
      const bool prefilter = pred.Prunable();
      size_t probed = 0;
      for (const L& l : lv) {
        if ((probed++ & 1023u) == 0) ThrowIfTaskCancelled();
        const Envelope le = l.first.envelope().Expanded(margin);
        BoundPredicate bound(pred, l.first,
                             BoundPredicate::Side::kCandidateRight);
        for (size_t rix = task.begin; rix < task.end; ++rix) {
          const R& r = rv[rix];
          if (prefilter && !le.Intersects(r.first.envelope())) {
            ++prefilter_skips;
            continue;
          }
          if (bound.Eval(r.first)) sink.push_back(project(l, r));
        }
        prep_hits += bound.prepared_hits();
        prep_misses += bound.prepared_misses();
      }
    }
    cstats.Flush();
    ji::AnnotateSpan(ji::TaskDetail(task, rv.size()) +
                         ji::IndexDetail(packed_probes, prep_hits, prep_misses),
                     task.end - task.begin, sink.size(), packed_probes,
                     sink.size());
    metrics.prefilter_skips->Add(prefilter_skips);
    metrics.results->Add(sink.size());
    ji::FlushIndexMetrics(packed_probes, prep_hits, prep_misses);
  });

  return MakeRDDFromPartitions(ctx, std::move(out));
}

/// \brief Cached-index join: probes the R-trees already held by \p left —
/// built once by Index()/LiveIndex() or loaded from disk — instead of
/// rebuilding them per call. `engine.join.tree_builds` stays at 0 on this
/// path; every probed tree counts as an `engine.join.tree_reuse_hits`.
///
/// Partition pairs are pruned with the extents captured at indexing time.
/// A non-prunable predicate cannot use the trees; the elements are then
/// scanned out of them into a nested loop (still no tree build). The
/// broadcast strategy never applies here — the index is already paid for.
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
  const size_t nr = right.NumPartitions();
  const double margin = pred.EnvelopeMargin();
  const JoinMetricSet& metrics = GlobalJoinMetrics();

  // A cached trees RDD is read in place: the shared tree pointers are
  // neither copied nor rebuilt. The right side is borrowed the same way.
  std::vector<std::vector<TreePtr>> tree_storage;
  std::vector<std::vector<R>> right_storage;
  const std::vector<const std::vector<TreePtr>*> left_trees =
      left.trees().PartitionViews(&tree_storage);
  const std::vector<const std::vector<R>*> right_parts =
      right.rdd().PartitionViews(&right_storage);
  std::vector<size_t> left_sizes(nl, 0);
  std::vector<size_t> right_sizes(nr, 0);
  for (size_t i = 0; i < nl; ++i) {
    for (const TreePtr& tree : *left_trees[i]) left_sizes[i] += tree->size();
  }
  for (size_t j = 0; j < nr; ++j) right_sizes[j] = right_parts[j]->size();

  // Enumerate pairs, pruned with the extents captured when the index was
  // built (they grow with the indexed data, exactly like partitioner
  // extents).
  const auto& extents = left.extents();
  const auto& rp = right.partitioner();
  const bool can_prune = pred.Prunable() && extents != nullptr && rp != nullptr;
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(can_prune ? nl + nr : nl * nr);
  size_t pruned = 0;
  for (size_t i = 0; i < nl; ++i) {
    for (size_t j = 0; j < nr; ++j) {
      if (can_prune && i < extents->size()) {
        const Envelope le = (*extents)[i].Expanded(margin);
        if (!le.Intersects(rp->PartitionExtent(j))) {
          ++pruned;
          continue;
        }
      }
      pairs.emplace_back(i, j);
    }
  }
  metrics.pairs_enumerated->Add(pairs.size());
  metrics.pairs_pruned->Add(pruned);

  std::vector<char> left_used(nl, 0);
  for (const auto& [i, j] : pairs) {
    (void)j;
    left_used[i] = 1;
  }
  size_t reuse_hits = 0;
  for (size_t i = 0; i < nl; ++i) {
    if (left_used[i]) reuse_hits += left_trees[i]->size();
  }
  metrics.tree_reuse_hits->Add(reuse_hits);

  // A non-prunable predicate cannot probe the trees; scan their elements
  // out once per used partition and fall back to a nested loop. This is a
  // flat copy, not an R-tree build.
  const bool probe_trees = pred.Prunable();
  std::vector<std::vector<L>> left_elems(nl);
  if (!probe_trees) {
    ctx->RunTasks("spatial.join.scan", nl, [&](size_t i) {
      if (!left_used[i]) return;
      std::vector<L>& elems = left_elems[i];
      elems.clear();
      elems.reserve(left_sizes[i]);
      for (const TreePtr& tree : *left_trees[i]) {
        tree->ForEach([&](const Envelope&, const L& e) { elems.push_back(e); });
      }
    });
  }

  size_t pairs_split = 0;
  const std::vector<ji::ProbeTask> tasks = ji::PlanProbeTasks(
      pairs, left_sizes, right_sizes, probe_trees, options, &pairs_split);
  metrics.pairs_split->Add(pairs_split);
  metrics.subtasks->Add(tasks.size());

  std::vector<std::vector<Out>> out(tasks.size());
  ctx->RunTasks("spatial.join.probe", tasks.size(), [&](size_t t) {
    const ji::ProbeTask& task = tasks[t];
    const std::vector<R>& rv = *right_parts[task.right];
    std::vector<Out>& sink = out[t];
    sink.clear();  // retry-idempotent: a re-run starts from scratch
    size_t packed_probes = 0;
    size_t prep_hits = 0;
    size_t prep_misses = 0;
    if (probe_trees) {
      for (size_t rix = task.begin; rix < task.end; ++rix) {
        // Cooperative checkpoint for cancellation/deadline/speculation.
        if (((rix - task.begin) & 1023u) == 0) ThrowIfTaskCancelled();
        const R& r = rv[rix];
        const Envelope probe = r.first.envelope().Expanded(margin);
        BoundPredicate bound(pred, r.first,
                             BoundPredicate::Side::kCandidateLeft);
        for (const TreePtr& tree : *left_trees[task.left]) {
          tree->Query(probe, [&](const Envelope&, const L& l) {
            if (bound.Eval(l.first)) sink.push_back(project(l, r));
          });
          ++packed_probes;
        }
        prep_hits += bound.prepared_hits();
        prep_misses += bound.prepared_misses();
      }
    } else {
      const std::vector<L>& lv = left_elems[task.left];
      size_t probed = 0;
      for (const L& l : lv) {
        if ((probed++ & 1023u) == 0) ThrowIfTaskCancelled();
        BoundPredicate bound(pred, l.first,
                             BoundPredicate::Side::kCandidateRight);
        for (size_t rix = task.begin; rix < task.end; ++rix) {
          const R& r = rv[rix];
          if (bound.Eval(r.first)) sink.push_back(project(l, r));
        }
        prep_hits += bound.prepared_hits();
        prep_misses += bound.prepared_misses();
      }
    }
    ji::AnnotateSpan(ji::TaskDetail(task, rv.size()) +
                         ji::IndexDetail(packed_probes, prep_hits, prep_misses),
                     task.end - task.begin, sink.size(), packed_probes,
                     sink.size());
    metrics.results->Add(sink.size());
    ji::FlushIndexMetrics(packed_probes, prep_hits, prep_misses);
  });

  return MakeRDDFromPartitions(ctx, std::move(out));
}

/// Joins two spatial RDDs on \p pred; emits every full pair (l, r) with
/// pred.Eval(l.first, r.first) == true.
template <typename V, typename W>
RDD<std::pair<std::pair<STObject, V>, std::pair<STObject, W>>> SpatialJoin(
    const SpatialRDD<V>& left, const SpatialRDD<W>& right,
    const JoinPredicate& pred, const JoinOptions& options = {}) {
  using L = std::pair<STObject, V>;
  using R = std::pair<STObject, W>;
  return SpatialJoinProject(left, right, pred, options,
                            [](const L& l, const R& r) {
                              return std::pair<L, R>(l, r);
                            });
}

/// Cached-index variant of SpatialJoin: probes \p left's persistent trees.
template <typename V, typename W>
RDD<std::pair<std::pair<STObject, V>, std::pair<STObject, W>>> SpatialJoin(
    const IndexedSpatialRDD<V>& left, const SpatialRDD<W>& right,
    const JoinPredicate& pred, const JoinOptions& options = {}) {
  using L = std::pair<STObject, V>;
  using R = std::pair<STObject, W>;
  return SpatialJoinProject(left, right, pred, options,
                            [](const L& l, const R& r) {
                              return std::pair<L, R>(l, r);
                            });
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
