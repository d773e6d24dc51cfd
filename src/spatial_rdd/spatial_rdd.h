/// \file spatial_rdd.h
/// SpatialRDDFunctions — the paper's seamless RDD integration (§2.3). In
/// Scala, an implicit conversion wraps any RDD[(STObject, V)]; in C++ the
/// equivalent is the explicit, zero-copy wrapper SpatialRDD<V> (see
/// Spatial() below), which adds the spatio-temporal filter, join, kNN and
/// indexing operators to a plain engine RDD.
#ifndef STARK_SPATIAL_RDD_SPATIAL_RDD_H_
#define STARK_SPATIAL_RDD_SPATIAL_RDD_H_

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/columnar.h"
#include "core/distance.h"
#include "core/st_serde.h"
#include "core/stobject.h"
#include "engine/rdd.h"
#include "index/packed_rtree.h"
#include "obs/trace.h"
#include "partition/partitioner.h"
#include "spatial_rdd/columnar_refine.h"
#include "spatial_rdd/knn.h"
#include "spatial_rdd/predicate.h"
#include "spatial_rdd/query_stats.h"
#include "spatial_rdd/value_serde.h"

namespace stark {

template <typename V>
class SpatialRDD;

/// \brief An RDD whose partitions are R-trees over (STObject, V) pairs —
/// the result of liveIndex()/index() (§2.2).
///
/// Live indexing keeps the tree construction inside the lazy lineage, so
/// the index is rebuilt whenever a partition is processed; persistent
/// indexing caches the trees and can save them to disk and load them back
/// in another program run.
///
/// The partition trees are *packed* R-trees (PackedRTree): STR bulk-loaded
/// straight into the flat SoA layout, probed with the iterative templated
/// traversal.
template <typename V>
class IndexedSpatialRDD {
 public:
  using Element = std::pair<STObject, V>;
  using TreePtr = std::shared_ptr<const PackedRTree<Element>>;

  /// \p order is clamped like the trees' own node capacity
  /// (PackedRTree::ClampOrder), so Save never writes an order Load rejects.
  /// \p extents is kept only when it holds one extent per partition of
  /// \p trees; otherwise the index is treated as unpartitioned (no pruning).
  IndexedSpatialRDD(RDD<TreePtr> trees,
                    std::shared_ptr<std::vector<Envelope>> extents,
                    size_t order)
      : trees_(std::move(trees)),
        order_(PackedRTree<Element>::ClampOrder(order)) {
    if (extents != nullptr && extents->size() == trees_.NumPartitions()) {
      extents_ = std::move(extents);
    }
  }

  const RDD<TreePtr>& trees() const { return trees_; }
  size_t order() const { return order_; }
  size_t NumPartitions() const { return trees_.NumPartitions(); }

  /// Per-partition extents captured when the index was built (null when the
  /// source was not spatially partitioned). Joins use these for partition
  /// pruning without re-collecting the trees.
  const std::shared_ptr<std::vector<Envelope>>& extents() const {
    return extents_;
  }

  /// Generic filter against \p query: R-tree candidate lookup plus exact
  /// refinement with the full spatio-temporal predicate (candidate pruning
  /// step of §2.2, including the temporal predicate). \p stats, when
  /// non-null, must outlive the returned RDD's evaluation.
  RDD<Element> Filter(const STObject& query, const JoinPredicate& pred,
                      QueryStats* stats = nullptr) const {
    const Envelope probe = query.envelope().Expanded(pred.EnvelopeMargin());
    auto extents = extents_;
    // Partition extents that cannot contribute are pruned before the trees
    // are even computed (§2.1) — with live indexing this skips building the
    // R-tree for pruned partitions entirely.
    RDD<TreePtr> source = trees_;
    if (pred.Prunable() && extents) {
      source = source.PrunePartitions([extents, probe, stats](size_t idx) {
        const bool keep = (*extents)[idx].Intersects(probe);
        if (!keep) {
          if (stats) ++stats->partitions_pruned;
          GlobalFilterMetrics().partitions_pruned->Increment();
        }
        return keep;
      });
    }
    return source.MapPartitionsWithIndex(
        [query, pred, stats](size_t, std::vector<TreePtr> trees) {
          std::vector<Element> out;
          columnar_refine::TaskState task;
          const columnar_refine::TreeListSource<Element> candidates{
              &trees, pred.Prunable()};
          columnar_refine::RefineFixed(
              pred, candidates, query, /*cand_left=*/true, nullptr, &task,
              [&](const Element& e) { out.push_back(e); });
          columnar_refine::FinishFilterTask(
              GlobalFilterMetrics(), stats, !trees.empty(), task.candidates,
              out.size(), task, /*annotate=*/true);
          return out;
        });
  }

  RDD<Element> Intersects(const STObject& query) const {
    return Filter(query, JoinPredicate::Intersects());
  }
  RDD<Element> Contains(const STObject& query) const {
    return Filter(query, JoinPredicate::Contains());
  }
  RDD<Element> ContainedBy(const STObject& query) const {
    return Filter(query, JoinPredicate::ContainedBy());
  }
  RDD<Element> WithinDistance(const STObject& query, double max_distance,
                              DistanceFunction fn = nullptr) const {
    return Filter(query, JoinPredicate::WithinDistance(max_distance,
                                                       std::move(fn)));
  }

  /// Exact k nearest neighbors of \p query, in the kNN order (knn.h):
  /// ascending distance, ties by the tie key. Defaults to the Euclidean
  /// geometry distance, searched in each partition's tree by branch and
  /// bound from the query envelope; a custom \p fn scans the trees' rows,
  /// since the envelope bound holds only for the Euclidean distance. A
  /// distance of NaN is treated as +infinity (never a neighbor). \p stats,
  /// when non-null, gets the candidates measured and the rows returned.
  std::vector<std::pair<double, Element>> Knn(const STObject& query, size_t k,
                                              DistanceFunction fn = nullptr,
                                              QueryStats* stats = nullptr)
      const {
    return knn::Run<Element>(
        trees_, query, k, std::move(fn), stats,
        [](const std::vector<TreePtr>& trees) {
          return columnar_refine::TreeListSource<Element>{.trees = &trees,
                                                          .prune = false};
        });
  }

  /// Flattens the indexed partitions back to a plain element RDD.
  RDD<Element> ToElements() const {
    return trees_.MapPartitionsWithIndex(
        [](size_t, std::vector<TreePtr> ts) {
          std::vector<Element> out;
          for (const TreePtr& tree : ts) {
            tree->ForEach([&](const Envelope&, const Element& e) {
              out.push_back(e);
            });
          }
          return out;
        });
  }

  /// \brief Persists the index to \p directory (one binary file per
  /// partition plus a meta file) — the paper's persistent index mode with
  /// HDFS substituted by the local filesystem.
  ///
  /// The parts are written by one `index.save` engine job, one task per
  /// partition, under the context's deadline, cancel token and retry
  /// policy. `index.meta` is removed first and written last, only once
  /// every part is on disk, so a failed or interrupted Save leaves no meta
  /// and Load fails with an IOError instead of reading a half-written
  /// index. Returns the job's Status if the job failed, else the error of
  /// the lowest-index part that could not be written.
  Status Save(const std::string& directory) const {
    STARK_ASSIGN_OR_RETURN(const std::vector<std::vector<TreePtr>> parts,
                           trees_.TryCollectPartitions());
    const std::string meta_path = directory + "/index.meta";
    std::remove(meta_path.c_str());
    std::vector<Status> part_status(parts.size());
    STARK_RETURN_NOT_OK(trees_.ctx()->TryRunTasks(
        "index.save", parts.size(), [&](size_t p) {
          part_status[p] = SavePart(directory, p, parts[p]);
        }));
    for (const Status& status : part_status) STARK_RETURN_NOT_OK(status);
    BinaryWriter meta;
    meta.WriteU32(kMetaMagic);
    meta.WriteU64(parts.size());
    meta.WriteU64(order_);
    for (size_t p = 0; p < parts.size(); ++p) {
      WriteEnvelope(&meta, extents_ ? (*extents_)[p] : Envelope());
    }
    return WriteFileBytes(meta_path, meta.buffer());
  }

  /// Loads an index previously written with Save. One `index.load` engine
  /// job reads the part files, one task per part: each task reads and
  /// decodes its part and adopts the rows as the tree, with no sort. Save
  /// writes each part in its tree's STR storage order and the leaf
  /// boundaries follow from the row count and order(), so a part saved
  /// from one tree loads as that same tree (PackedRTree::FromStorageOrder).
  /// The job runs under the context's deadline, cancel token and retry
  /// policy. A corrupt or missing part is not a task failure — a retry
  /// would read the same bytes — so Load returns the job's own Status if
  /// the job failed, and otherwise the error of the lowest-index bad part,
  /// whatever order the tasks ran in. A meta order above
  /// PackedRTree::kMaxOrder is an IOError.
  static Result<IndexedSpatialRDD<V>> Load(Context* ctx,
                                           const std::string& directory) {
    STARK_ASSIGN_OR_RETURN(std::vector<char> meta_buf,
                           ReadFileBytes(directory + "/index.meta"));
    BinaryReader meta(meta_buf);
    STARK_ASSIGN_OR_RETURN(uint32_t magic, meta.ReadU32());
    if (magic != kMetaMagic) return Status::IOError("bad index meta magic");
    STARK_ASSIGN_OR_RETURN(uint64_t num_parts, meta.ReadU64());
    STARK_ASSIGN_OR_RETURN(uint64_t order, meta.ReadU64());
    if (order > PackedRTree<Element>::kMaxOrder) {
      return Status::IOError("index meta order " + std::to_string(order) +
                             " exceeds the maximum node capacity " +
                             std::to_string(PackedRTree<Element>::kMaxOrder));
    }
    // Save writes an empty extent for every part of an unpartitioned index.
    // Pruning by those would drop every part, so an all-empty list loads as
    // no extents (with no rows anywhere, nothing is lost either way).
    auto extents = std::make_shared<std::vector<Envelope>>();
    bool any_extent = false;
    for (uint64_t p = 0; p < num_parts; ++p) {
      STARK_ASSIGN_OR_RETURN(Envelope e, ReadEnvelope(&meta));
      any_extent |= !e.IsEmpty();
      extents->push_back(e);
    }
    if (!any_extent) extents = nullptr;
    std::vector<std::vector<TreePtr>> parts(num_parts);
    std::vector<Status> part_status(num_parts);
    STARK_RETURN_NOT_OK(ctx->TryRunTasks(
        "index.load", num_parts, [&](size_t p) {
          Result<TreePtr> tree = LoadPart(directory, p, order);
          if (tree.ok()) {
            parts[p] = {std::move(tree).ValueOrDie()};
          } else {
            part_status[p] = tree.status();
          }
        }));
    for (const Status& status : part_status) STARK_RETURN_NOT_OK(status);
    RDD<TreePtr> trees = MakeRDDFromPartitions(ctx, std::move(parts));
    return IndexedSpatialRDD<V>(trees.Cache(), std::move(extents), order);
  }

 private:
  static constexpr uint32_t kMetaMagic = 0x53544958;  // "STIX"
  static constexpr uint32_t kPartMagic = 0x53544950;  // "STIP"

  static std::string PartPath(const std::string& directory, size_t p) {
    return directory + "/part-" + std::to_string(p) + ".idx";
  }

  /// Serialises partition \p p's trees into its part file.
  static Status SavePart(const std::string& directory, size_t p,
                         const std::vector<TreePtr>& trees) {
    BinaryWriter w;
    size_t count = 0;
    for (const TreePtr& tree : trees) count += tree->size();
    w.WriteU32(kPartMagic);
    w.WriteU64(count);
    for (const TreePtr& tree : trees) {
      tree->ForEach([&w](const Envelope&, const Element& e) {
        WriteSTObject(&w, e.first);
        Serde<V>::Write(&w, e.second);
      });
    }
    if (obs::TaskSpan* span = obs::CurrentTaskSpan()) {
      span->records_in = count;
      span->bytes = w.buffer().size();
    }
    return WriteFileBytes(PartPath(directory, p), w.buffer());
  }

  /// Reads, checks and decodes part file \p p and packs its rows in the
  /// order they were saved. Rows in another order (a partition of several
  /// trees, or trees built with an order other than order()) still give a
  /// correct tree, only one that prunes worse.
  static Result<TreePtr> LoadPart(const std::string& directory, size_t p,
                                  size_t order) {
    const std::string path = PartPath(directory, p);
    STARK_ASSIGN_OR_RETURN(std::vector<char> buf, ReadFileBytes(path));
    BinaryReader r(buf);
    STARK_ASSIGN_OR_RETURN(uint32_t part_magic, r.ReadU32());
    if (part_magic != kPartMagic) {
      return Status::IOError("bad index part magic: " + path);
    }
    STARK_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
    // A count beyond what the bytes left can hold (every row takes at least
    // an STObject's kSerdeMinBytes) is corrupt — and must not reach
    // reserve(), which asks for sizeof(Element) plus an envelope per row.
    if (count > MaxSerdeCount<Element>(r.Remaining())) {
      return Status::IOError("index part element count exceeds file size: " +
                             path);
    }
    EnvelopeSoA envelopes;
    std::vector<Element> rows;
    envelopes.Reserve(count);
    rows.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      STARK_ASSIGN_OR_RETURN(STObject obj, ReadSTObject(&r));
      STARK_ASSIGN_OR_RETURN(V value, Serde<V>::Read(&r));
      envelopes.PushBack(obj.envelope());
      rows.emplace_back(std::move(obj), std::move(value));
    }
    if (obs::TaskSpan* span = obs::CurrentTaskSpan()) {
      span->records_out = count;
      span->bytes = buf.size();
    }
    return TreePtr(std::make_shared<PackedRTree<Element>>(
        PackedRTree<Element>::FromStorageOrder(order, std::move(envelopes),
                                               std::move(rows))));
  }

  RDD<TreePtr> trees_;
  std::shared_ptr<std::vector<Envelope>> extents_;  // may be null
  size_t order_;
};

/// \brief The paper's SpatialRDDFunctions: spatio-temporal operators over
/// an RDD of (STObject, V) pairs.
template <typename V>
class SpatialRDD {
 public:
  using Element = std::pair<STObject, V>;

  /// Wraps an existing engine RDD (no data movement). \p partitioner is
  /// kept only when it has the RDD's partition count: one that describes
  /// other partitions would misdirect pruning, so the RDD is then treated
  /// as unpartitioned (no pruning, exact answers).
  explicit SpatialRDD(RDD<Element> rdd,
                      std::shared_ptr<SpatialPartitioner> partitioner = nullptr)
      : rdd_(std::move(rdd)) {
    if (partitioner != nullptr &&
        partitioner->NumPartitions() == rdd_.NumPartitions()) {
      partitioner_ = std::move(partitioner);
    }
  }

  /// Parallelizes a vector of pairs (quickstart path).
  static SpatialRDD FromVector(Context* ctx, std::vector<Element> data,
                               size_t num_partitions = 0) {
    return SpatialRDD(MakeRDD(ctx, std::move(data), num_partitions));
  }

  const RDD<Element>& rdd() const { return rdd_; }
  Context* ctx() const { return rdd_.ctx(); }
  size_t NumPartitions() const { return rdd_.NumPartitions(); }
  const std::shared_ptr<SpatialPartitioner>& partitioner() const {
    return partitioner_;
  }

  /// A copy of the partitioner's extents, one per partition (null when the
  /// RDD is unpartitioned).
  std::shared_ptr<std::vector<Envelope>> Extents() const {
    if (!partitioner_) return nullptr;
    auto extents = std::make_shared<std::vector<Envelope>>();
    for (size_t i = 0; i < partitioner_->NumPartitions(); ++i) {
      extents->push_back(partitioner_->PartitionExtent(i));
    }
    return extents;
  }

  /// Spatially repartitions the data with \p partitioner: every element is
  /// assigned by the centroid of its spatial component, and the partition
  /// extents are grown by the element envelopes (§2.1). Materializes the
  /// shuffle (a Spark stage boundary).
  SpatialRDD PartitionBy(std::shared_ptr<SpatialPartitioner> partitioner) const {
    // Clone the partitioner and grow extents on the private clone: growing
    // the caller's (shared) instance would leave extents from *this*
    // dataset behind when the same partitioner is reused for another one,
    // silently defeating partition pruning there.
    std::shared_ptr<SpatialPartitioner> p = partitioner->Clone();
    p->ResetExtents();
    RDD<Element> shuffled = rdd_.PartitionBy(
        p->NumPartitions(), [p](const Element& e) {
          return p->PartitionForST(e.first.Centroid(), e.first.time());
        });
    // Each output partition's extent grows once, by the union of the
    // envelopes routed to it, read in place from the shuffled partitions.
    std::vector<Envelope> unions(shuffled.NumPartitions());
    ctx()->RunTasks("spatial.partition.extents", unions.size(), [&](size_t t) {
      std::vector<Element> storage;
      Envelope u;
      for (const Element& e :
           engine_internal::Borrow(*shuffled.impl(), t, &storage)) {
        u.ExpandToInclude(e.first.envelope());
      }
      unions[t] = u;
    });
    for (size_t t = 0; t < unions.size(); ++t) p->GrowExtent(t, unions[t]);
    return SpatialRDD(std::move(shuffled), std::move(p));
  }

  /// Caches the underlying RDD.
  SpatialRDD Cache() const { return SpatialRDD(rdd_.Cache(), partitioner_); }

  // ---- Filter operators (unindexed scan + extent pruning) ---------------

  /// Generic filter: keeps elements e with pred.Eval(e, query) == true.
  /// When the data is spatially partitioned, partitions whose extent cannot
  /// contribute are skipped without touching their elements. \p stats, when
  /// non-null, must outlive the returned RDD's evaluation.
  RDD<Element> Filter(const STObject& query, const JoinPredicate& pred,
                      QueryStats* stats = nullptr) const {
    const Envelope probe = query.envelope().Expanded(pred.EnvelopeMargin());
    // Prune before computing: partitions whose extent misses the query are
    // never materialized (§2.1 — "decrease the number of data items to
    // process significantly").
    RDD<Element> source = rdd_;
    if (pred.Prunable() && partitioner_ != nullptr) {
      auto part = partitioner_;
      const std::optional<TemporalInterval> query_time = query.time();
      source = source.PrunePartitions(
          [part, probe, query_time, stats](size_t idx) {
            const bool keep = [&] {
              if (!part->PartitionExtent(idx).Intersects(probe)) return false;
              // Temporal pruning (spatio-temporal partitioners only): a
              // timed query can skip partitions whose time bounds miss its
              // interval — untimed objects in them could never match it
              // anyway.
              if (query_time.has_value()) {
                const auto bounds = part->PartitionTimeBounds(idx);
                if (bounds.has_value() &&
                    !bounds->Intersects(*query_time)) {
                  return false;
                }
              }
              return true;
            }();
            if (!keep) {
              if (stats) ++stats->partitions_pruned;
              GlobalFilterMetrics().partitions_pruned->Increment();
            }
            return keep;
          });
    }
    // Refinement: the batch kernels when columnar_refine::SelectKernels
    // picks them for the partition (envelope prefilter over its point slabs,
    // then batched refinement), else the scalar BoundPredicate loop over
    // every row — the same rows in the same order either way. Slabs are
    // kept on this SpatialRDD, so repeated filters reuse them.
    auto slabs = slabs_;
    return source.MapPartitionsWithIndex(
        [query, pred, stats, slabs](size_t idx, std::vector<Element> items) {
          std::vector<Element> out;
          columnar_refine::TaskState task;
          const auto candidates =
              columnar_refine::SelectSource(pred, &items, &(*slabs)[idx]);
          columnar_refine::RefineFixed(
              pred, candidates, query, /*cand_left=*/true, nullptr, &task,
              [&](Element& e) { out.push_back(std::move(e)); });
          columnar_refine::FinishFilterTask(
              GlobalFilterMetrics(), stats, !items.empty(), items.size(),
              out.size(), task, /*annotate=*/false);
          return out;
        });
  }

  /// Elements whose spatio-temporal component intersects \p query.
  RDD<Element> Intersects(const STObject& query) const {
    return Filter(query, JoinPredicate::Intersects());
  }
  /// Elements that completely contain \p query.
  RDD<Element> Contains(const STObject& query) const {
    return Filter(query, JoinPredicate::Contains());
  }
  /// Elements completely contained by \p query.
  RDD<Element> ContainedBy(const STObject& query) const {
    return Filter(query, JoinPredicate::ContainedBy());
  }
  /// Elements within \p max_distance of \p query under \p fn (Euclidean
  /// geometry distance when \p fn is null).
  RDD<Element> WithinDistance(const STObject& query, double max_distance,
                              DistanceFunction fn = nullptr) const {
    return Filter(query,
                  JoinPredicate::WithinDistance(max_distance, std::move(fn)));
  }

  /// Exact k nearest neighbors, in the kNN order (knn.h): ascending
  /// distance, ties by the tie key. The distance defaults to the minimum
  /// Euclidean geometry distance; pass \p fn to rank by a custom distance
  /// function (e.g. HaversineDistanceKm or a spatio-temporal combination),
  /// mirroring the paper's user-suppliable distance functions. Every
  /// partition is scanned. \p stats, when non-null, gets the candidates
  /// measured and the rows returned.
  std::vector<std::pair<double, Element>> Knn(const STObject& query, size_t k,
                                              DistanceFunction fn = nullptr,
                                              QueryStats* stats = nullptr)
      const {
    return knn::Run<Element>(
        rdd_, query, k, std::move(fn), stats,
        [](const std::vector<Element>& items) {
          return columnar_refine::RowSource<const std::vector<Element>>{
              .rows = &items};
        });
  }

  // ---- Indexing modes (§2.2) ---------------------------------------------

  /// Live indexing: the R-tree is built when a partition is processed —
  /// i.e. construction stays inside the lazy lineage and happens on every
  /// evaluation. Optionally repartitions first.
  IndexedSpatialRDD<V> LiveIndex(
      size_t order = 10,
      std::shared_ptr<SpatialPartitioner> partitioner = nullptr) const {
    const SpatialRDD source =
        partitioner ? PartitionBy(std::move(partitioner)) : *this;
    return IndexedSpatialRDD<V>(BuildTrees(source, order),
                                source.Extents(), order);
  }

  /// Persistent-capable indexing: trees are built once (cached) and can be
  /// written to disk with IndexedSpatialRDD::Save and reused by Load.
  IndexedSpatialRDD<V> Index(
      size_t order = 10,
      std::shared_ptr<SpatialPartitioner> partitioner = nullptr) const {
    const SpatialRDD source =
        partitioner ? PartitionBy(std::move(partitioner)) : *this;
    return IndexedSpatialRDD<V>(BuildTrees(source, order).Cache(),
                                source.Extents(), order);
  }

 private:
  using TreePtr = typename IndexedSpatialRDD<V>::TreePtr;

  static RDD<TreePtr> BuildTrees(const SpatialRDD& source, size_t order) {
    return source.rdd_.MapPartitionsWithIndex(
        [order](size_t, std::vector<Element> items) {
          std::vector<std::pair<Envelope, Element>> entries;
          entries.reserve(items.size());
          for (auto& e : items) {
            Envelope env = e.first.envelope();
            entries.emplace_back(env, std::move(e));
          }
          // STR bulk load straight into the packed SoA layout — no interim
          // pointer tree.
          return std::vector<TreePtr>{std::make_shared<PackedRTree<Element>>(
              order, std::move(entries))};
        });
  }

  RDD<Element> rdd_;
  std::shared_ptr<SpatialPartitioner> partitioner_;
  /// Point slabs per partition, shared by copies of this wrapper so
  /// repeated filters reuse them.
  std::shared_ptr<std::vector<PointSlabSlot>> slabs_ =
      std::make_shared<std::vector<PointSlabSlot>>(rdd_.NumPartitions());
};

/// Mirrors STARK's implicit Scala conversion: lifts a plain engine RDD of
/// (STObject, V) pairs into the spatial API.
template <typename V>
SpatialRDD<V> Spatial(RDD<std::pair<STObject, V>> rdd) {
  return SpatialRDD<V>(std::move(rdd));
}

}  // namespace stark

#endif  // STARK_SPATIAL_RDD_SPATIAL_RDD_H_
