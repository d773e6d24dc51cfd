/// \file packed_rtree.h
/// Flat, cache-resident R-tree in the STR/flatbush tradition: the whole tree
/// is bulk-loaded once into contiguous structure-of-arrays storage and never
/// mutated. Nodes are four parallel double arrays (min_x/min_y/max_x/max_y)
/// plus a [begin,end) child-range pair — no per-node heap allocation, no
/// parent/child pointers — and traversal is an iterative explicit stack, so
/// a probe touches a handful of dense cache lines instead of pointer-chasing
/// unique_ptr nodes. Visitor and kNN APIs are templated: there is no
/// std::function indirection anywhere on the traversal path.
///
/// Built once from its entries by an STR (sort-tile-recursive) bulk load,
/// or adopted from entries already in STR storage order (a saved tree's
/// ForEach order), which skips the sorts and yields the same tree. See
/// docs/PERFORMANCE.md for the layout diagram.
#ifndef STARK_INDEX_PACKED_RTREE_H_
#define STARK_INDEX_PACKED_RTREE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "geometry/envelope.h"
#include "geometry/kernels.h"

namespace stark {

/// \brief Immutable packed R-tree over (Envelope, T) entries.
///
/// Layout: entries are stored in STR order in an EnvelopeSoA plus a parallel
/// values array. Nodes of all levels live in one flat SoA, leaves first and
/// the root last; node `i` is a leaf iff `i < num_leaf_nodes()`. A leaf's
/// [begin,end) range indexes the entry arrays; an interior node's range
/// indexes the node arrays (children are contiguous by construction).
///
/// Queries yield *candidates* whose bounding boxes match; callers refine
/// with the exact predicate.
template <typename T>
class PackedRTree {
 public:
  /// Largest node capacity. Query keeps `order` scratch slots per probe, and
  /// an order near SIZE_MAX wraps the STR leaf count to zero, so larger
  /// orders are clamped here and rejected when read from disk.
  static constexpr size_t kMaxOrder = 4096;

  /// The node capacity a tree built with \p order uses: [2, kMaxOrder].
  static constexpr size_t ClampOrder(size_t order) {
    return std::clamp<size_t>(order, 2, kMaxOrder);
  }

  /// Creates an empty tree (no entries, queries yield nothing).
  PackedRTree() = default;

  /// STR bulk load with node capacity \p order (clamped by ClampOrder).
  PackedRTree(size_t order, std::vector<std::pair<Envelope, T>> entries)
      : order_(ClampOrder(order)) {
    Build(std::move(entries));
  }

  /// \brief Adopts entries already in STR storage order, with no sort.
  ///
  /// \p envelopes[i] is the envelope of \p values[i]; the two must have
  /// the same size. Leaves are cut from the storage order by the same
  /// arithmetic the bulk load uses (see Pack), so entries listed in the
  /// ForEach order of a tree built with the same clamped \p order yield
  /// that tree: the same leaves, node boxes, ForEach, Query and Knn order.
  /// Entries in any other order still yield a correct tree, since every
  /// node box is the union of its children; only pruning is worse.
  static PackedRTree FromStorageOrder(size_t order, EnvelopeSoA envelopes,
                                      std::vector<T> values) {
    STARK_CHECK(envelopes.size() == values.size());
    PackedRTree tree;
    tree.order_ = ClampOrder(order);
    tree.entries_ = std::move(envelopes);
    tree.values_ = std::move(values);
    tree.Pack();
    return tree;
  }

  PackedRTree(PackedRTree&&) noexcept = default;
  PackedRTree& operator=(PackedRTree&&) noexcept = default;
  STARK_DISALLOW_COPY_AND_ASSIGN(PackedRTree);

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  size_t order() const { return order_; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_leaf_nodes() const { return num_leaf_nodes_; }

  /// Bounding box of everything in the tree (empty envelope when empty).
  const Envelope& bounds() const { return bounds_; }

  /// Depth in levels (1 for a tree whose root is a leaf).
  size_t Depth() const { return levels_ == 0 ? 1 : levels_; }

  /// Invokes `visit(const Envelope&, const T&)` for every entry whose
  /// envelope intersects \p query. Iterative explicit-stack traversal; leaf
  /// entry ranges go through the branchless FilterEnvelopesBatch kernel.
  template <typename Visitor>
  void Query(const Envelope& query, Visitor&& visit) const {
    if (nodes_.empty() || query.IsEmpty()) return;
    const double qmin_x = query.min_x();
    const double qmin_y = query.min_y();
    const double qmax_x = query.max_x();
    const double qmax_y = query.max_y();
    if (nodes_.min_x[root_] > qmax_x || nodes_.max_x[root_] < qmin_x ||
        nodes_.min_y[root_] > qmax_y || nodes_.max_y[root_] < qmin_y) {
      return;
    }

    // Stack + leaf-hit scratch on the call stack for the common case; a
    // heap fallback keeps absurd orders correct.
    uint32_t stack_buf[kScratch];
    uint32_t hits_buf[kScratch];
    std::vector<uint32_t> stack_heap, hits_heap;
    uint32_t* stack = stack_buf;
    uint32_t* hits = hits_buf;
    if (stack_bound_ > kScratch) {
      stack_heap.resize(stack_bound_);
      stack = stack_heap.data();
    }
    if (order_ > kScratch) {
      hits_heap.resize(order_);
      hits = hits_heap.data();
    }

    size_t top = 0;
    stack[top++] = root_;
    while (top > 0) {
      const uint32_t ni = stack[--top];
      const uint32_t begin = node_begin_[ni];
      const uint32_t end = node_end_[ni];
      if (ni < num_leaf_nodes_) {
        const size_t n = FilterEnvelopesBatch(
            entries_.min_x.data() + begin, entries_.min_y.data() + begin,
            entries_.max_x.data() + begin, entries_.max_y.data() + begin,
            end - begin, qmin_x, qmin_y, qmax_x, qmax_y, hits);
        for (size_t h = 0; h < n; ++h) {
          const uint32_t e = begin + hits[h];
          visit(entries_.Get(e), values_[e]);
        }
      } else {
        for (uint32_t c = begin; c < end; ++c) {
          const bool hit = !(nodes_.min_x[c] > qmax_x) &
                           !(nodes_.max_x[c] < qmin_x) &
                           !(nodes_.min_y[c] > qmax_y) &
                           !(nodes_.max_y[c] < qmin_y);
          stack[top] = c;
          top += static_cast<size_t>(hit);
        }
      }
    }
  }

  /// Invokes `visit(const Envelope& box, size_t begin, size_t end)` for
  /// every leaf, in storage order: the leaf holds the entries [begin, end)
  /// of the ForEach order and \p box is the union of their envelopes, so
  /// the ranges tile [0, size()) in sequence.
  template <typename Visitor>
  void ForEachLeaf(Visitor&& visit) const {
    for (const uint32_t leaf : leaf_order_) {
      visit(nodes_.Get(leaf), size_t{node_begin_[leaf]},
            size_t{node_end_[leaf]});
    }
  }

  /// The envelope of the entry at storage position \p e (ForEach order).
  Envelope envelope_at(size_t e) const { return entries_.Get(e); }

  /// The value of the entry at storage position \p e (ForEach order).
  const T& value_at(size_t e) const { return values_[e]; }

  /// Collects pointers to all candidate values for \p query.
  std::vector<const T*> QueryCandidates(const Envelope& query) const {
    std::vector<const T*> out;
    Query(query, [&out](const Envelope&, const T& v) { out.push_back(&v); });
    return out;
  }

  /// Invokes `visit(const Envelope&, const T&)` on every entry (STR storage
  /// order).
  template <typename Visitor>
  void ForEach(Visitor&& visit) const {
    for (size_t e = 0; e < values_.size(); ++e) {
      visit(entries_.Get(e), values_[e]);
    }
  }

  /// \brief Exact k-nearest-neighbor search (branch and bound).
  ///
  /// Returns up to \p k (distance, value) pairs, the first \p k in the
  /// order of \p less over such pairs, which must rank by distance first.
  /// \p exact_distance computes the true distance from the query to an
  /// entry's value and must never be smaller than the distance from the
  /// \p query envelope to the entry's envelope: node bounds are that
  /// envelope-to-envelope distance, so the search is admissible for any
  /// query geometry, not only a point. The search stops once the next
  /// queued bound is greater than the k-th distance, so every entry tied
  /// with the k-th distance has been measured and \p less, not pop order,
  /// picks among them.
  template <typename DistFn, typename Less>
  std::vector<std::pair<double, const T*>> Knn(const Envelope& query,
                                               size_t k,
                                               DistFn&& exact_distance,
                                               Less&& less) const {
    std::vector<std::pair<double, const T*>> result;
    if (k == 0 || values_.empty()) return result;

    struct QueueItem {
      double dist;
      uint32_t index;  // node index, or entry index when is_entry
      bool is_entry;
      bool operator>(const QueueItem& o) const { return dist > o.dist; }
    };
    std::priority_queue<QueueItem, std::vector<QueueItem>,
                        std::greater<QueueItem>>
        pq;
    pq.push({NodeDistance(root_, query), root_, false});

    // Entries carry their exact distance and every bound is admissible, so
    // entries pop in ascending distance: result[k - 1] is the k-th.
    while (!pq.empty() &&
           (result.size() < k || !(pq.top().dist > result[k - 1].first))) {
      const QueueItem item = pq.top();
      pq.pop();
      if (item.is_entry) {
        result.emplace_back(item.dist, &values_[item.index]);
        continue;
      }
      const uint32_t begin = node_begin_[item.index];
      const uint32_t end = node_end_[item.index];
      if (item.index < num_leaf_nodes_) {
        for (uint32_t e = begin; e < end; ++e) {
          pq.push({exact_distance(values_[e]), e, true});
        }
      } else {
        for (uint32_t c = begin; c < end; ++c) {
          pq.push({NodeDistance(c, query), c, false});
        }
      }
    }
    std::sort(result.begin(), result.end(), less);
    if (result.size() > k) result.resize(k);
    return result;
  }

 private:
  static constexpr size_t kScratch = 512;

  double NodeDistance(uint32_t ni, const Envelope& q) const {
    // Same arithmetic as Envelope::Distance: the max-with-0 form yields 0
    // on overlapping axes, and a point's envelope (min == max) gives the
    // point-to-box distance bit for bit.
    const double dx = std::max({nodes_.min_x[ni] - q.max_x(), 0.0,
                                q.min_x() - nodes_.max_x[ni]});
    const double dy = std::max({nodes_.min_y[ni] - q.max_y(), 0.0,
                                q.min_y() - nodes_.max_y[ni]});
    return std::sqrt(dx * dx + dy * dy);
  }

  /// One node record during construction, before flattening.
  struct BuildRec {
    Envelope env;
    uint32_t begin;
    uint32_t end;
  };

  void AppendLevel(const std::vector<BuildRec>& recs) {
    for (const BuildRec& r : recs) {
      nodes_.PushBack(r.env);
      node_begin_.push_back(r.begin);
      node_end_.push_back(r.end);
    }
    ++levels_;
  }

  /// Entries per STR vertical slice for \p n entries: ceil(sqrt(leaves))
  /// slices of ceil(n / slices) entries, where leaves = ceil(n / order_).
  size_t SliceSize(size_t n) const {
    const size_t leaf_count = (n + order_ - 1) / order_;
    const size_t slice_count = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(leaf_count))));
    return (n + slice_count - 1) / slice_count;
  }

  /// STR bulk load: x-sort, y-sort within each vertical slice, then Pack.
  void Build(std::vector<std::pair<Envelope, T>> entries) {
    if (entries.empty()) return;
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                return a.first.Center().x < b.first.Center().x;
              });
    const size_t slice_size = SliceSize(entries.size());
    entries_.Reserve(entries.size());
    values_.reserve(entries.size());
    for (size_t s = 0; s < entries.size(); s += slice_size) {
      const auto first = entries.begin() + s;
      const auto last = entries.begin() + std::min(s + slice_size,
                                                   entries.size());
      std::sort(first, last, [](const auto& a, const auto& b) {
        return a.first.Center().y < b.first.Center().y;
      });
      // Moved out while the slice is still in cache.
      for (auto it = first; it != last; ++it) {
        entries_.PushBack(it->first);
        values_.push_back(std::move(it->second));
      }
    }
    Pack();
  }

  /// Packs entries_ (in STR storage order) into nodes: each slice of
  /// SliceSize entries is chunked into leaves of order_ entries, so the
  /// last leaf of a slice may be short; the leaves then go up level by
  /// level.
  void Pack() {
    const size_t n = values_.size();
    if (n == 0) return;
    const size_t slice_size = SliceSize(n);
    std::vector<BuildRec> level;
    level.reserve((n + order_ - 1) / order_);
    for (size_t s = 0; s < n; s += slice_size) {
      const size_t s_end = std::min(s + slice_size, n);
      for (size_t i = s; i < s_end; i += order_) {
        const size_t i_end = std::min(i + order_, s_end);
        BuildRec leaf{Envelope(), static_cast<uint32_t>(i),
                      static_cast<uint32_t>(i_end)};
        for (size_t j = i; j < i_end; ++j) {
          leaf.env.ExpandToInclude(entries_.Get(j));
        }
        level.push_back(std::move(leaf));
      }
    }
    num_leaf_nodes_ = static_cast<uint32_t>(level.size());

    // Pack upper levels: each level is sorted by envelope center x,
    // appended to the flat arrays, then chunked into parents whose child
    // ranges are absolute node indices.
    while (level.size() > 1) {
      std::sort(level.begin(), level.end(),
                [](const BuildRec& a, const BuildRec& b) {
                  return a.env.Center().x < b.env.Center().x;
                });
      const uint32_t base = static_cast<uint32_t>(nodes_.size());
      AppendLevel(level);
      std::vector<BuildRec> next;
      next.reserve((level.size() + order_ - 1) / order_);
      for (size_t i = 0; i < level.size(); i += order_) {
        const size_t i_end = std::min(i + order_, level.size());
        BuildRec parent{Envelope(), base + static_cast<uint32_t>(i),
                        base + static_cast<uint32_t>(i_end)};
        for (size_t j = i; j < i_end; ++j) {
          parent.env.ExpandToInclude(level[j].env);
        }
        next.push_back(std::move(parent));
      }
      level = std::move(next);
    }
    AppendLevel(level);
    root_ = static_cast<uint32_t>(nodes_.size() - 1);
    // The upper levels sorted the leaves by center x; ForEachLeaf walks
    // them in the order they were cut in above: slice by slice, order_
    // entries a leaf, so a leaf's rank follows from its first entry.
    const size_t leaves_per_slice = (slice_size + order_ - 1) / order_;
    leaf_order_.resize(num_leaf_nodes_);
    for (uint32_t leaf = 0; leaf < num_leaf_nodes_; ++leaf) {
      const size_t b = node_begin_[leaf];
      leaf_order_[b / slice_size * leaves_per_slice +
                  b % slice_size / order_] = leaf;
    }
    bounds_ = level.front().env;
    // An interior node pushes at most `order_` children per pop; with L
    // levels the stack never holds more than (L-1)*order_ + 1 nodes.
    stack_bound_ = 1 + (levels_ > 0 ? (levels_ - 1) * order_ : 0);
  }

  size_t order_ = 2;
  size_t levels_ = 0;
  size_t stack_bound_ = 1;
  uint32_t num_leaf_nodes_ = 0;
  uint32_t root_ = 0;
  Envelope bounds_;

  EnvelopeSoA entries_;            // entry envelopes, STR order
  std::vector<T> values_;          // parallel to entries_
  EnvelopeSoA nodes_;              // all levels, leaves first, root last
  std::vector<uint32_t> node_begin_;  // leaf: entry range; interior: nodes
  std::vector<uint32_t> node_end_;
  std::vector<uint32_t> leaf_order_;  // leaf node ids in storage order
};

}  // namespace stark

#endif  // STARK_INDEX_PACKED_RTREE_H_
