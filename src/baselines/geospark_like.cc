#include "baselines/geospark_like.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "geometry/predicates.h"
#include "index/packed_rtree.h"

namespace stark {

namespace {

/// Voronoi partitioning: objects belong to the cell of their nearest seed.
/// For replication, an object is copied into every cell whose seed is within
/// (nearest + 2 * halo) — this guarantees that for any pair within `halo`
/// distance, each partner is present in the other's home cell.
struct VoronoiCells {
  std::vector<Coordinate> seeds;

  size_t Nearest(const Coordinate& c) const {
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t s = 0; s < seeds.size(); ++s) {
      const double d = c.SquaredDistanceTo(seeds[s]);
      if (d < best_d) {
        best_d = d;
        best = s;
      }
    }
    return best;
  }

  std::vector<size_t> ReplicationTargets(const Coordinate& c,
                                         double halo) const {
    double nearest = std::numeric_limits<double>::infinity();
    for (const Coordinate& s : seeds) {
      nearest = std::min(nearest, std::sqrt(c.SquaredDistanceTo(s)));
    }
    const double limit = nearest + 2.0 * halo;
    std::vector<size_t> out;
    for (size_t s = 0; s < seeds.size(); ++s) {
      if (std::sqrt(c.SquaredDistanceTo(seeds[s])) <= limit) out.push_back(s);
    }
    return out;
  }
};

}  // namespace

BaselineStats GeoSparkLikeSelfJoin(Context* ctx,
                                   const std::vector<STObject>& data,
                                   double max_distance,
                                   const GeoSparkLikeOptions& options) {
  BaselineStats stats;
  stats.system = "GeoSpark-like";
  stats.config = options.voronoi_seeds == 0 ? "none" : "voronoi";
  stats.input_size = data.size();
  Stopwatch total;

  // --- Partitioning (with replication) -----------------------------------
  Stopwatch phase;
  const size_t num_cells = std::max<size_t>(options.voronoi_seeds, 1);
  std::vector<std::vector<size_t>> cell_members(num_cells);
  std::vector<size_t> home(data.size(), 0);
  if (options.voronoi_seeds == 0) {
    cell_members[0].resize(data.size());
    for (size_t i = 0; i < data.size(); ++i) cell_members[0][i] = i;
  } else {
    VoronoiCells cells;
    Rng rng(options.seed);
    cells.seeds.reserve(num_cells);
    for (size_t s = 0; s < num_cells; ++s) {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, data.size() - 1));
      cells.seeds.push_back(data[pick].Centroid());
    }
    for (size_t i = 0; i < data.size(); ++i) {
      const Coordinate c = data[i].Centroid();
      home[i] = cells.Nearest(c);
      for (size_t cell : cells.ReplicationTargets(c, max_distance)) {
        cell_members[cell].push_back(i);
        if (cell != home[i]) ++stats.replicated;
      }
    }
  }
  stats.partition_seconds = phase.ElapsedSeconds();

  // --- Per-cell R-tree construction ---------------------------------------
  // Without partitioning the single global tree is built serially (the
  // broadcast-index bottleneck); with partitioning trees build in parallel.
  phase.Restart();
  std::vector<PackedRTree<size_t>> trees(num_cells);
  auto build_cell = [&](size_t c) {
    std::vector<std::pair<Envelope, size_t>> entries;
    entries.reserve(cell_members[c].size());
    for (size_t id : cell_members[c]) {
      entries.emplace_back(data[id].envelope(), id);
    }
    trees[c] = PackedRTree<size_t>(options.index_order, std::move(entries));
  };
  if (options.voronoi_seeds == 0) {
    build_cell(0);
  } else {
    ctx->pool().ParallelFor(num_cells, build_cell);
  }
  stats.index_seconds = phase.ElapsedSeconds();

  // --- Local joins (duplication-based: every copy probes its cell) --------
  // GeoSpark's join result carries geometry pairs, not ids — duplicate
  // elimination later compares geometry values, so the join must emit the
  // matched geometries' coordinates.
  struct GeomPair {
    double ax, ay, bx, by;
    bool operator<(const GeomPair& o) const {
      if (ax != o.ax) return ax < o.ax;
      if (ay != o.ay) return ay < o.ay;
      if (bx != o.bx) return bx < o.bx;
      return by < o.by;
    }
    bool operator==(const GeomPair& o) const {
      return ax == o.ax && ay == o.ay && bx == o.bx && by == o.by;
    }
  };
  phase.Restart();
  std::vector<std::vector<GeomPair>> cell_pairs(num_cells);
  ctx->pool().ParallelFor(num_cells, [&](size_t c) {
    auto& sink = cell_pairs[c];
    for (size_t a : cell_members[c]) {
      const Envelope probe = data[a].envelope().Expanded(max_distance);
      const Coordinate ca = data[a].Centroid();
      trees[c].Query(probe, [&](const Envelope&, const size_t& b) {
        if (a == b) return;
        if (Distance(data[a].geo(), data[b].geo()) <= max_distance) {
          const Coordinate cb = data[b].Centroid();
          sink.push_back({ca.x, ca.y, cb.x, cb.y});
        }
      });
    }
  });
  stats.join_seconds = phase.ElapsedSeconds();

  // --- Duplicate elimination ----------------------------------------------
  // Replicated copies produce the same result pair in several cells; the
  // GeoSpark strategy must distinct() the full result set, comparing
  // geometry values (there are no stable tuple ids in its data model).
  phase.Restart();
  size_t total_pairs = 0;
  for (const auto& pairs : cell_pairs) total_pairs += pairs.size();
  std::vector<GeomPair> all;
  all.reserve(total_pairs);
  for (auto& pairs : cell_pairs) {
    all.insert(all.end(), pairs.begin(), pairs.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  stats.dedup_seconds = phase.ElapsedSeconds();

  stats.result_pairs = all.size();
  stats.total_seconds = total.ElapsedSeconds();
  return stats;
}

}  // namespace stark
