#include "clustering/dbscan.h"

#include <deque>
#include <utility>
#include <vector>

#include "engine/job_control.h"
#include "index/packed_rtree.h"

namespace stark {

DbscanResult DbscanLocal(const std::vector<Coordinate>& points,
                         const DbscanParams& params) {
  const size_t n = points.size();
  DbscanResult result;
  result.labels.assign(n, kNoise);
  result.core.assign(n, 0);
  if (n == 0) return result;

  // The point set is fixed for the whole run, so the packed (read-only)
  // tree serves the eps-neighborhood queries out of flat SoA arrays.
  std::vector<std::pair<Envelope, size_t>> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    entries.emplace_back(Envelope(points[i]), i);
  }
  PackedRTree<size_t> tree(16, std::move(entries));

  const double eps = params.eps;
  const double eps2 = eps * eps;
  // One query per visited point; every 1024th is a cancellation checkpoint.
  size_t visits = 0;
  auto neighbors_of = [&](size_t i) {
    if ((visits++ & 1023u) == 0) ThrowIfTaskCancelled();
    std::vector<size_t> out;
    const Envelope probe = Envelope(points[i]).Expanded(eps);
    tree.Query(probe, [&](const Envelope&, const size_t& j) {
      if (points[i].SquaredDistanceTo(points[j]) <= eps2) out.push_back(j);
    });
    return out;
  };

  std::vector<char> visited(n, 0);
  int64_t next_cluster = 0;
  for (size_t i = 0; i < n; ++i) {
    if (visited[i]) continue;
    visited[i] = 1;
    std::vector<size_t> seeds = neighbors_of(i);
    if (seeds.size() < params.min_pts) continue;  // not a core point (yet)

    const int64_t cluster = next_cluster++;
    result.labels[i] = cluster;
    result.core[i] = 1;
    std::deque<size_t> frontier(seeds.begin(), seeds.end());
    while (!frontier.empty()) {
      const size_t j = frontier.front();
      frontier.pop_front();
      if (result.labels[j] == kNoise) result.labels[j] = cluster;
      if (visited[j]) continue;
      visited[j] = 1;
      result.labels[j] = cluster;
      std::vector<size_t> j_neighbors = neighbors_of(j);
      if (j_neighbors.size() >= params.min_pts) {
        result.core[j] = 1;
        for (size_t k : j_neighbors) {
          if (!visited[k] || result.labels[k] == kNoise) {
            frontier.push_back(k);
          }
        }
      }
    }
  }
  result.num_clusters = static_cast<size_t>(next_cluster);
  return result;
}

}  // namespace stark
