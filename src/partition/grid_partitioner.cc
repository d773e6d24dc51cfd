#include "partition/grid_partitioner.h"

#include <algorithm>

namespace stark {

GridPartitioner::GridPartitioner(const Envelope& universe, size_t cells_x,
                                 size_t cells_y)
    : universe_(universe), cells_x_(cells_x), cells_y_(cells_y) {
  STARK_CHECK(!universe.IsEmpty());
  STARK_CHECK(cells_x >= 1 && cells_y >= 1);
  cell_w_ = universe.Width() / static_cast<double>(cells_x_);
  cell_h_ = universe.Height() / static_cast<double>(cells_y_);
  bounds_.reserve(cells_x_ * cells_y_);
  for (size_t cy = 0; cy < cells_y_; ++cy) {
    for (size_t cx = 0; cx < cells_x_; ++cx) {
      const double x0 = universe.min_x() + static_cast<double>(cx) * cell_w_;
      const double y0 = universe.min_y() + static_cast<double>(cy) * cell_h_;
      bounds_.emplace_back(x0, y0, x0 + cell_w_, y0 + cell_h_);
    }
  }
  InitExtents();
}

size_t GridPartitioner::PartitionFor(const Coordinate& c) const {
  // Clamp out-of-universe centroids into the border cells so that every
  // object receives a partition (Spark partitioners must be total).
  auto cell_index = [](double v, double lo, double width, size_t count) {
    if (width <= 0.0) return size_t{0};
    // Clamped before the cast, which is undefined for NaN or an index past
    // SIZE_MAX: a NaN coordinate lands in the first cell.
    double idx = (v - lo) / width;
    if (!(idx >= 0.0)) idx = 0.0;
    idx = std::min(idx, static_cast<double>(count - 1));
    return static_cast<size_t>(idx);
  };
  const size_t cx = cell_index(c.x, universe_.min_x(), cell_w_, cells_x_);
  const size_t cy = cell_index(c.y, universe_.min_y(), cell_h_, cells_y_);
  return cy * cells_x_ + cx;
}

}  // namespace stark
