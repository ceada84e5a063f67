#pragma once
// Uniform spatial hash grid over the square sensing field.
//
// Supports the queries the framework needs, all in O(points in the
// neighbouring cells) instead of O(N):
//   * all points within radius r of a query point (which sensors cover a
//     target; which sensors are communication neighbours),
//   * count / existence of points within radius r (allocation-free).
//
// The cell layer (cell coordinates, per-cell id slices, exact point-to-cell
// distance lower bounds) is public so the planner's PlanContext can
// traverse cells in expanding rings and prune whole cells against an
// incumbent.

#include <cstddef>
#include <vector>

#include "geom/vec2.hpp"

namespace wrsn {

class SpatialGrid {
 public:
  // `field_side` is the square field's side length; `cell_size` should be of
  // the order of the most common query radius.
  SpatialGrid(double field_side, double cell_size);

  // Builds the index over `points`; ids are the indices into `points`.
  void build(const std::vector<Vec2>& points);

  [[nodiscard]] std::size_t size() const { return points_.size(); }

  // --- cell layer --------------------------------------------------------
  [[nodiscard]] double cell_size() const { return cell_size_; }
  [[nodiscard]] int cells_per_side() const { return cells_per_side_; }
  [[nodiscard]] std::size_t num_cells() const {
    return static_cast<std::size_t>(cells_per_side_) *
           static_cast<std::size_t>(cells_per_side_);
  }
  // Grid coordinate of a world coordinate, clamped to [0, cells_per_side).
  [[nodiscard]] int cell_coord(double v) const;
  [[nodiscard]] std::size_t cell_index(int cx, int cy) const;

  // Visits every id whose point hashed into cell (cx, cy).
  template <typename Fn>
  void for_each_in_cell(int cx, int cy, Fn&& fn) const {
    const std::size_t cell = cell_index(cx, cy);
    for (std::size_t k = starts_[cell]; k < starts_[cell + 1]; ++k) fn(ids_[k]);
  }

  // Lower bound on distance(q, p) for any point p hashed into cell (cx, cy).
  // Border cells absorb out-of-field points through clamping, so they extend
  // to infinity on the clamped side and the bound degrades to the in-range
  // axes only (never over-estimates).
  [[nodiscard]] double cell_distance_lower_bound_sq(Vec2 q, int cx, int cy) const {
    double dx = 0.0;
    if (cx > 0 && q.x < static_cast<double>(cx) * cell_size_) {
      dx = static_cast<double>(cx) * cell_size_ - q.x;
    } else if (cx + 1 < cells_per_side_ &&
               q.x > static_cast<double>(cx + 1) * cell_size_) {
      dx = q.x - static_cast<double>(cx + 1) * cell_size_;
    }
    double dy = 0.0;
    if (cy > 0 && q.y < static_cast<double>(cy) * cell_size_) {
      dy = static_cast<double>(cy) * cell_size_ - q.y;
    } else if (cy + 1 < cells_per_side_ &&
               q.y > static_cast<double>(cy + 1) * cell_size_) {
      dy = q.y - static_cast<double>(cy + 1) * cell_size_;
    }
    return dx * dx + dy * dy;
  }

  // --- queries ------------------------------------------------------------
  // Ids of all points with distance(p, q) <= radius, in ascending id order.
  // Capacity is reserved from the occupancy of the touched cells, so the
  // result vector never reallocates while collecting.
  [[nodiscard]] std::vector<std::size_t> query_radius(Vec2 q, double radius) const;

  // Number of points within radius, without allocating.
  [[nodiscard]] std::size_t count_in_radius(Vec2 q, double radius) const;

  // Whether any point lies within radius; early-exits on the first hit.
  [[nodiscard]] bool any_in_radius(Vec2 q, double radius) const;

  // Visits ids within radius without allocating.
  template <typename Fn>
  void for_each_in_radius(Vec2 q, double radius, Fn&& fn) const {
    const double r2 = radius * radius;
    const int lo_x = cell_coord(q.x - radius);
    const int hi_x = cell_coord(q.x + radius);
    const int lo_y = cell_coord(q.y - radius);
    const int hi_y = cell_coord(q.y + radius);
    for (int cy = lo_y; cy <= hi_y; ++cy) {
      for (int cx = lo_x; cx <= hi_x; ++cx) {
        const std::size_t cell = cell_index(cx, cy);
        for (std::size_t k = starts_[cell]; k < starts_[cell + 1]; ++k) {
          const std::size_t id = ids_[k];
          if (squared_distance(points_[id], q) <= r2) fn(id);
        }
      }
    }
  }

 private:
  double field_side_;
  double cell_size_;
  int cells_per_side_;
  std::vector<Vec2> points_;
  // CSR layout: ids_ grouped by cell, starts_[cell]..starts_[cell+1] slices it.
  std::vector<std::size_t> ids_;
  std::vector<std::size_t> starts_;
};

}  // namespace wrsn
