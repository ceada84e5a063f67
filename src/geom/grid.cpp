#include "geom/grid.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace wrsn {

SpatialGrid::SpatialGrid(double field_side, double cell_size)
    : field_side_(field_side), cell_size_(cell_size) {
  WRSN_REQUIRE(field_side > 0.0, "field side must be positive");
  WRSN_REQUIRE(cell_size > 0.0, "cell size must be positive");
  cells_per_side_ =
      std::max(1, static_cast<int>(std::ceil(field_side / cell_size)));
}

int SpatialGrid::cell_coord(double v) const {
  const int c = static_cast<int>(std::floor(v / cell_size_));
  return std::clamp(c, 0, cells_per_side_ - 1);
}

std::size_t SpatialGrid::cell_index(int cx, int cy) const {
  return static_cast<std::size_t>(cy) * static_cast<std::size_t>(cells_per_side_) +
         static_cast<std::size_t>(cx);
}

void SpatialGrid::build(const std::vector<Vec2>& points) {
  points_ = points;
  const std::size_t nc = num_cells();
  std::vector<std::size_t> counts(nc, 0);
  std::vector<std::size_t> cell_of(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    cell_of[i] = cell_index(cell_coord(points_[i].x), cell_coord(points_[i].y));
    ++counts[cell_of[i]];
  }
  starts_.assign(nc + 1, 0);
  for (std::size_t c = 0; c < nc; ++c) starts_[c + 1] = starts_[c] + counts[c];
  ids_.resize(points_.size());
  std::vector<std::size_t> cursor(starts_.begin(), starts_.end() - 1);
  // Insert in ascending id order so each cell slice is already sorted.
  for (std::size_t i = 0; i < points_.size(); ++i) {
    ids_[cursor[cell_of[i]]++] = i;
  }
}

std::vector<std::size_t> SpatialGrid::query_radius(Vec2 q, double radius) const {
  // Reserve from cell occupancy so the collection loop never reallocates.
  const int lo_x = cell_coord(q.x - radius);
  const int hi_x = cell_coord(q.x + radius);
  const int lo_y = cell_coord(q.y - radius);
  const int hi_y = cell_coord(q.y + radius);
  std::size_t occupancy = 0;
  for (int cy = lo_y; cy <= hi_y; ++cy) {
    for (int cx = lo_x; cx <= hi_x; ++cx) {
      const std::size_t cell = cell_index(cx, cy);
      occupancy += starts_[cell + 1] - starts_[cell];
    }
  }
  std::vector<std::size_t> result;
  result.reserve(occupancy);
  for_each_in_radius(q, radius, [&](std::size_t id) { result.push_back(id); });
  std::sort(result.begin(), result.end());
  return result;
}

std::size_t SpatialGrid::count_in_radius(Vec2 q, double radius) const {
  std::size_t count = 0;
  for_each_in_radius(q, radius, [&](std::size_t) { ++count; });
  return count;
}

bool SpatialGrid::any_in_radius(Vec2 q, double radius) const {
  const double r2 = radius * radius;
  const int lo_x = cell_coord(q.x - radius);
  const int hi_x = cell_coord(q.x + radius);
  const int lo_y = cell_coord(q.y - radius);
  const int hi_y = cell_coord(q.y + radius);
  for (int cy = lo_y; cy <= hi_y; ++cy) {
    for (int cx = lo_x; cx <= hi_x; ++cx) {
      const std::size_t cell = cell_index(cx, cy);
      for (std::size_t k = starts_[cell]; k < starts_[cell + 1]; ++k) {
        if (squared_distance(points_[ids_[k]], q) <= r2) return true;
      }
    }
  }
  return false;
}

}  // namespace wrsn
