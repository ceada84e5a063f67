#include "net/graph.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "geom/grid.hpp"

namespace wrsn {

CommGraph::CommGraph(const std::vector<Vec2>& positions, Vec2 base_station,
                     double comm_range)
    : comm_range_(comm_range) {
  WRSN_REQUIRE(comm_range > 0.0, "communication range must be positive");

  std::vector<Vec2> nodes = positions;
  nodes.push_back(base_station);
  const std::size_t n = nodes.size();

  // Field extent for the helper grid: cover all coordinates (targets/BS can
  // sit anywhere, deployments are non-negative by construction).
  double extent = comm_range;
  for (const Vec2& p : nodes) extent = std::max({extent, p.x, p.y});

  SpatialGrid grid(extent + comm_range, comm_range);
  grid.build(nodes);

  // Every pair within range sits in one cell or in two adjacent ones (the
  // cells are comm_range wide), so sweeping each cell against itself and
  // its four forward neighbours (east, and the three cells of the row
  // above) visits every such pair exactly once. squared_distance and
  // distance are symmetric bit for bit, so one evaluation serves both
  // directions. Pass 0 counts each node's degree, pass 1 fills the CSR.
  const double r2 = comm_range * comm_range;
  const int side = grid.cells_per_side();
  const auto sweep = [&](auto&& on_pair) {
    constexpr int kForward[4][2] = {{1, 0}, {-1, 1}, {0, 1}, {1, 1}};
    for (int cy = 0; cy < side; ++cy) {
      for (int cx = 0; cx < side; ++cx) {
        grid.for_each_in_cell(cx, cy, [&](std::size_t i) {
          grid.for_each_in_cell(cx, cy, [&](std::size_t j) {
            if (j > i && squared_distance(nodes[i], nodes[j]) <= r2) on_pair(i, j);
          });
          for (const auto& d : kForward) {
            const int nx = cx + d[0];
            const int ny = cy + d[1];
            if (nx < 0 || nx >= side || ny >= side) continue;
            grid.for_each_in_cell(nx, ny, [&](std::size_t j) {
              if (squared_distance(nodes[i], nodes[j]) <= r2) on_pair(i, j);
            });
          }
        });
      }
    }
  };

  starts_.assign(n + 1, 0);
  sweep([&](std::size_t i, std::size_t j) {
    ++starts_[i + 1];
    ++starts_[j + 1];
  });
  for (std::size_t i = 0; i < n; ++i) starts_[i + 1] += starts_[i];
  edges_.resize(starts_[n]);
  std::vector<std::size_t> fill(starts_.begin(), starts_.end() - 1);
  sweep([&](std::size_t i, std::size_t j) {
    const double length = distance(nodes[i], nodes[j]);
    edges_[fill[i]++] = {j, length};
    edges_[fill[j]++] = {i, length};
  });
  for (std::size_t i = 0; i < n; ++i) {
    std::sort(edges_.begin() + static_cast<std::ptrdiff_t>(starts_[i]),
              edges_.begin() + static_cast<std::ptrdiff_t>(starts_[i + 1]),
              [](const Edge& a, const Edge& b) { return a.to < b.to; });
  }
}

}  // namespace wrsn
