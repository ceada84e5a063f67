#include "sched/tsp.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"
#include "obs/telemetry.hpp"

namespace wrsn {

std::vector<std::size_t> nearest_neighbor_tour(Vec2 start,
                                               const std::vector<Vec2>& points) {
  WRSN_OBS_SCOPE("tsp/nearest-neighbor");
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t n = points.size();
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<bool> used(n, false);
  Vec2 cur = start;
  for (std::size_t step = 0; step < n; ++step) {
    double best_d2 = std::numeric_limits<double>::infinity();
    std::size_t best = kNone;
    for (std::size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const double d2 = squared_distance(cur, points[i]);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = i;
      }
    }
    WRSN_ASSERT(best != kNone, "nearest neighbour found no candidate");
    used[best] = true;
    order.push_back(best);
    cur = points[best];
  }
  return order;
}

void two_opt(Vec2 start, const std::vector<Vec2>& points,
             std::vector<std::size_t>& order, int max_rounds) {
  WRSN_OBS_SCOPE("tsp/two-opt");
  WRSN_REQUIRE(order.size() <= points.size(), "order must index into points");
  if (order.size() < 3) return;
  auto at = [&](std::size_t k) -> Vec2 {
    return k == 0 ? start : points[order[k - 1]];
  };
  const std::size_t n = order.size();
  for (int round = 0; round < max_rounds; ++round) {
    bool improved = false;
    // Edges are (k, k+1) over the sequence [start, order...]; reversing
    // order[i..j] replaces edges (i, i+1) and (j+1, j+2).
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const Vec2 a = at(i);
        const Vec2 b = at(i + 1);
        const Vec2 c = at(j + 1);
        // Open tour: the edge after the last node does not exist.
        const bool has_next = j + 1 < n;
        const Vec2 d = has_next ? at(j + 2) : Vec2{};
        const double before = distance(a, b) + (has_next ? distance(c, d) : 0.0);
        const double after = distance(a, c) + (has_next ? distance(b, d) : 0.0);
        if (after + 1e-12 < before) {
          std::reverse(order.begin() + static_cast<std::ptrdiff_t>(i),
                       order.begin() + static_cast<std::ptrdiff_t>(j + 1));
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
}

double open_tour_length(Vec2 start, const std::vector<Vec2>& points,
                        const std::vector<std::size_t>& order) {
  double len = 0.0;
  Vec2 cur = start;
  for (std::size_t idx : order) {
    WRSN_REQUIRE(idx < points.size(), "tour index out of range");
    len += distance(cur, points[idx]);
    cur = points[idx];
  }
  return len;
}

}  // namespace wrsn
