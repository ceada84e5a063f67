#pragma once
// Tour construction for intra-cluster recharging (Section IV-C cites the
// canonical nearest-neighbour heuristic, O(n_c^2)) plus a 2-opt improver
// used by the `two_opt_tours` option and the ablation bench to quantify how
// much tour quality matters at cluster scale.
//
// Both are the plain quadratic scans. A tour covers one cluster's members
// or one dispatch's flattened visit list, a handful of stops at the
// paper's scale, where no spatial index pays for its bookkeeping.

#include <vector>

#include "geom/vec2.hpp"

namespace wrsn {

// Visiting order of `points` starting from `start` (start itself is not a
// point index): greedy nearest-neighbour, lowest index on exact ties.
// Returns indices into `points`.
[[nodiscard]] std::vector<std::size_t> nearest_neighbor_tour(
    Vec2 start, const std::vector<Vec2>& points);

// In-place first-improvement 2-opt of an open tour that begins at `start`;
// `order` may index a subset of `points`. Stops when no improving exchange
// exists or `max_rounds` passes complete.
void two_opt(Vec2 start, const std::vector<Vec2>& points,
             std::vector<std::size_t>& order, int max_rounds = 16);

// Length of the open path start -> points[order[0]] -> ... -> last.
[[nodiscard]] double open_tour_length(Vec2 start, const std::vector<Vec2>& points,
                                      const std::vector<std::size_t>& order);

}  // namespace wrsn
