#pragma once
// Tour construction for intra-cluster recharging (Section IV-C cites the
// canonical nearest-neighbour heuristic, O(n_c^2)) plus a 2-opt improver
// used by tests and the ablation bench to quantify how much tour quality
// matters at cluster scale.
//
// Both routines come in two flavours: the `_reference` variants are the
// original quadratic scans, kept as the bit-exact oracle; the unsuffixed
// entry points dispatch to grid-accelerated implementations that visit
// spatial-grid cells in expanding rings and prune candidates against the
// incumbent, but apply the exact same floating-point acceptance tests and
// therefore produce identical tours (enforced by the planner-equivalence
// property tests). Tours below a small size cutoff run the reference
// directly.

#include <vector>

#include "geom/vec2.hpp"

namespace wrsn {

// Visiting order of `points` starting from `start` (start itself is not a
// point index): greedy nearest-neighbour. Returns indices into `points`.
[[nodiscard]] std::vector<std::size_t> nearest_neighbor_tour(
    Vec2 start, const std::vector<Vec2>& points);

// O(n^2) reference of the above; identical output.
[[nodiscard]] std::vector<std::size_t> nearest_neighbor_tour_reference(
    Vec2 start, const std::vector<Vec2>& points);

// In-place 2-opt improvement of an open tour that begins at `start`; stops
// when no improving exchange exists or `max_rounds` passes complete.
void two_opt(Vec2 start, const std::vector<Vec2>& points,
             std::vector<std::size_t>& order, int max_rounds = 16);

// O(n^2)-per-round reference of the above; identical output.
void two_opt_reference(Vec2 start, const std::vector<Vec2>& points,
                       std::vector<std::size_t>& order, int max_rounds = 16);

// Length of the open path start -> points[order[0]] -> ... -> last.
[[nodiscard]] double open_tour_length(Vec2 start, const std::vector<Vec2>& points,
                                      const std::vector<std::size_t>& order);

}  // namespace wrsn
