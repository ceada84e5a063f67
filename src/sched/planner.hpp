#pragma once
// Recharge route planners (Section IV).
//
//   * greedy_next          — Algorithm 2, one destination per step.
//   * insertion_sequence   — Algorithm 3, single-RV sequence built by
//                            profitable insertions between crt and dest.
//   * partition_items      — Partition-Scheme grouping (K-means, Eq. 15)
//                            plus group->RV matching.
//   * combined_plan        — Combined-Scheme: Algorithm 3 sequentially over
//                            the global item list for each RV.
//
// All planners work on aggregated RechargeItems and respect the RV energy
// budget: traction energy + delivered energy + the return leg to base must
// fit within the available energy (constraint (7) with the reserve of
// Algorithm 3's "reserve energy for the dest node"). Critical items
// (clusters with members near depletion) are prioritized for destination
// selection per Section III-C.
//
// The free functions below are the O(n) linear scans. For greedy_next and
// insertion_sequence they are the REFERENCE: the production hot path is
// sched/plan_context.hpp, which answers those two with grid-pruned
// branch-and-bound search and is bit-identical to these scans on every
// input (enforced by the planner-equivalence property tests). nearest_next
// and edf_next have only these scans.

#include <optional>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "geom/vec2.hpp"
#include "sched/request.hpp"

namespace wrsn {

struct RvPlanState {
  Vec2 pos;         // current RV position
  Joule available;  // energy usable for travel + delivery this tour
};

struct PlannerParams {
  JoulePerMeter em;  // traction cost
  Vec2 base;         // base-station position (return leg)
};

// Algorithm 2: index of the affordable item with maximum recharge profit
// d - e_m * dist(rv, item); critical items take precedence. `taken[i]`
// marks items already claimed. nullopt when nothing is affordable.
[[nodiscard]] std::optional<std::size_t> greedy_next(
    const RvPlanState& rv, const std::vector<RechargeItem>& items,
    const std::vector<bool>& taken, const PlannerParams& params);

// Extension baseline: the affordable item nearest to the RV (critical items
// first), ignoring demand. Same contract as greedy_next.
[[nodiscard]] std::optional<std::size_t> nearest_next(
    const RvPlanState& rv, const std::vector<RechargeItem>& items,
    const std::vector<bool>& taken, const PlannerParams& params);

// Extension baseline: the affordable item whose lowest member battery
// fraction is smallest (earliest estimated depletion deadline). Same
// contract as greedy_next.
[[nodiscard]] std::optional<std::size_t> edf_next(
    const RvPlanState& rv, const std::vector<RechargeItem>& items,
    const std::vector<bool>& taken, const PlannerParams& params);

// Algorithm 3: builds a visiting sequence (indices into `items`) for one RV.
// Marks chosen items in `taken`. The first element is the max-profit
// destination; remaining elements were inserted while their profit
// difference p(s, n) stayed positive and the budget allowed it.
[[nodiscard]] std::vector<std::size_t> insertion_sequence(
    const RvPlanState& rv, const std::vector<RechargeItem>& items,
    std::vector<bool>& taken, const PlannerParams& params);

// Partition-Scheme: K-means on item positions into `num_groups` groups
// (fewer when there are fewer items). groups[g] lists item indices.
[[nodiscard]] std::vector<std::vector<std::size_t>> partition_items(
    const std::vector<RechargeItem>& items, std::size_t num_groups,
    Xoshiro256& rng);

// Matches each group (by its centroid) to a distinct RV; returns the RV
// index per group. Greedy: it repeatedly binds the closest still-unmatched
// (group, RV) pair by squared centroid distance, ties going to the lowest
// group index, then the lowest RV index. This is not an optimal
// assignment, even at m = 2: with centroids at x = 0 and x = 2 and RVs at
// x = 1.1 and x = 3.5 it binds group 1 to RV 0 first and travels 4.4 m
// where the optimal assignment travels 2.6 m.
[[nodiscard]] std::vector<std::size_t> match_groups_to_rvs(
    const std::vector<Vec2>& group_centroids, const std::vector<Vec2>& rv_positions);

// Combined-Scheme: Algorithm 3 for each RV in turn over the shared item
// list. sequences[a] is RV a's visiting order (possibly empty).
[[nodiscard]] std::vector<std::vector<std::size_t>> combined_plan(
    const std::vector<RvPlanState>& rvs, const std::vector<RechargeItem>& items,
    const PlannerParams& params);

// Total traction length of the open path rv.pos -> items[seq...] -> (+base
// return when `include_return`). Shared by planners, tests and benches.
[[nodiscard]] double sequence_length(Vec2 start, const std::vector<RechargeItem>& items,
                                     const std::vector<std::size_t>& seq,
                                     std::optional<Vec2> return_to = std::nullopt);

// Plan profit: sum of demands minus e_m * path length (expression (2) for a
// single tour, no return leg — matching the paper's objective).
[[nodiscard]] Joule sequence_profit(Vec2 start, const std::vector<RechargeItem>& items,
                                    const std::vector<std::size_t>& seq,
                                    JoulePerMeter em);

}  // namespace wrsn
