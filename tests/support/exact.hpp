#pragma once
// Exact solver for the single-RV special case of the JRSSAM optimization
// (Section IV-A): select a subset of recharge items and a visiting order
// maximizing   sum(d_i) - e_m * path_length   subject to the RV capacity
// (travel + delivered energy within budget). This is TSP-with-Profits, so
// exponential in general — branch-and-bound keeps instances up to ~12 items
// tractable. A test oracle (library wrsn_oracles, never linked by the
// tools): the test suite uses it to bound the regret of Algorithms 2/3.

#include <vector>

#include "core/units.hpp"
#include "geom/vec2.hpp"
#include "sched/planner.hpp"
#include "sched/request.hpp"

namespace wrsn {

struct ExactSolution {
  std::vector<std::size_t> sequence;  // visiting order (item indices)
  Joule profit{0.0};                  // objective value of the sequence
  std::size_t nodes_explored = 0;     // search-tree statistics
};

// `include_return_in_budget` accounts the way the heuristics do: the tour
// must retain enough energy to get back to base, but the return leg does not
// count against the profit objective (matching expression (2) as the paper
// evaluates it).
[[nodiscard]] ExactSolution exact_single_rv(const RvPlanState& rv,
                                            const std::vector<RechargeItem>& items,
                                            const PlannerParams& params,
                                            bool include_return_in_budget = true);

}  // namespace wrsn
