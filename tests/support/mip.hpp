#pragma once
// Explicit representation of the JRSSAM mixed-integer program of
// Section IV-A (objective (2), constraints (3)-(14)).
//
// The MIP is NP-hard, so the library solves it heuristically (Algorithms
// 2/3 + the multi-RV schemes); this test oracle (library wrsn_oracles,
// never linked by the tools) makes the formulation itself a first-class
// artifact:
//   * JrssamModel      — the instance data (recharge list, RVs, coverage),
//   * RouteSolution    — candidate routes, one closed base->...->base tour
//                        per RV,
//   * validate()       — checks every constraint and reports violations,
//   * objective()      — expression (2) for a candidate solution,
//   * exact_multi_rv() — branch-and-bound optimum for tiny instances,
//                        used by tests to bound heuristic regret.

#include <string>
#include <vector>

#include "core/units.hpp"
#include "geom/vec2.hpp"
#include "sched/planner.hpp"
#include "sched/request.hpp"

namespace wrsn {

struct JrssamModel {
  // Recharge node list R: position and demand d_i per node.
  std::vector<Vec2> node_pos;
  std::vector<Joule> demand;
  // RVs: shared capacity C_r, traction cost e_m, depot v_0.
  std::size_t num_rvs = 1;
  Joule rv_capacity{0.0};
  JoulePerMeter move_cost{5.6};
  Vec2 base;

  [[nodiscard]] std::size_t num_nodes() const { return node_pos.size(); }
  // Traveling cost c_ij between nodes (or node and base via the overloads).
  [[nodiscard]] Joule edge_cost(std::size_t i, std::size_t j) const;
  [[nodiscard]] Joule base_cost(std::size_t i) const;

  // Builds a model from planner-level items (each item contributes one node
  // at its representative position with its aggregated demand).
  [[nodiscard]] static JrssamModel from_items(const std::vector<RechargeItem>& items,
                                              std::size_t num_rvs, Joule rv_capacity,
                                              const PlannerParams& params);
};

// routes[a] is RV a's visiting order over node indices; the base depot is
// implicit at both ends (constraint (3)). An RV may stay home (empty route),
// which relaxes constraint (9) the way the heuristics do when the list is
// short.
struct RouteSolution {
  std::vector<std::vector<std::size_t>> routes;
};

struct ConstraintViolation {
  std::string constraint;  // e.g. "(7) capacity", "(8) node served twice"
  std::string detail;
};

// All violations of constraints (3)-(14) semantics for the candidate (empty
// result = feasible). Degree constraints (4) and subtour elimination
// (13)-(14) hold by construction of RouteSolution, so the checks cover:
// route indices valid, every node served at most once (8), capacity (7).
[[nodiscard]] std::vector<ConstraintViolation> validate(const JrssamModel& model,
                                                        const RouteSolution& sol);

// Expression (2): total demand served minus total traveling cost, including
// the depot legs required by constraint (3).
[[nodiscard]] Joule objective(const JrssamModel& model, const RouteSolution& sol);

struct ExactMultiResult {
  RouteSolution solution;
  Joule objective{0.0};
  std::size_t nodes_explored = 0;
};

// Exhaustive branch-and-bound over node->RV assignments and visit orders.
// Exponential: instances are limited to num_nodes() <= 10 and num_rvs <= 3.
[[nodiscard]] ExactMultiResult exact_multi_rv(const JrssamModel& model);

}  // namespace wrsn
