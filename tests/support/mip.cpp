#include "mip.hpp"

#include <algorithm>
#include <sstream>

#include "core/error.hpp"

namespace wrsn {

Joule JrssamModel::edge_cost(std::size_t i, std::size_t j) const {
  WRSN_REQUIRE(i < num_nodes() && j < num_nodes(), "edge index out of range");
  return move_cost * Meter{distance(node_pos[i], node_pos[j])};
}

Joule JrssamModel::base_cost(std::size_t i) const {
  WRSN_REQUIRE(i < num_nodes(), "node index out of range");
  return move_cost * Meter{distance(base, node_pos[i])};
}

JrssamModel JrssamModel::from_items(const std::vector<RechargeItem>& items,
                                    std::size_t num_rvs, Joule rv_capacity,
                                    const PlannerParams& params) {
  WRSN_REQUIRE(num_rvs > 0, "need at least one RV");
  JrssamModel model;
  model.num_rvs = num_rvs;
  model.rv_capacity = rv_capacity;
  model.move_cost = params.em;
  model.base = params.base;
  model.node_pos.reserve(items.size());
  model.demand.reserve(items.size());
  for (const RechargeItem& item : items) {
    model.node_pos.push_back(item.pos);
    model.demand.push_back(item.demand);
  }
  return model;
}

namespace {

Joule route_cost(const JrssamModel& model, const std::vector<std::size_t>& route) {
  if (route.empty()) return Joule{0.0};
  Joule cost = model.base_cost(route.front());
  for (std::size_t k = 1; k < route.size(); ++k) {
    cost += model.edge_cost(route[k - 1], route[k]);
  }
  cost += model.base_cost(route.back());
  return cost;
}

Joule route_demand(const JrssamModel& model, const std::vector<std::size_t>& route) {
  Joule d{0.0};
  for (std::size_t i : route) d += model.demand[i];
  return d;
}

}  // namespace

std::vector<ConstraintViolation> validate(const JrssamModel& model,
                                          const RouteSolution& sol) {
  std::vector<ConstraintViolation> out;
  auto violate = [&](const std::string& constraint, const std::string& detail) {
    out.push_back({constraint, detail});
  };

  if (sol.routes.size() != model.num_rvs) {
    violate("(3) one tour per RV",
            "solution has " + std::to_string(sol.routes.size()) + " routes for " +
                std::to_string(model.num_rvs) + " RVs");
    return out;
  }

  std::vector<int> served(model.num_nodes(), 0);
  for (std::size_t a = 0; a < sol.routes.size(); ++a) {
    const auto& route = sol.routes[a];
    for (std::size_t i : route) {
      if (i >= model.num_nodes()) {
        violate("(10)-(11) variable domain",
                "RV " + std::to_string(a) + " visits unknown node " +
                    std::to_string(i));
        return out;
      }
      ++served[i];
    }
    // Within-route duplicates also break the degree constraints (4).
    std::vector<std::size_t> sorted = route;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      violate("(4) in/out degree", "RV " + std::to_string(a) +
                                       " visits a node more than once");
    }
    // Capacity (7): delivered energy + traveling cost within C_r.
    const Joule used = route_demand(model, route) + route_cost(model, route);
    if (used > model.rv_capacity + Joule{1e-9}) {
      std::ostringstream os;
      os << "RV " << a << " uses " << used.value() << " J of capacity "
         << model.rv_capacity.value() << " J";
      violate("(7) RV capacity", os.str());
    }
  }

  // (8): every node recharged by at most one RV.
  for (std::size_t i = 0; i < model.num_nodes(); ++i) {
    if (served[i] > 1) {
      violate("(8) at most one RV per node",
              "node " + std::to_string(i) + " served " +
                  std::to_string(served[i]) + " times");
    }
  }
  return out;
}

Joule objective(const JrssamModel& model, const RouteSolution& sol) {
  Joule total{0.0};
  for (const auto& route : sol.routes) {
    total += route_demand(model, route) - route_cost(model, route);
  }
  return total;
}

namespace {

struct MultiSearch {
  const JrssamModel* model;
  RouteSolution current;
  std::vector<bool> used;
  std::vector<Joule> route_used;  // per RV: demand + travel incl. return
  std::vector<Vec2> rv_pos;
  Joule profit{0.0};
  ExactMultiResult best;

  void dfs() {
    ++best.nodes_explored;
    if (profit > best.objective) {
      best.objective = profit;
      best.solution = current;
    }
    // Optimistic bound: every unused demand for free.
    Joule bound = profit;
    for (std::size_t i = 0; i < model->num_nodes(); ++i) {
      if (!used[i]) bound += model->demand[i];
    }
    if (bound <= best.objective) return;

    for (std::size_t i = 0; i < model->num_nodes(); ++i) {
      if (used[i]) continue;
      for (std::size_t a = 0; a < model->num_rvs; ++a) {
        // Symmetry breaking: an empty RV a may only start a route if every
        // earlier RV already has one (identical vehicles).
        if (current.routes[a].empty() && a > 0 &&
            current.routes[a - 1].empty()) {
          break;
        }
        const bool first = current.routes[a].empty();
        const Joule leg = model->move_cost *
                          Meter{first ? distance(model->base, model->node_pos[i])
                                      : distance(rv_pos[a], model->node_pos[i])};
        const Joule back = model->base_cost(i);
        const Joule prev_back =
            first ? Joule{0.0} : model->base_cost(current.routes[a].back());
        const Joule new_used =
            route_used[a] - prev_back + leg + model->demand[i] + back;
        if (new_used > model->rv_capacity + Joule{1e-9}) continue;

        // Apply.
        const Joule prev_used = route_used[a];
        const Vec2 prev_pos = rv_pos[a];
        const Joule delta_profit =
            model->demand[i] - leg - back + prev_back;
        current.routes[a].push_back(i);
        used[i] = true;
        route_used[a] = new_used;
        rv_pos[a] = model->node_pos[i];
        profit += delta_profit;

        dfs();

        profit -= delta_profit;
        rv_pos[a] = prev_pos;
        route_used[a] = prev_used;
        used[i] = false;
        current.routes[a].pop_back();
      }
    }
  }
};

}  // namespace

ExactMultiResult exact_multi_rv(const JrssamModel& model) {
  WRSN_REQUIRE(model.num_nodes() <= 10, "exact multi-RV solver limited to 10 nodes");
  WRSN_REQUIRE(model.num_rvs <= 3, "exact multi-RV solver limited to 3 RVs");
  MultiSearch search;
  search.model = &model;
  search.current.routes.assign(model.num_rvs, {});
  search.used.assign(model.num_nodes(), false);
  search.route_used.assign(model.num_rvs, Joule{0.0});
  search.rv_pos.assign(model.num_rvs, model.base);
  search.best.solution.routes.assign(model.num_rvs, {});
  search.best.objective = Joule{0.0};  // all RVs staying home is feasible
  search.dfs();
  return search.best;
}

}  // namespace wrsn
