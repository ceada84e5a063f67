#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "exact.hpp"
#include "mip.hpp"

namespace wrsn {
namespace {

RechargeItem item_at(Vec2 pos, double demand, SensorId sensor = 0) {
  RechargeItem it;
  it.pos = pos;
  it.demand = Joule{demand};
  it.sensors = {sensor};
  return it;
}

PlannerParams params() { return {JoulePerMeter{5.6}, Vec2{100, 100}}; }

JrssamModel line_model(std::size_t rvs = 1, double capacity = 50000.0) {
  // Nodes at 110, 120, 130 on the y=100 line, base at (100,100).
  const std::vector<RechargeItem> items = {
      item_at({110, 100}, 1000.0, 0),
      item_at({120, 100}, 1000.0, 1),
      item_at({130, 100}, 1000.0, 2),
  };
  return JrssamModel::from_items(items, rvs, Joule{capacity}, params());
}

TEST(Mip, ModelFromItems) {
  const JrssamModel m = line_model(2);
  EXPECT_EQ(m.num_nodes(), 3u);
  EXPECT_EQ(m.num_rvs, 2u);
  EXPECT_DOUBLE_EQ(m.demand[1].value(), 1000.0);
  EXPECT_DOUBLE_EQ(m.edge_cost(0, 1).value(), 5.6 * 10.0);
  EXPECT_DOUBLE_EQ(m.base_cost(0).value(), 5.6 * 10.0);
}

TEST(Mip, ObjectiveClosedTour) {
  const JrssamModel m = line_model(1);
  RouteSolution sol;
  sol.routes = {{0, 1, 2}};
  // demand 3000 - e_m*(10 + 10 + 10 + 30).
  EXPECT_DOUBLE_EQ(objective(m, sol).value(), 3000.0 - 5.6 * 60.0);
}

TEST(Mip, ObjectiveEmptyRoutes) {
  const JrssamModel m = line_model(2);
  RouteSolution sol;
  sol.routes = {{}, {}};
  EXPECT_DOUBLE_EQ(objective(m, sol).value(), 0.0);
}

TEST(Mip, ValidateAcceptsFeasible) {
  const JrssamModel m = line_model(2);
  RouteSolution sol;
  sol.routes = {{0, 1}, {2}};
  EXPECT_TRUE(validate(m, sol).empty());
}

TEST(Mip, ValidateWrongRouteCount) {
  const JrssamModel m = line_model(2);
  RouteSolution sol;
  sol.routes = {{0}};
  const auto violations = validate(m, sol);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].constraint.find("(3)"), std::string::npos);
}

TEST(Mip, ValidateDetectsDoubleService) {
  const JrssamModel m = line_model(2);
  RouteSolution sol;
  sol.routes = {{0, 1}, {1}};
  const auto violations = validate(m, sol);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].constraint.find("(8)"), std::string::npos);
}

TEST(Mip, ValidateDetectsWithinRouteDuplicate) {
  const JrssamModel m = line_model(1);
  RouteSolution sol;
  sol.routes = {{0, 1, 0}};
  bool found = false;
  for (const auto& v : validate(m, sol)) {
    if (v.constraint.find("(4)") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Mip, ValidateDetectsCapacityViolation) {
  const JrssamModel m = line_model(1, /*capacity=*/1500.0);
  RouteSolution sol;
  sol.routes = {{0, 1, 2}};  // 3000 J demand alone exceeds 1500 J
  bool found = false;
  for (const auto& v : validate(m, sol)) {
    if (v.constraint.find("(7)") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Mip, ValidateDetectsUnknownNode) {
  const JrssamModel m = line_model(1);
  RouteSolution sol;
  sol.routes = {{7}};
  const auto violations = validate(m, sol);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].constraint.find("domain"), std::string::npos);
}

TEST(MipExact, EmptyInstance) {
  JrssamModel m;
  m.num_rvs = 2;
  m.rv_capacity = Joule{1000.0};
  m.base = {0, 0};
  const auto result = exact_multi_rv(m);
  EXPECT_DOUBLE_EQ(result.objective.value(), 0.0);
  EXPECT_EQ(result.solution.routes.size(), 2u);
}

TEST(MipExact, SingleRvMatchesExactSingle) {
  // The multi-RV solver with m=1 must agree with the single-RV solver when
  // the latter also charges the return leg against the budget and profit.
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<RechargeItem> items;
    const std::size_t n = 2 + rng.uniform_int(4);
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(item_at({rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)},
                              rng.uniform(500.0, 3000.0), i));
    }
    const JrssamModel model =
        JrssamModel::from_items(items, 1, Joule{15000.0}, params());
    const auto multi = exact_multi_rv(model);
    // Feasibility + objective consistency of the reported optimum.
    EXPECT_TRUE(validate(model, multi.solution).empty()) << "trial " << trial;
    EXPECT_NEAR(objective(model, multi.solution).value(), multi.objective.value(),
                1e-6);
  }
}

TEST(MipExact, TwoRvsBeatOneOnSpreadNodes) {
  // Two far-apart nodes with a tight capacity: one RV cannot serve both, two
  // can, so the two-RV optimum is strictly higher.
  const std::vector<RechargeItem> items = {
      item_at({0, 100}, 3000.0, 0),
      item_at({200, 100}, 3000.0, 1),
  };
  const Joule cap{3000.0 + 5.6 * 2.0 * 100.0 + 10.0};  // one node + round trip
  const auto one = exact_multi_rv(JrssamModel::from_items(items, 1, cap, params()));
  const auto two = exact_multi_rv(JrssamModel::from_items(items, 2, cap, params()));
  EXPECT_GT(two.objective.value(), one.objective.value());
}

TEST(MipExact, HeuristicsNeverBeatExact) {
  Xoshiro256 rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<RechargeItem> items;
    const std::size_t n = 3 + rng.uniform_int(4);
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(item_at({rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)},
                              rng.uniform(500.0, 3000.0), i));
    }
    const std::size_t m = 1 + rng.uniform_int(2);
    const Joule cap{12000.0};
    const JrssamModel model = JrssamModel::from_items(items, m, cap, params());
    const auto exact = exact_multi_rv(model);

    // Build a heuristic solution via combined_plan and evaluate it under the
    // MIP objective (which also charges the return legs).
    std::vector<RvPlanState> rvs(m, RvPlanState{params().base, cap});
    const auto plans = combined_plan(rvs, items, params());
    RouteSolution heuristic;
    heuristic.routes = plans;
    EXPECT_TRUE(validate(model, heuristic).empty()) << "trial " << trial;
    EXPECT_GE(exact.objective.value(),
              objective(model, heuristic).value() - 1e-6)
        << "trial " << trial;
  }
}

TEST(MipExact, SizeLimits) {
  std::vector<RechargeItem> items;
  for (std::size_t i = 0; i < 11; ++i) items.push_back(item_at({0, 0}, 1.0, i));
  const JrssamModel model =
      JrssamModel::from_items(items, 1, Joule{100.0}, params());
  EXPECT_THROW((void)exact_multi_rv(model), InvalidArgument);
}

}  // namespace
}  // namespace wrsn
