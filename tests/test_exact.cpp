#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "exact.hpp"
#include "sched/profit.hpp"

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

TEST(Exact, EmptyInstance) {
  RvPlanState rv{{100, 100}, Joule{1000.0}};
  const auto sol = exact_single_rv(rv, {}, params());
  EXPECT_TRUE(sol.sequence.empty());
  EXPECT_DOUBLE_EQ(sol.profit.value(), 0.0);
}

TEST(Exact, SingleProfitableItem) {
  const std::vector<RechargeItem> items = {item_at({110, 100}, 500.0)};
  RvPlanState rv{{100, 100}, Joule{50000.0}};
  const auto sol = exact_single_rv(rv, items, params());
  EXPECT_EQ(sol.sequence, (std::vector<std::size_t>{0}));
  EXPECT_DOUBLE_EQ(sol.profit.value(), 500.0 - 56.0);
}

TEST(Exact, UnprofitableItemSkipped) {
  // Demand 10 J at 100 m: profit 10 - 560 < 0 -> empty tour is better.
  const std::vector<RechargeItem> items = {item_at({200, 100}, 10.0)};
  RvPlanState rv{{100, 100}, Joule{50000.0}};
  const auto sol = exact_single_rv(rv, items, params());
  EXPECT_TRUE(sol.sequence.empty());
  EXPECT_DOUBLE_EQ(sol.profit.value(), 0.0);
}

TEST(Exact, BudgetExcludesExpensiveItem) {
  const std::vector<RechargeItem> items = {
      item_at({110, 100}, 400.0, 0),
      item_at({120, 100}, 5000.0, 1),
  };
  // Budget fits item 0 (56+56*? travel + 400) but not item 1's 5000 demand.
  RvPlanState rv{{100, 100}, Joule{700.0}};
  const auto sol = exact_single_rv(rv, items, params());
  EXPECT_EQ(sol.sequence, (std::vector<std::size_t>{0}));
}

TEST(Exact, OrdersTwoItemsOptimally) {
  // Two items on a line: visiting in order is shorter than zig-zag.
  const std::vector<RechargeItem> items = {
      item_at({120, 100}, 1000.0, 0),
      item_at({140, 100}, 1000.0, 1),
  };
  RvPlanState rv{{100, 100}, Joule{50000.0}};
  const auto sol = exact_single_rv(rv, items, params());
  EXPECT_EQ(sol.sequence, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(sol.profit.value(), 2000.0 - 5.6 * 40.0);
}

TEST(Exact, ReturnBudgetFlagMatters) {
  // 100 m out, demand 800 J: one-way cost 560 J (profit +240), return adds
  // another 560 J to the budget under the strict flag.
  const std::vector<RechargeItem> items = {item_at({200, 100}, 800.0)};
  RvPlanState rv{{100, 100}, Joule{1400.0}};  // covers leg + demand only
  const auto strict = exact_single_rv(rv, items, params(), true);
  EXPECT_TRUE(strict.sequence.empty());
  const auto relaxed = exact_single_rv(rv, items, params(), false);
  EXPECT_EQ(relaxed.sequence, (std::vector<std::size_t>{0}));
}

TEST(Exact, RefusesHugeInstances) {
  std::vector<RechargeItem> items(15, item_at({0, 0}, 1.0));
  RvPlanState rv{{0, 0}, Joule{1.0}};
  EXPECT_THROW(exact_single_rv(rv, items, params()), InvalidArgument);
}

// Properties vs the heuristics on random instances:
//  1. exact >= insertion >= dest-only greedy (profit dominance);
//  2. exact respects the budget;
//  3. insertion achieves at least 60% of the exact profit at these scales
//     (empirical regret bound; it documents how good Algorithm 3 is).
class ExactVsHeuristics : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactVsHeuristics, ProfitDominanceAndRegret) {
  Xoshiro256 rng(GetParam());
  const std::size_t n = 3 + rng.uniform_int(6);  // 3..8 items
  std::vector<RechargeItem> items;
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(item_at({rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)},
                            rng.uniform(200.0, 3500.0), i));
  }
  RvPlanState rv{{100, 100}, Joule{rng.uniform(4000.0, 20000.0)}};

  const auto exact = exact_single_rv(rv, items, params());

  std::vector<bool> taken(n, false);
  const auto heur = insertion_sequence(rv, items, taken, params());
  const Joule heur_profit =
      heur.empty() ? Joule{0.0}
                   : sequence_profit(rv.pos, items, heur, params().em);

  // 1. dominance
  EXPECT_GE(exact.profit.value(), heur_profit.value() - 1e-6);

  // 2. exact feasibility: travel(+return) + demands <= budget
  if (!exact.sequence.empty()) {
    const double travel =
        sequence_length(rv.pos, items, exact.sequence, params().base);
    double demand = 0.0;
    for (std::size_t i : exact.sequence) demand += items[i].demand.value();
    EXPECT_LE(5.6 * travel + demand, rv.available.value() + 1e-6);
  }

  // 3. regret bound
  if (exact.profit.value() > 1e-9) {
    EXPECT_GE(heur_profit.value(), 0.60 * exact.profit.value())
        << "insertion heuristic regret too large";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ExactVsHeuristics,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(Exact, ExploresReasonableNodeCount) {
  Xoshiro256 rng(5);
  std::vector<RechargeItem> items;
  for (std::size_t i = 0; i < 8; ++i) {
    items.push_back(item_at({rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)},
                            rng.uniform(500.0, 3000.0), i));
  }
  RvPlanState rv{{100, 100}, Joule{30000.0}};
  const auto sol = exact_single_rv(rv, items, params());
  EXPECT_GT(sol.nodes_explored, 0u);
  // Bound-pruned search must stay far under the 8! * sum permutations blowup.
  EXPECT_LT(sol.nodes_explored, 2000000u);
}

}  // namespace
}  // namespace wrsn
