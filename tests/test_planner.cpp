#include <gtest/gtest.h>

#include <set>

#include "core/rng.hpp"
#include "net/deployment.hpp"
#include "sched/planner.hpp"
#include "sched/profit.hpp"

namespace wrsn {
namespace {

RechargeItem item_at(Vec2 pos, double demand, bool critical = false,
                     SensorId sensor = 0) {
  RechargeItem it;
  it.pos = pos;
  it.demand = Joule{demand};
  it.critical = critical;
  it.sensors = {sensor};
  return it;
}

PlannerParams params() { return {JoulePerMeter{5.6}, Vec2{100, 100}}; }

TEST(Profit, RechargeProfitFormula) {
  const auto it = item_at({3, 4}, 1000.0);
  EXPECT_DOUBLE_EQ(recharge_profit({0, 0}, it, JoulePerMeter{5.6}).value(),
                   1000.0 - 5.6 * 5.0);
}

TEST(Profit, InsertionDetourZeroOnSegment) {
  EXPECT_NEAR(insertion_detour({0, 0}, {10, 0}, {5, 0}), 0.0, 1e-12);
  EXPECT_GT(insertion_detour({0, 0}, {10, 0}, {5, 5}), 0.0);
}

TEST(GreedyNext, PicksMaxProfit) {
  const std::vector<RechargeItem> items = {
      item_at({10, 100}, 500.0),   // close, low demand
      item_at({190, 100}, 2000.0), // far, high demand
  };
  RvPlanState rv{{100, 100}, Joule{50000.0}};
  std::vector<bool> taken(2, false);
  // profit0 = 500 - 5.6*90 = -4, profit1 = 2000 - 5.6*90 = 1496
  const auto got = greedy_next(rv, items, taken, params());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
}

TEST(GreedyNext, CriticalDominates) {
  const std::vector<RechargeItem> items = {
      item_at({101, 100}, 5000.0, false),
      item_at({190, 100}, 100.0, true),
  };
  RvPlanState rv{{100, 100}, Joule{50000.0}};
  std::vector<bool> taken(2, false);
  const auto got = greedy_next(rv, items, taken, params());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);  // critical wins despite lower profit
}

TEST(GreedyNext, RespectsTakenMask) {
  const std::vector<RechargeItem> items = {
      item_at({101, 100}, 500.0),
      item_at({102, 100}, 400.0),
  };
  RvPlanState rv{{100, 100}, Joule{50000.0}};
  std::vector<bool> taken = {true, false};
  const auto got = greedy_next(rv, items, taken, params());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
}

TEST(GreedyNext, RespectsBudgetIncludingReturnLeg) {
  // Item 100 m out; serving needs 5.6*(100+100) + demand = 1120 + 500.
  const std::vector<RechargeItem> items = {item_at({200, 100}, 500.0)};
  std::vector<bool> taken(1, false);
  RvPlanState poor{{100, 100}, Joule{1600.0}};
  EXPECT_FALSE(greedy_next(poor, items, taken, params()).has_value());
  RvPlanState rich{{100, 100}, Joule{1700.0}};
  EXPECT_TRUE(greedy_next(rich, items, taken, params()).has_value());
}

TEST(GreedyNext, EmptyListReturnsNothing) {
  std::vector<bool> taken;
  RvPlanState rv{{0, 0}, Joule{1e6}};
  EXPECT_FALSE(greedy_next(rv, {}, taken, params()).has_value());
}

TEST(Insertion, BuildsDestPlusDetours) {
  // Destination far right; a cheap node right on the way gets inserted.
  const std::vector<RechargeItem> items = {
      item_at({150, 100}, 5000.0),  // dest (max profit)
      item_at({120, 100}, 800.0),   // on the path, zero detour
      item_at({100, 180}, 100.0),   // way off, low demand: profit negative
  };
  RvPlanState rv{{100, 100}, Joule{50000.0}};
  std::vector<bool> taken(3, false);
  const auto seq = insertion_sequence(rv, items, taken, params());
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq[0], 1u);  // inserted before dest
  EXPECT_EQ(seq[1], 0u);  // dest stays last
  EXPECT_TRUE(taken[0]);
  EXPECT_TRUE(taken[1]);
  EXPECT_FALSE(taken[2]);
}

TEST(Insertion, NegativeProfitNotInserted) {
  const std::vector<RechargeItem> items = {
      item_at({150, 100}, 5000.0),
      item_at({100, 30}, 10.0),  // detour ~ 2*85 m -> cost ~950 J >> 10 J
  };
  RvPlanState rv{{100, 100}, Joule{50000.0}};
  std::vector<bool> taken(2, false);
  const auto seq = insertion_sequence(rv, items, taken, params());
  EXPECT_EQ(seq, (std::vector<std::size_t>{0}));
}

TEST(Insertion, EmptyWhenNothingAffordable) {
  const std::vector<RechargeItem> items = {item_at({200, 100}, 5000.0)};
  RvPlanState rv{{100, 100}, Joule{100.0}};
  std::vector<bool> taken(1, false);
  EXPECT_TRUE(insertion_sequence(rv, items, taken, params()).empty());
  EXPECT_FALSE(taken[0]);
}

TEST(Insertion, BudgetCapsSequence) {
  // Many identical items nearby; budget only fits a few.
  std::vector<RechargeItem> items;
  for (int i = 0; i < 10; ++i) {
    items.push_back(item_at({101.0 + i, 100.0}, 1000.0, false, i));
  }
  RvPlanState rv{{100, 100}, Joule{3300.0}};  // fits ~3 demands + travel
  std::vector<bool> taken(items.size(), false);
  const auto seq = insertion_sequence(rv, items, taken, params());
  EXPECT_GE(seq.size(), 1u);
  EXPECT_LE(seq.size(), 3u);
  // Verify the budget arithmetic: demands + travel + return <= budget.
  double travel = sequence_length(rv.pos, items, seq, params().base);
  double demand = 0.0;
  for (std::size_t i : seq) demand += items[i].demand.value();
  EXPECT_LE(demand + 5.6 * travel, rv.available.value() + 1e-6);
}

TEST(Insertion, ProfitNeverNegativePerStep) {
  // Total profit of an insertion sequence >= profit of serving only dest
  // (every insertion had positive marginal profit).
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<RechargeItem> items;
    const std::size_t n = 3 + rng.uniform_int(8);
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(item_at({rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)},
                              rng.uniform(100.0, 4000.0), false, i));
    }
    RvPlanState rv{{100, 100}, Joule{50000.0}};
    std::vector<bool> taken(n, false);
    const auto seq = insertion_sequence(rv, items, taken, params());
    if (seq.empty()) continue;
    const Joule seq_profit = sequence_profit(rv.pos, items, seq, JoulePerMeter{5.6});
    std::vector<bool> t2(n, false);
    const auto dest = greedy_next(rv, items, t2, params());
    ASSERT_TRUE(dest.has_value());
    const Joule dest_profit = recharge_profit(rv.pos, items[*dest], JoulePerMeter{5.6});
    EXPECT_GE(seq_profit.value(), dest_profit.value() - 1e-6) << "trial " << trial;
  }
}

TEST(Partition, GroupsCoverAllItems) {
  Xoshiro256 rng(7);
  std::vector<RechargeItem> items;
  for (int i = 0; i < 30; ++i) {
    items.push_back(item_at({rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)},
                            100.0, false, i));
  }
  const auto groups = partition_items(items, 3, rng);
  ASSERT_EQ(groups.size(), 3u);
  std::set<std::size_t> seen;
  for (const auto& g : groups) {
    for (std::size_t i : g) EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_EQ(seen.size(), items.size());
}

TEST(Partition, FewerItemsThanGroups) {
  Xoshiro256 rng(8);
  const std::vector<RechargeItem> items = {item_at({5, 5}, 100.0)};
  const auto groups = partition_items(items, 3, rng);
  ASSERT_EQ(groups.size(), 3u);
  std::size_t total = 0;
  for (const auto& g : groups) total += g.size();
  EXPECT_EQ(total, 1u);
}

TEST(Partition, EmptyItems) {
  Xoshiro256 rng(9);
  const auto groups = partition_items({}, 3, rng);
  EXPECT_EQ(groups.size(), 3u);
  for (const auto& g : groups) EXPECT_TRUE(g.empty());
}

TEST(MatchGroups, OneToOneAndDistinct) {
  const std::vector<Vec2> centroids = {{0, 0}, {100, 100}};
  const std::vector<Vec2> rvs = {{90, 90}, {10, 10}, {50, 50}};
  const auto match = match_groups_to_rvs(centroids, rvs);
  ASSERT_EQ(match.size(), 2u);
  EXPECT_EQ(match[0], 1u);  // group at origin -> RV near origin
  EXPECT_EQ(match[1], 0u);
  EXPECT_NE(match[0], match[1]);
}

// The matching is greedy, not optimal: group 1 and RV 0 are the closest
// pair (0.9 m) and are bound first, leaving group 0 to RV 1 (3.5 m), 4.4 m
// in all; the optimal assignment (0 -> RV 0, 1 -> RV 1) costs 2.6 m. A
// switch to an optimal assignment changes which RV serves which region and
// must fail here.
TEST(MatchGroups, GreedyNotOptimalAtTwoGroups) {
  const std::vector<Vec2> centroids = {{0.0, 0.0}, {2.0, 0.0}};
  const std::vector<Vec2> rvs = {{1.1, 0.0}, {3.5, 0.0}};
  const auto match = match_groups_to_rvs(centroids, rvs);
  ASSERT_EQ(match.size(), 2u);
  EXPECT_EQ(match[0], 1u);
  EXPECT_EQ(match[1], 0u);
  const double greedy = distance(centroids[0], rvs[match[0]]) +
                        distance(centroids[1], rvs[match[1]]);
  const double optimal =
      distance(centroids[0], rvs[0]) + distance(centroids[1], rvs[1]);
  EXPECT_NEAR(greedy, 4.4, 1e-12);
  EXPECT_NEAR(optimal, 2.6, 1e-12);
}

TEST(MatchGroups, MoreGroupsThanRvsRejected) {
  EXPECT_THROW(match_groups_to_rvs({{0, 0}, {1, 1}}, {{0, 0}}), InvalidArgument);
}

TEST(Combined, SequentialClaims) {
  std::vector<RechargeItem> items;
  for (int i = 0; i < 6; ++i) {
    items.push_back(item_at({10.0 + i * 30.0, 100.0}, 2000.0, false, i));
  }
  const std::vector<RvPlanState> rvs = {
      {{100, 100}, Joule{8000.0}},
      {{100, 100}, Joule{8000.0}},
  };
  const auto plans = combined_plan(rvs, items, params());
  ASSERT_EQ(plans.size(), 2u);
  std::set<std::size_t> seen;
  for (const auto& plan : plans) {
    for (std::size_t i : plan) EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_FALSE(plans[0].empty());
}

TEST(SequenceHelpers, LengthAndProfit) {
  const std::vector<RechargeItem> items = {item_at({3, 4}, 100.0),
                                           item_at({3, 8}, 50.0)};
  const std::vector<std::size_t> seq = {0, 1};
  EXPECT_DOUBLE_EQ(sequence_length({0, 0}, items, seq), 9.0);
  EXPECT_DOUBLE_EQ(sequence_length({0, 0}, items, seq, Vec2{3, 0}), 17.0);
  EXPECT_DOUBLE_EQ(sequence_profit({0, 0}, items, seq, JoulePerMeter{2.0}).value(),
                   150.0 - 18.0);
}

}  // namespace
}  // namespace wrsn
