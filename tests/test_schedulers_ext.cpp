// Tests for the library-extension schedulers (nearest-first, FCFS) and the
// optional 2-opt tour polishing.
#include <gtest/gtest.h>

#include "sched/planner.hpp"
#include "sim/runner.hpp"
#include "sim/world.hpp"

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

TEST(NearestNext, PicksClosestRegardlessOfDemand) {
  const std::vector<RechargeItem> items = {
      item_at({190, 100}, 5000.0),  // far, rich
      item_at({105, 100}, 100.0),   // near, poor
  };
  RvPlanState rv{{100, 100}, Joule{50000.0}};
  std::vector<bool> taken(2, false);
  const auto got = nearest_next(rv, items, taken, params());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
}

TEST(NearestNext, CriticalStillDominates) {
  const std::vector<RechargeItem> items = {
      item_at({105, 100}, 100.0, false),
      item_at({190, 100}, 100.0, true),
  };
  RvPlanState rv{{100, 100}, Joule{50000.0}};
  std::vector<bool> taken(2, false);
  const auto got = nearest_next(rv, items, taken, params());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
}

TEST(NearestNext, RespectsBudgetAndTaken) {
  const std::vector<RechargeItem> items = {
      item_at({105, 100}, 100.0),
      item_at({110, 100}, 100.0),
  };
  RvPlanState rv{{100, 100}, Joule{250.0}};  // item1 costs 5.6*20+100 = 212
  std::vector<bool> taken = {true, false};
  const auto got = nearest_next(rv, items, taken, params());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
  RvPlanState broke{{100, 100}, Joule{50.0}};
  EXPECT_FALSE(nearest_next(broke, items, taken, params()).has_value());
}

// Twenty-one items: near critical items the RV cannot afford, a taken one,
// two affordable ones, and non-critical items nearer than all of them, two
// at exactly the same distance.
TEST(NearestNext, ManyItemsMixingCriticalAndUnaffordable) {
  std::vector<RechargeItem> items;
  for (int i = 0; i < 10; ++i) {  // non-critical, 3..12 m away
    items.push_back(item_at({103.0 + i, 100}, 100.0));
  }
  for (int i = 0; i < 5; ++i) {  // critical but unaffordable, 2..6 m away
    items.push_back(item_at({100, 102.0 + i}, 1e4, true));
  }
  items.push_back(item_at({100, 140}, 100.0, true));  // 15: 40 m, 548 J
  items.push_back(item_at({130, 100}, 100.0, true));  // 16: 30 m, taken
  items.push_back(item_at({100, 40}, 100.0, true));   // 17: 60 m, 772 J
  items.push_back(item_at({65, 100}, 4700.0, true));  // 18: 35 m, 5092 J
  items.push_back(item_at({101, 100}, 100.0));        // 19: 1 m
  items.push_back(item_at({99, 100}, 100.0));         // 20: 1 m, tie with 19
  // At the base, serving an item costs 2 * 5.6 J/m * distance + demand.
  const RvPlanState rv{{100, 100}, Joule{5000.0}};
  std::vector<bool> taken(items.size(), false);
  taken[16] = true;
  EXPECT_EQ(nearest_next(rv, items, taken, params()), std::optional<std::size_t>{15});
  taken[15] = true;
  EXPECT_EQ(nearest_next(rv, items, taken, params()), std::optional<std::size_t>{17});
  taken[17] = true;
  // No affordable critical item left: the nearest non-critical one, lowest
  // index on the tie.
  EXPECT_EQ(nearest_next(rv, items, taken, params()), std::optional<std::size_t>{19});
  taken[19] = true;
  EXPECT_EQ(nearest_next(rv, items, taken, params()), std::optional<std::size_t>{20});
}

TEST(EdfNext, PicksLowestFractionRegardlessOfGeometry) {
  std::vector<RechargeItem> items = {
      item_at({105, 100}, 100.0),  // near
      item_at({190, 100}, 100.0),  // far but more urgent
  };
  items[0].min_fraction = 0.45;
  items[1].min_fraction = 0.05;
  RvPlanState rv{{100, 100}, Joule{50000.0}};
  std::vector<bool> taken(2, false);
  const auto got = edf_next(rv, items, taken, params());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
}

TEST(EdfNext, RespectsBudget) {
  std::vector<RechargeItem> items = {item_at({190, 100}, 100.0)};
  items[0].min_fraction = 0.01;
  RvPlanState broke{{100, 100}, Joule{50.0}};
  std::vector<bool> taken(1, false);
  EXPECT_FALSE(edf_next(broke, items, taken, params()).has_value());
}

SimConfig ext_config(const std::string& sched) {
  SimConfig cfg;
  cfg.num_sensors = 150;
  cfg.num_targets = 6;
  cfg.num_rvs = 2;
  cfg.field_side = meters(110.0);
  cfg.sim_duration = days(8.0);
  cfg.radio.listen_duty_cycle = 0.12;
  cfg.scheduler = sched;
  cfg.seed = 777;
  return cfg;
}

TEST(ExtensionSchedulers, NearestFirstRunsAndServes) {
  const auto r = run_replica(ext_config("nearest-first"));
  EXPECT_GT(r.sensors_recharged, 10u);
  EXPECT_GT(r.coverage_ratio, 0.8);
}

TEST(ExtensionSchedulers, FcfsRunsAndServes) {
  const auto r = run_replica(ext_config("fcfs"));
  EXPECT_GT(r.sensors_recharged, 10u);
  EXPECT_GT(r.coverage_ratio, 0.8);
}

TEST(ExtensionSchedulers, EdfRunsAndServes) {
  const auto r = run_replica(ext_config("edf"));
  EXPECT_GT(r.sensors_recharged, 10u);
  EXPECT_GT(r.coverage_ratio, 0.8);
  // EDF chases the most-depleted nodes, so fairness across served sensors
  // stays high.
  EXPECT_GT(r.recharge_fairness_jain, 0.5);
}

TEST(ExtensionSchedulers, FcfsHasBoundedLatencySpread) {
  // FCFS trades distance for fairness: it must still clear the queue.
  const auto fcfs = run_replica(ext_config("fcfs"));
  const auto nearest = run_replica(ext_config("nearest-first"));
  EXPECT_GT(fcfs.rv_travel_distance.value(), nearest.rv_travel_distance.value());
}

TEST(TwoOptTours, NeverIncreasesTravelMaterially) {
  SimConfig off = ext_config("combined");
  SimConfig on = ext_config("combined");
  on.two_opt_tours = true;
  const auto r_off = run_replica(off);
  const auto r_on = run_replica(on);
  // The polished plans can reshuffle downstream decisions, so require only
  // "no material regression" plus identical service accounting sanity.
  EXPECT_LT(r_on.rv_travel_distance.value(),
            r_off.rv_travel_distance.value() * 1.05);
  EXPECT_GT(r_on.sensors_recharged, 10u);
}

TEST(ExtensionSchedulers, AllRegisteredSchedulersDeterministic) {
  // Driven off the registry, so a newly registered policy is covered
  // automatically.
  for (const std::string& sched : scheduler_names()) {
    SimConfig cfg = ext_config(sched);
    cfg.sim_duration = days(4.0);
    World a(cfg), b(cfg);
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_DOUBLE_EQ(ra.rv_travel_distance.value(), rb.rv_travel_distance.value())
        << sched;
  }
}

}  // namespace
}  // namespace wrsn
