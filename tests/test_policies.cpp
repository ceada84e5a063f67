// Unit tests for the scheduler-policy layer: every policy is driven through
// a hand-built DispatchContext (no World, no event loop), so the decision
// logic is pinned down against synthetic edge cases — empty item lists (all
// requests claimed), over-budget batches and the happy paths.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "sched/policy.hpp"

namespace wrsn {
namespace {

RechargeItem item_at(Vec2 pos, double demand, std::vector<SensorId> sensors,
                     bool critical = false) {
  RechargeItem it;
  it.pos = pos;
  it.demand = Joule{demand};
  it.critical = critical;
  it.min_fraction = 0.3;
  it.sensors = std::move(sensors);
  return it;
}

// A self-contained planning round: the vectors a DispatchContext references,
// bundled so tests can mutate them before building the facade.
struct Round {
  std::vector<RechargeItem> items;
  RvPlanState rv{{100.0, 100.0}, Joule{50000.0}};
  PlannerParams params{JoulePerMeter{5.6}, Vec2{100.0, 100.0}};
  std::size_t rv_id = 0;
  std::vector<Vec2> fleet{{100.0, 100.0}};
  std::size_t num_groups = 1;
  Xoshiro256 rng{42};
  std::vector<SensorId> arrival;
  std::map<SensorId, SensorView> sensors;

  // Registers a single-sensor item and its base-station view.
  void add_single(SensorId s, Vec2 pos, double demand, bool critical = false) {
    items.push_back(item_at(pos, demand, {s}, critical));
    sensors[s] = SensorView{pos, Joule{demand}, critical};
    arrival.push_back(s);
  }

  [[nodiscard]] DispatchContext ctx() {
    return DispatchContext(items, rv, params, rv_id, fleet, num_groups, rng,
                           arrival, [this](SensorId s) {
                             const auto it = sensors.find(s);
                             WRSN_REQUIRE(it != sensors.end(),
                                          "test sensor view missing");
                             return it->second;
                           });
  }
};

std::unique_ptr<SchedulerPolicy> make(const std::string& name) {
  return SchedulerRegistry::instance().create(name);
}

// --- registry ------------------------------------------------------------

TEST(SchedulerRegistry, BuiltinsRegisteredInOrder) {
  const std::vector<std::string> expected = {
      "greedy", "partition", "combined", "nearest-first", "fcfs", "edf"};
  EXPECT_EQ(scheduler_names(), expected);
  for (const std::string& name : expected) {
    EXPECT_TRUE(SchedulerRegistry::instance().contains(name));
    EXPECT_FALSE(SchedulerRegistry::instance().summary(name).empty());
    EXPECT_NE(make(name), nullptr);
  }
}

TEST(SchedulerRegistry, UnknownNameThrowsListingValidNames) {
  try {
    (void)make("quantum-annealer");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("quantum-annealer"), std::string::npos) << msg;
    for (const std::string& name : scheduler_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

TEST(SchedulerRegistry, RejectsDuplicatesAndBadEntries) {
  SchedulerRegistry& registry = SchedulerRegistry::instance();
  const auto factory = []() -> std::unique_ptr<SchedulerPolicy> {
    return nullptr;
  };
  EXPECT_THROW(registry.add("greedy", "dup", factory), InvalidArgument);
  EXPECT_THROW(registry.add("", "anonymous", factory), InvalidArgument);
  EXPECT_THROW(registry.add("null-factory", "no factory", nullptr),
               InvalidArgument);
  EXPECT_FALSE(registry.contains("null-factory"));
}

// --- cross-policy edge cases --------------------------------------------

// All requests claimed (or none outstanding): the World filters claimed
// sensors before aggregation, so the policy sees an empty item list. Every
// policy must answer with a no-plan decision, never a plan over nothing.
TEST(Policies, EmptyItemListNeverPlans) {
  for (const std::string& name : scheduler_names()) {
    Round round;
    const DispatchDecision d = make(name)->decide(round.ctx());
    EXPECT_NE(d.kind, DispatchDecision::Kind::kPlan) << name;
    EXPECT_TRUE(d.sequence.empty()) << name;
  }
}

// A single far-away batch whose tour cost exceeds the budget: no policy may
// plan it; the shared fallback resolves to self-charge (head home, refill).
TEST(Policies, OverBudgetBatchFallsBackToSelfCharge) {
  for (const std::string& name : scheduler_names()) {
    Round round;
    round.rv.available = Joule{100.0};  // 2 x 90 m legs already cost 1008 J
    round.add_single(7, {190.0, 100.0}, 500.0);
    const DispatchDecision d = make(name)->decide(round.ctx());
    EXPECT_EQ(d.kind, DispatchDecision::Kind::kSelfCharge) << name;
  }
}

// One affordable single-sensor batch: every policy should serve it.
TEST(Policies, SingleAffordableItemIsPlanned) {
  for (const std::string& name : scheduler_names()) {
    Round round;
    round.add_single(3, {110.0, 100.0}, 200.0);
    const DispatchDecision d = make(name)->decide(round.ctx());
    ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan) << name;
    ASSERT_EQ(d.sequence.size(), 1u) << name;
    const RechargeItem& chosen = d.items[d.sequence[0]];
    ASSERT_EQ(chosen.sensors.size(), 1u) << name;
    EXPECT_EQ(chosen.sensors[0], 3u) << name;
  }
}

// --- singles expansion ---------------------------------------------------

TEST(DispatchContext, SinglesExpandBatchesPerSensorView) {
  Round round;
  round.items.push_back(item_at({50.0, 50.0}, 900.0, {1, 2}, true));
  round.sensors[1] = SensorView{{49.0, 50.0}, Joule{400.0}, false};
  round.sensors[2] = SensorView{{51.0, 50.0}, Joule{500.0}, true};
  const DispatchContext ctx = round.ctx();

  const auto fresh =
      ctx.singles(round.items, DispatchContext::SinglesCritical::kFresh);
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[0].sensors, std::vector<SensorId>{1});
  EXPECT_DOUBLE_EQ(fresh[0].demand.value(), 400.0);
  EXPECT_FALSE(fresh[0].critical);  // re-evaluated per sensor
  EXPECT_TRUE(fresh[1].critical);

  const auto inherited =
      ctx.singles(round.items, DispatchContext::SinglesCritical::kInherit);
  ASSERT_EQ(inherited.size(), 2u);
  EXPECT_TRUE(inherited[0].critical);  // batch flag copied
  EXPECT_TRUE(inherited[1].critical);
}

// --- FCFS ----------------------------------------------------------------

// Regression: an oversized oldest batch used to make FCFS hold the RV for
// the whole round. It must skip to the next-oldest affordable batch.
TEST(FcfsPolicy, SkipsUnaffordableOldestBatch) {
  Round round;
  round.rv.available = Joule{3000.0};
  round.add_single(1, {150.0, 100.0}, 50000.0);  // oldest, unaffordable
  round.add_single(2, {105.0, 100.0}, 100.0);    // next-oldest, affordable
  const DispatchDecision d = make("fcfs")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  ASSERT_EQ(d.sequence.size(), 1u);
  EXPECT_EQ(d.items[d.sequence[0]].sensors, std::vector<SensorId>{2});
}

TEST(FcfsPolicy, ServesOldestAffordableBatchFirst) {
  Round round;
  // Arrival order 5 then 4; both affordable; 4 is nearer. FCFS must still
  // pick 5's batch.
  round.add_single(5, {140.0, 100.0}, 100.0);
  round.add_single(4, {105.0, 100.0}, 100.0);
  const DispatchDecision d = make("fcfs")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  EXPECT_EQ(d.items[d.sequence[0]].sensors, std::vector<SensorId>{5});
}

TEST(FcfsPolicy, WeighsEachBatchOnce) {
  // Two sensors of one unaffordable batch ahead of an affordable single:
  // the batch is weighed at the first member and skipped at the second.
  Round round;
  round.rv.available = Joule{3000.0};
  round.items.push_back(item_at({150.0, 100.0}, 50000.0, {1, 2}));
  round.sensors[1] = SensorView{{149.0, 100.0}, Joule{25000.0}, false};
  round.sensors[2] = SensorView{{151.0, 100.0}, Joule{25000.0}, false};
  round.add_single(3, {105.0, 100.0}, 100.0);
  round.arrival = {1, 2, 3};  // both batch members ahead of the single
  const DispatchDecision d = make("fcfs")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  EXPECT_EQ(d.items[d.sequence[0]].sensors, std::vector<SensorId>{3});
}

// --- nearest-first / edf / greedy selection ------------------------------

TEST(NearestFirstPolicy, PicksClosestRegardlessOfDemand) {
  Round round;
  round.add_single(1, {190.0, 100.0}, 5000.0);  // far, rich
  round.add_single(2, {105.0, 100.0}, 100.0);   // near, poor
  const DispatchDecision d = make("nearest-first")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  EXPECT_EQ(d.items[d.sequence[0]].sensors, std::vector<SensorId>{2});
}

TEST(EdfPolicy, PicksLowestBatteryFraction) {
  Round round;
  round.add_single(1, {105.0, 100.0}, 100.0);
  round.add_single(2, {150.0, 100.0}, 100.0);
  round.items[0].min_fraction = 0.4;
  round.items[1].min_fraction = 0.05;  // nearly dead: earliest deadline
  const DispatchDecision d = make("edf")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  EXPECT_EQ(d.items[d.sequence[0]].sensors, std::vector<SensorId>{2});
}

TEST(GreedyPolicy, PlansOverExpandedSingles) {
  // A two-sensor batch: greedy ignores the aggregation and plans over
  // per-sensor singles (one destination per step, Algorithm 2); the
  // decision carries only the one single it visits.
  Round round;
  round.items.push_back(item_at({110.0, 100.0}, 900.0, {1, 2}));
  round.sensors[1] = SensorView{{109.0, 100.0}, Joule{400.0}, false};
  round.sensors[2] = SensorView{{111.0, 100.0}, Joule{500.0}, false};
  round.arrival = {1, 2};
  const DispatchDecision d = make("greedy")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  ASSERT_EQ(d.sequence.size(), 1u);
  EXPECT_EQ(d.items.size(), 1u);  // only the visited stop
  EXPECT_EQ(d.items[d.sequence[0]].sensors.size(), 1u);
}

// --- partition -----------------------------------------------------------

TEST(PartitionPolicy, NoGroupForThisRvReturnsToBase) {
  // Two groups, two RVs; RV 1 sits on top of the only populated cluster of
  // items, so group matching assigns it there and RV 0 gets nothing.
  Round round;
  round.num_groups = 2;
  round.fleet = {{20.0, 20.0}, {180.0, 180.0}};
  round.rv_id = 0;
  round.rv.pos = {20.0, 20.0};
  round.add_single(1, {180.0, 180.0}, 100.0);
  const DispatchDecision d = make("partition")->decide(round.ctx());
  EXPECT_EQ(d.kind, DispatchDecision::Kind::kReturnToBase);
}

TEST(PartitionPolicy, PlansWithinItsOwnGroup) {
  Round round;
  round.num_groups = 2;
  round.fleet = {{20.0, 20.0}, {180.0, 180.0}};
  round.rv_id = 1;
  round.rv.pos = {180.0, 180.0};
  round.add_single(1, {25.0, 20.0}, 100.0);
  round.add_single(2, {178.0, 180.0}, 100.0);
  const DispatchDecision d = make("partition")->decide(round.ctx());
  ASSERT_EQ(d.kind, DispatchDecision::Kind::kPlan);
  for (const std::size_t idx : d.sequence) {
    EXPECT_EQ(d.items[idx].sensors, std::vector<SensorId>{2})
        << "RV 1 must stay in its own region";
  }
}

// Memo oracle: one long-lived partition policy (which keeps its grouping
// across calls) must decide exactly like a fresh policy per call, the
// behaviour of a policy without memory, over randomized context sequences.
// Each step either keeps the item and fleet positions (the memo's reuse
// case, with a different rv_id or different demands), redraws the items
// with fewer, as many or more items than groups (K-means draws), moves an
// RV, changes the group count, or moves one fleet or item position by one
// ulp. Positions sit on a 10 m lattice, so distance ties are common and a
// one-ulp move decides them.
TEST(PartitionPolicy, MemoDecidesLikeAFreshPolicyPerCall) {
  std::size_t below = 0, equal = 0, above = 0;
  std::map<DispatchDecision::Kind, std::size_t> kinds;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Xoshiro256 gen(seed);
    const std::size_t fleet_size = 1 + gen.uniform_int(5);  // 1..5 RVs
    Round kept, fresh;  // identical contexts, one RNG stream each
    kept.rng = Xoshiro256(seed * 977);
    fresh.rng = Xoshiro256(seed * 977);
    const std::unique_ptr<SchedulerPolicy> policy = make("partition");

    auto spot = [&gen] {
      return Vec2{10.0 * static_cast<double>(gen.uniform_int(21)),
                  10.0 * static_cast<double>(gen.uniform_int(21))};
    };
    std::vector<Vec2> fleet(fleet_size);
    for (Vec2& p : fleet) p = spot();
    std::size_t num_groups = fleet_size;
    std::vector<Vec2> item_pos;
    std::vector<double> demand;
    auto redraw_items = [&] {
      // Up to twice the group count, so all three regimes occur.
      const std::size_t n = gen.uniform_int(2 * num_groups + 2);
      item_pos.assign(n, Vec2{});
      for (Vec2& p : item_pos) p = spot();
      demand.assign(n, 0.0);
      for (double& d : demand) d = gen.uniform(50.0, 3000.0);
    };
    redraw_items();

    for (int step = 0; step < 150; ++step) {
      switch (gen.uniform_int(7)) {
        case 0:  // same positions, another RV asks
          break;
        case 1:  // same positions, demands drift
          for (double& d : demand) d = gen.uniform(50.0, 3000.0);
          break;
        case 2:
          redraw_items();
          break;
        case 3: {  // one fleet position moves by one ulp
          Vec2& p = fleet[gen.uniform_int(fleet.size())];
          p.x = std::nextafter(p.x, 1e9);
          break;
        }
        case 4:  // one item position moves by one ulp
          if (!item_pos.empty()) {
            Vec2& p = item_pos[gen.uniform_int(item_pos.size())];
            p.y = std::nextafter(p.y, -1e9);
          }
          break;
        case 5:  // one RV drives elsewhere
          fleet[gen.uniform_int(fleet.size())] = spot();
          break;
        default:  // the group count changes
          num_groups = 1 + gen.uniform_int(fleet_size);
          break;
      }
      const std::size_t rv_id = gen.uniform_int(fleet_size);
      // Budgets from generous to unaffordable reach both the plan and the
      // self-charge outcome.
      const double budget = gen.uniform(0.0, 20000.0);
      for (Round* round : {&kept, &fresh}) {
        round->items.clear();
        round->sensors.clear();
        round->arrival.clear();
        for (std::size_t i = 0; i < item_pos.size(); ++i) {
          round->add_single(i, item_pos[i], demand[i], i % 4 == 0);
        }
        round->fleet = fleet;
        round->num_groups = num_groups;
        round->rv_id = rv_id;
        round->rv = {fleet[rv_id], Joule{budget}};
      }
      if (item_pos.size() < num_groups) ++below;
      if (item_pos.size() == num_groups) ++equal;
      if (item_pos.size() > num_groups) ++above;

      const DispatchDecision got = policy->decide(kept.ctx());
      const DispatchDecision want = make("partition")->decide(fresh.ctx());
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      ASSERT_EQ(got.kind, want.kind) << where;
      ASSERT_EQ(got.sequence, want.sequence) << where;
      ASSERT_TRUE(got.items == want.items) << where;
      ASSERT_EQ(kept.rng.state(), fresh.rng.state()) << where;
      ++kinds[got.kind];
    }
  }
  EXPECT_GT(below, 0u);
  EXPECT_GT(equal, 0u);
  EXPECT_GT(above, 0u);
  EXPECT_GT(kinds[DispatchDecision::Kind::kPlan], 0u);
  EXPECT_GT(kinds[DispatchDecision::Kind::kReturnToBase], 0u);
  EXPECT_GT(kinds[DispatchDecision::Kind::kSelfCharge], 0u);
}

// A one-ulp move that decides a distance tie must reach the memo's key: two
// RVs 10 m either side of the only item tie for its group, which goes to
// the lower index (RV 0); moving RV 1, or the item, one ulp toward the
// other side hands the group to RV 1.
TEST(PartitionPolicy, MemoSeesOneUlpMoves) {
  const std::unique_ptr<SchedulerPolicy> kept = make("partition");
  Round round;
  round.num_groups = 2;
  round.fleet = {{90.0, 100.0}, {110.0, 100.0}};
  round.rv_id = 1;
  round.rv.pos = round.fleet[1];
  round.add_single(1, {100.0, 100.0}, 500.0);
  ASSERT_EQ(kept->decide(round.ctx()).kind,
            DispatchDecision::Kind::kReturnToBase);

  round.fleet[1].x = std::nextafter(110.0, 0.0);
  round.rv.pos = round.fleet[1];
  EXPECT_EQ(make("partition")->decide(round.ctx()).kind,
            DispatchDecision::Kind::kPlan);
  EXPECT_EQ(kept->decide(round.ctx()).kind, DispatchDecision::Kind::kPlan);

  round.fleet[1].x = 110.0;
  round.rv.pos = round.fleet[1];
  ASSERT_EQ(kept->decide(round.ctx()).kind,
            DispatchDecision::Kind::kReturnToBase);
  round.items[0].pos.x = std::nextafter(100.0, 200.0);
  EXPECT_EQ(make("partition")->decide(round.ctx()).kind,
            DispatchDecision::Kind::kPlan);
  EXPECT_EQ(kept->decide(round.ctx()).kind, DispatchDecision::Kind::kPlan);
}

}  // namespace
}  // namespace wrsn
