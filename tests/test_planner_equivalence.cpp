// Property tests: the grid-pruned planners (sched/plan_context.hpp) and the
// Hamerly-pruned k-means (sched/kmeans.cpp) must be bit-identical to the
// linear-scan reference implementations on every input — same picks, same
// sequences, same clusterings. Instances are sized past the small-n
// reference dispatch thresholds so the pruned code paths are what actually
// runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rng.hpp"
#include "sched/kmeans.hpp"
#include "sched/plan_context.hpp"
#include "sched/planner.hpp"

namespace {

using namespace wrsn;

struct Instance {
  std::vector<RechargeItem> items;
  PlannerParams params{JoulePerMeter{5.6}, Vec2{100.0, 100.0}};
  RvPlanState rv{{0.0, 0.0}, Joule{0.0}};
  std::vector<bool> taken;
};

// A random planning instance. Sizes span the small-n dispatch thresholds
// (16 for PlanContext, 64 for k-means); fields vary from dense to sparse;
// some draws are all-critical or zero-budget.
Instance random_instance(Xoshiro256& rng) {
  Instance inst;
  const std::size_t n = 5 + rng.uniform_int(400);
  const double side = rng.uniform(20.0, 1200.0);
  const bool all_critical = rng.uniform() < 0.05;
  const bool zero_budget = rng.uniform() < 0.05;
  inst.items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RechargeItem it;
    it.pos = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
    it.demand = Joule{rng.uniform(100.0, 4000.0)};
    it.critical = all_critical || rng.uniform() < 0.15;
    it.min_fraction = rng.uniform(0.01, 0.99);
    it.sensors = {i};
    inst.items.push_back(std::move(it));
  }
  inst.params.base = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  inst.params.em = JoulePerMeter{rng.uniform(1.0, 10.0)};
  inst.rv.pos = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  inst.rv.available =
      zero_budget ? Joule{0.0} : Joule{rng.uniform(1e3, 5e6)};
  inst.taken.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.2) inst.taken[i] = true;
  }
  return inst;
}

constexpr int kTrials = 200;

TEST(PlannerEquivalence, GreedyNextMatchesReference) {
  Xoshiro256 rng(1001);
  for (int t = 0; t < kTrials; ++t) {
    const Instance inst = random_instance(rng);
    const PlanContext ctx(inst.items, inst.params);
    const auto ref = greedy_next(inst.rv, inst.items, inst.taken, inst.params);
    const auto opt = ctx.greedy_next(inst.rv, inst.taken);
    ASSERT_EQ(ref.has_value(), opt.has_value()) << "trial " << t;
    if (ref) {
      ASSERT_EQ(*ref, *opt) << "trial " << t;
    }
  }
}

TEST(PlannerEquivalence, InsertionSequenceMatchesReference) {
  Xoshiro256 rng(3003);
  for (int t = 0; t < kTrials; ++t) {
    const Instance inst = random_instance(rng);
    const PlanContext ctx(inst.items, inst.params);
    std::vector<bool> taken_ref = inst.taken;
    std::vector<bool> taken_opt = inst.taken;
    const auto ref =
        insertion_sequence(inst.rv, inst.items, taken_ref, inst.params);
    const auto opt = ctx.insertion_sequence(inst.rv, taken_opt);
    ASSERT_EQ(ref, opt) << "trial " << t;
    ASSERT_EQ(taken_ref, taken_opt) << "trial " << t;
  }
}

TEST(PlannerEquivalence, KMeansMatchesReference) {
  Xoshiro256 rng(7007);
  for (int t = 0; t < kTrials; ++t) {
    const Instance inst = random_instance(rng);
    std::vector<Vec2> points;
    points.reserve(inst.items.size());
    for (const RechargeItem& it : inst.items) points.push_back(it.pos);
    const std::size_t k = 1 + rng.uniform_int(12);
    // Identically seeded RNG copies: both paths must consume the stream the
    // same way (k-means++ is shared; Lloyd draws nothing).
    const std::uint64_t seed = rng.next();
    Xoshiro256 r_ref(seed);
    Xoshiro256 r_opt(seed);
    const auto ref = kmeans_reference(points, k, r_ref);
    const auto opt = kmeans(points, k, r_opt);
    ASSERT_EQ(ref.assignment, opt.assignment) << "trial " << t;
    ASSERT_EQ(ref.centroids.size(), opt.centroids.size()) << "trial " << t;
    for (std::size_t c = 0; c < ref.centroids.size(); ++c) {
      ASSERT_EQ(ref.centroids[c].x, opt.centroids[c].x) << "trial " << t;
      ASSERT_EQ(ref.centroids[c].y, opt.centroids[c].y) << "trial " << t;
    }
    ASSERT_EQ(ref.wcss, opt.wcss) << "trial " << t;
    ASSERT_EQ(ref.iterations, opt.iterations) << "trial " << t;
    ASSERT_EQ(ref.converged, opt.converged) << "trial " << t;
  }
}

TEST(PlannerEquivalence, AllCriticalAndZeroBudgetEdgeCases) {
  // Deterministic corners on top of the random draws above.
  Xoshiro256 rng(8008);
  for (const bool critical : {false, true}) {
    for (const double budget : {0.0, 1e4, 1e9}) {
      std::vector<RechargeItem> items;
      const std::size_t n = 200;
      for (std::size_t i = 0; i < n; ++i) {
        RechargeItem it;
        it.pos = {rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
        it.demand = Joule{rng.uniform(100.0, 4000.0)};
        it.critical = critical;
        it.sensors = {i};
        items.push_back(std::move(it));
      }
      const PlannerParams params{JoulePerMeter{5.6}, Vec2{150.0, 150.0}};
      const RvPlanState rv{{10.0, 290.0}, Joule{budget}};
      const std::vector<bool> untaken(n, false);
      const PlanContext ctx(items, params);
      const auto g_ref = greedy_next(rv, items, untaken, params);
      const auto g_opt = ctx.greedy_next(rv, untaken);
      ASSERT_EQ(g_ref, g_opt);
      std::vector<bool> taken_ref = untaken;
      std::vector<bool> taken_opt = untaken;
      ASSERT_EQ(insertion_sequence(rv, items, taken_ref, params),
                ctx.insertion_sequence(rv, taken_opt));
      ASSERT_EQ(taken_ref, taken_opt);
    }
  }
}

}  // namespace
