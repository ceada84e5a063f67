// google-benchmark microbenchmarks for the scheduling algorithms, matching
// the complexity analysis of Section IV-E: greedy O(n^2) over a whole list,
// insertion O(n)..O(n^3) per sequence, K-means O(nmk), balanced clustering
// O(MN + |A| M log M), plus the DES end-to-end throughput.
#include <benchmark/benchmark.h>

#include "activity/clustering.hpp"
#include "core/rng.hpp"
#include "net/deployment.hpp"
#include "sched/planner.hpp"
#include "sched/tsp.hpp"
#include "sim/world.hpp"

namespace {

using namespace wrsn;

std::vector<RechargeItem> random_items(std::size_t n, Xoshiro256& rng) {
  std::vector<RechargeItem> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RechargeItem it;
    it.pos = {rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
    it.demand = Joule{rng.uniform(500.0, 3500.0)};
    it.sensors = {i};
    items.push_back(std::move(it));
  }
  return items;
}

void BM_GreedyNext(benchmark::State& state) {
  Xoshiro256 rng(1);
  const auto items = random_items(static_cast<std::size_t>(state.range(0)), rng);
  const std::vector<bool> taken(items.size(), false);
  const RvPlanState rv{{100, 100}, Joule{1e9}};
  const PlannerParams params{JoulePerMeter{5.6}, Vec2{100, 100}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_next(rv, items, taken, params));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GreedyNext)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_InsertionSequence(benchmark::State& state) {
  Xoshiro256 rng(2);
  const auto items = random_items(static_cast<std::size_t>(state.range(0)), rng);
  const RvPlanState rv{{100, 100}, Joule{50000.0}};
  const PlannerParams params{JoulePerMeter{5.6}, Vec2{100, 100}};
  for (auto _ : state) {
    std::vector<bool> taken(items.size(), false);
    benchmark::DoNotOptimize(insertion_sequence(rv, items, taken, params));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InsertionSequence)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_KMeansPartition(benchmark::State& state) {
  Xoshiro256 rng(3);
  const auto items = random_items(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    Xoshiro256 r2(7);
    benchmark::DoNotOptimize(partition_items(items, 3, r2));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_KMeansPartition)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_BalancedClustering(benchmark::State& state) {
  Xoshiro256 rng(4);
  const auto sensors = deploy_uniform(static_cast<std::size_t>(state.range(0)),
                                      200.0, rng);
  const auto targets = deploy_uniform(15, 200.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(balanced_clustering(sensors, targets, 8.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BalancedClustering)->RangeMultiplier(2)->Range(125, 2000)->Complexity();

void BM_NearestNeighborTour(benchmark::State& state) {
  Xoshiro256 rng(5);
  const auto pts = deploy_uniform(static_cast<std::size_t>(state.range(0)), 16.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nearest_neighbor_tour({8, 8}, pts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NearestNeighborTour)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void BM_SimulatedDay(benchmark::State& state) {
  // End-to-end DES throughput: one simulated day at Table II scale.
  for (auto _ : state) {
    SimConfig cfg;
    cfg.sim_duration = days(1.0);
    World world(cfg);
    benchmark::DoNotOptimize(world.run());
  }
}
BENCHMARK(BM_SimulatedDay)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
