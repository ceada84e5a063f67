// Replica driver: mean_report's cross-replica aggregation (including the
// p99-of-max latency tail) and run_replicas' determinism — the same seed
// must produce byte-identical reports no matter how the replicas are
// scheduled onto worker threads.
#include <gtest/gtest.h>

#include <vector>

#include "core/thread_pool.hpp"
#include "sim/metrics.hpp"
#include "sim/runner.hpp"

namespace {

using namespace wrsn;

SimConfig fast_config() {
  SimConfig cfg;
  cfg.num_sensors = 80;
  cfg.num_targets = 6;
  cfg.num_rvs = 2;
  cfg.sim_duration = days(2.0);
  cfg.seed = 0xabcdef12ULL;
  return cfg;
}

TEST(MeanReport, AveragesAndP99MaxLatency) {
  std::vector<MetricsReport> reports(4);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    reports[i].coverage_ratio = 0.5 + 0.1 * static_cast<double>(i);
    reports[i].max_request_latency = Second{100.0 * static_cast<double>(i + 1)};
    reports[i].sensor_deaths = i;
    reports[i].packets_offered = 100.0 * static_cast<double>(i + 1);
    reports[i].packets_delivered = 50.0 * static_cast<double>(i + 1);
  }
  const MetricsReport mean = mean_report(reports);
  EXPECT_NEAR(mean.coverage_ratio, 0.65, 1e-12);
  // Every field is averaged, so the derived ratios of the mean stay sound:
  // mean{100..400} = 250 offered, mean{50..200} = 125 delivered.
  EXPECT_DOUBLE_EQ(mean.packets_offered, 250.0);
  EXPECT_DOUBLE_EQ(mean.packets_delivered, 125.0);
  EXPECT_DOUBLE_EQ(mean.delivery_ratio(), 0.5);
  // Worst case across replicas...
  EXPECT_DOUBLE_EQ(mean.max_request_latency.value(), 400.0);
  // ...and its p99 via the nearest-rank convention on the sorted maxima
  // {100, 200, 300, 400}: index round(0.99 * 3) = 3.
  EXPECT_DOUBLE_EQ(mean.p99_max_request_latency.value(), 400.0);
  EXPECT_EQ(mean.sensor_deaths, 2u);  // round(mean{0,1,2,3}) = round(1.5)
}

TEST(MeanReport, P99MaxEqualsMaxForSingleReplica) {
  std::vector<MetricsReport> reports(1);
  reports[0].max_request_latency = Second{77.0};
  const MetricsReport mean = mean_report(reports);
  EXPECT_DOUBLE_EQ(mean.p99_max_request_latency.value(), 77.0);
}

TEST(MeanReport, P99MaxPicksNearestRank) {
  // 100 replicas with maxima 1..100: index round(0.99 * 99) = 98 -> 99.
  std::vector<MetricsReport> reports(100);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    reports[i].max_request_latency = Second{static_cast<double>(i + 1)};
  }
  const MetricsReport mean = mean_report(reports);
  EXPECT_DOUBLE_EQ(mean.p99_max_request_latency.value(), 99.0);
  EXPECT_DOUBLE_EQ(mean.max_request_latency.value(), 100.0);
}

TEST(RunReplicas, DeterministicAcrossPoolSizes) {
  const SimConfig cfg = fast_config();
  const std::size_t replicas = 3;

  const auto serial = run_replicas(cfg, replicas, nullptr);
  ASSERT_EQ(serial.size(), replicas);

  ThreadPool pool1(1);
  const auto with_one = run_replicas(cfg, replicas, &pool1);
  ThreadPool pool4(4);
  const auto with_four = run_replicas(cfg, replicas, &pool4);

  for (std::size_t i = 0; i < replicas; ++i) {
    // Byte-identical reports: the JSON dump pins every field.
    EXPECT_EQ(to_json(serial[i]), to_json(with_one[i])) << "replica " << i;
    EXPECT_EQ(to_json(serial[i]), to_json(with_four[i])) << "replica " << i;
  }
  // And so is the aggregate.
  EXPECT_EQ(to_json(mean_report(serial)), to_json(mean_report(with_four)));
}

TEST(RunReplicas, ReplicasDifferButRerunsDoNot) {
  const SimConfig cfg = fast_config();
  const auto a = run_replicas(cfg, 2, nullptr);
  const auto b = run_replicas(cfg, 2, nullptr);
  EXPECT_EQ(to_json(a[0]), to_json(b[0]));
  EXPECT_EQ(to_json(a[1]), to_json(b[1]));
  // Distinct seeds (config.seed + i) should not produce the same world.
  EXPECT_NE(to_json(a[0]), to_json(a[1]));
}

}  // namespace
