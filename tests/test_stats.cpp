#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "net/network.hpp"
#include "net/stats.hpp"

namespace wrsn {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sem(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum sq dev = 32 -> 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MatchesTwoPassOnRandomData) {
  Xoshiro256 rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.normal(10.0, 2.0));
  const RunningStats s = summarize(xs);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST(RunningStats, NumericallyStableAtLargeOffset) {
  // Classic catastrophic-cancellation case for naive sum-of-squares.
  RunningStats s = summarize({1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0});
  EXPECT_NEAR(s.mean(), 1e9 + 10.0, 1e-3);
  EXPECT_NEAR(s.variance(), 30.0, 1e-6);
}

TEST(RunningStats, Ci95Behaviour) {
  // Two identical values: zero CI. Two different: wide t-based CI.
  RunningStats a = summarize({3.0, 3.0});
  EXPECT_DOUBLE_EQ(a.ci95_halfwidth(), 0.0);
  RunningStats b = summarize({0.0, 10.0});
  // dof=1 -> t=12.706; sem = stddev/sqrt(2) = (10/sqrt2)/sqrt2 = 5.
  EXPECT_NEAR(b.ci95_halfwidth(), 12.706 * 5.0, 1e-9);
  // CI shrinks with more samples of the same spread.
  RunningStats c = summarize({0, 10, 0, 10, 0, 10, 0, 10});
  EXPECT_LT(c.ci95_halfwidth(), b.ci95_halfwidth());
}

TEST(RunningStats, CoverageOfTrueMean) {
  // ~95% of CIs built from normal samples must contain the true mean.
  Xoshiro256 rng(17);
  int contained = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    RunningStats s;
    for (int i = 0; i < 10; ++i) s.add(rng.normal(50.0, 5.0));
    if (std::abs(s.mean() - 50.0) <= s.ci95_halfwidth()) ++contained;
  }
  EXPECT_NEAR(static_cast<double>(contained) / trials, 0.95, 0.04);
}

// --- network stats ------------------------------------------------------

Network make_network(const SimConfig& cfg, std::uint64_t seed) {
  RngStreams streams(seed);
  Xoshiro256 deploy = streams.stream("deployment");
  Xoshiro256 targets = streams.stream("target-placement");
  Network net(cfg, deploy, targets);
  net.rebuild_routing();
  return net;
}

TEST(NetworkStats, TableIIDeployment) {
  SimConfig cfg;  // paper defaults
  Network net = make_network(cfg, 5);
  const NetworkStats stats = compute_stats(net);
  EXPECT_EQ(stats.num_sensors, 500u);
  EXPECT_GT(stats.avg_degree, 3.0);   // ~5.6 expected at d_c=12
  EXPECT_LT(stats.avg_degree, 9.0);
  EXPECT_GT(stats.reachable_sensors, 450u);
  EXPECT_GT(stats.avg_hops_to_base, 5.0);  // field radius ~100+ m, hops <= 12 m
  EXPECT_GT(stats.avg_coverage_degree, 1.5);
  EXPECT_LT(stats.avg_coverage_degree, 4.0);
  EXPECT_GE(stats.connected_components, 1u);
}

TEST(NetworkStats, RequiresABuiltRoutingForest) {
  SimConfig cfg;
  cfg.num_sensors = 60;
  cfg.field_side = meters(60.0);
  RngStreams streams(4);
  Xoshiro256 deploy = streams.stream("deployment");
  Xoshiro256 targets = streams.stream("target-placement");
  Network net(cfg, deploy, targets);
  EXPECT_THROW((void)compute_stats(net), InvalidArgument);
  net.rebuild_routing();
  EXPECT_EQ(compute_stats(net).num_sensors, 60u);
}

TEST(NetworkStats, DegreeEdgeConsistency) {
  SimConfig cfg;
  cfg.num_sensors = 120;
  cfg.field_side = meters(90.0);
  Network net = make_network(cfg, 9);
  const NetworkStats stats = compute_stats(net);
  // Handshake over all nodes (sensors + BS); sensor-side average over N.
  EXPECT_LE(stats.min_degree, static_cast<std::size_t>(stats.avg_degree) + 1);
  EXPECT_GE(stats.max_degree, static_cast<std::size_t>(stats.avg_degree));
}

TEST(NetworkStats, SparseNetworkFragmentsAndIsolates) {
  SimConfig cfg;
  cfg.num_sensors = 40;
  cfg.field_side = meters(300.0);
  cfg.comm_range = meters(10.0);  // far too sparse to connect
  Network net = make_network(cfg, 3);
  const NetworkStats stats = compute_stats(net);
  EXPECT_GT(stats.connected_components, 5u);
  EXPECT_LT(stats.reachable_sensors, 10u);
  EXPECT_GT(stats.isolated_sensors, 0u);
}

TEST(NetworkStats, RouteLengthBoundedByHops) {
  SimConfig cfg;
  cfg.num_sensors = 200;
  cfg.field_side = meters(120.0);
  Network net = make_network(cfg, 7);
  const NetworkStats stats = compute_stats(net);
  // Each hop is at most d_c long.
  EXPECT_LE(stats.avg_route_length_m,
            stats.avg_hops_to_base * cfg.comm_range.value() + 1e-9);
}

}  // namespace
}  // namespace wrsn
