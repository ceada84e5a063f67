#include <gtest/gtest.h>

#include "activity/redundancy.hpp"

namespace wrsn {
namespace {

Network make_network(const SimConfig& cfg, std::uint64_t seed = 1) {
  RngStreams streams(seed);
  Xoshiro256 deploy = streams.stream("deployment");
  Xoshiro256 targets = streams.stream("target-placement");
  Network net(cfg, deploy, targets);
  net.rebuild_routing();
  return net;
}

ClusterSet cluster(const Network& net) {
  std::vector<Vec2> spos, tpos;
  for (const Sensor& s : net.sensors()) spos.push_back(s.pos);
  for (const Target& t : net.targets()) tpos.push_back(t.pos);
  return balanced_clustering(spos, tpos, net.config().sensing_range.value());
}

TEST(Redundancy, DegreesMatchDirectQueries) {
  SimConfig cfg;
  cfg.num_sensors = 200;
  cfg.num_targets = 8;
  cfg.field_side = meters(120.0);
  Network net = make_network(cfg, 3);
  Xoshiro256 rng(1);
  const auto cs = cluster(net);
  const auto report = analyze_redundancy(net, cs, 4, 0, rng);
  ASSERT_EQ(report.degree_per_target.size(), 8u);
  for (TargetId t = 0; t < 8; ++t) {
    EXPECT_EQ(report.degree_per_target[t],
              net.sensors_covering(net.target(t).pos).size());
  }
  EXPECT_LE(report.min_degree, report.max_degree);
  EXPECT_GE(report.mean_degree, static_cast<double>(report.min_degree));
  EXPECT_LE(report.mean_degree, static_cast<double>(report.max_degree));
}

TEST(Redundancy, KCoverageIsMonotoneDecreasing) {
  SimConfig cfg;  // Table II density
  Network net = make_network(cfg, 7);
  Xoshiro256 rng(2);
  const auto cs = cluster(net);
  const auto report = analyze_redundancy(net, cs, 6, 20000, rng);
  ASSERT_EQ(report.k_coverage.size(), 7u);
  EXPECT_DOUBLE_EQ(report.k_coverage[0], 1.0);
  for (std::size_t k = 1; k < report.k_coverage.size(); ++k) {
    EXPECT_LE(report.k_coverage[k], report.k_coverage[k - 1] + 1e-12);
    EXPECT_GE(report.k_coverage[k], 0.0);
  }
  // Table II density: ~92% 1-coverage, expected degree ~2.5.
  EXPECT_GT(report.k_coverage[1], 0.85);
  EXPECT_LT(report.k_coverage[4], 0.60);
}

TEST(Redundancy, SleepFractionMatchesClusterSizes) {
  // Two clusters of sizes 3 and 2 -> sleepers (2+1)/(3+2) = 0.6.
  SimConfig cfg;
  cfg.num_sensors = 5;
  cfg.num_targets = 2;
  cfg.field_side = meters(100.0);
  Network net = make_network(cfg, 1);
  ClusterSet cs;
  cs.members = {{0, 1, 2}, {3, 4}};
  cs.assignment = {0, 0, 0, 1, 1};
  Xoshiro256 rng(3);
  const auto report = analyze_redundancy(net, cs, 1, 0, rng);
  EXPECT_DOUBLE_EQ(report.rr_sleep_fraction, 0.6);
}

TEST(Redundancy, EmptyClustersIgnored) {
  SimConfig cfg;
  cfg.num_sensors = 4;
  cfg.num_targets = 3;
  cfg.field_side = meters(50.0);
  Network net = make_network(cfg, 9);
  ClusterSet cs;
  cs.members = {{0, 1}, {}, {2}};
  cs.assignment = {0, 0, 2, kInvalidId};
  Xoshiro256 rng(4);
  const auto report = analyze_redundancy(net, cs, 1, 0, rng);
  // sleepers = 1 + 0, members = 3.
  EXPECT_NEAR(report.rr_sleep_fraction, 1.0 / 3.0, 1e-12);
}

TEST(Redundancy, UncoveredTargetsCounted) {
  SimConfig cfg;
  cfg.num_sensors = 1;
  cfg.num_targets = 6;
  cfg.field_side = meters(300.0);
  cfg.comm_range = meters(400.0);
  Network net = make_network(cfg, 11);
  Xoshiro256 rng(5);
  ClusterSet cs;
  cs.members.resize(6);
  cs.assignment.assign(1, kInvalidId);
  const auto report = analyze_redundancy(net, cs, 2, 0, rng);
  // One sensor in a 300 m field: most targets are uncovered.
  EXPECT_GE(report.uncovered_targets, 4u);
}

TEST(Redundancy, Validation) {
  SimConfig cfg;
  cfg.num_sensors = 2;
  cfg.num_targets = 1;
  Network net = make_network(cfg, 13);
  Xoshiro256 rng(6);
  ClusterSet cs;
  cs.members.resize(1);
  cs.assignment.assign(2, kInvalidId);
  EXPECT_THROW((void)analyze_redundancy(net, cs, 0, 0, rng), InvalidArgument);
}

}  // namespace
}  // namespace wrsn
