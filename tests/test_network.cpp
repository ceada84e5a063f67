#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "net/network.hpp"

namespace wrsn {
namespace {

SimConfig small_config() {
  SimConfig cfg;
  cfg.num_sensors = 100;
  cfg.num_targets = 5;
  cfg.field_side = meters(80.0);
  return cfg;
}

Network make_network(const SimConfig& cfg, std::uint64_t seed = 1) {
  RngStreams streams(seed);
  Xoshiro256 deploy = streams.stream("deployment");
  Xoshiro256 targets = streams.stream("target-placement");
  Network net(cfg, deploy, targets);
  net.rebuild_routing();
  return net;
}

TEST(Network, ConstructionPopulatesEverything) {
  const SimConfig cfg = small_config();
  Network net = make_network(cfg);
  EXPECT_EQ(net.num_sensors(), 100u);
  EXPECT_EQ(net.num_targets(), 5u);
  EXPECT_EQ(net.alive_count(), 100u);
  EXPECT_EQ(net.base_station(), (Vec2{40.0, 40.0}));
  EXPECT_EQ(net.graph().num_nodes(), 101u);
  for (SensorId s = 0; s < net.num_sensors(); ++s) {
    EXPECT_EQ(net.sensor(s).id, s);
    EXPECT_DOUBLE_EQ(net.sensor(s).battery.fraction(), 1.0);
    EXPECT_TRUE(net.sensor(s).alive());
  }
}

TEST(Network, DeterministicDeployment) {
  const SimConfig cfg = small_config();
  Network a = make_network(cfg, 7);
  Network b = make_network(cfg, 7);
  for (SensorId s = 0; s < a.num_sensors(); ++s) {
    EXPECT_EQ(a.sensor(s).pos, b.sensor(s).pos);
  }
  for (TargetId t = 0; t < a.num_targets(); ++t) {
    EXPECT_EQ(a.target(t).pos, b.target(t).pos);
  }
}

TEST(Network, SensorsCoveringMatchesBruteForce) {
  const SimConfig cfg = small_config();
  Network net = make_network(cfg, 3);
  for (TargetId t = 0; t < net.num_targets(); ++t) {
    const Vec2 p = net.target(t).pos;
    const auto got = net.sensors_covering(p);
    std::vector<SensorId> want;
    for (SensorId s = 0; s < net.num_sensors(); ++s) {
      if (distance(net.sensor(s).pos, p) <= cfg.sensing_range.value()) {
        want.push_back(s);
      }
    }
    EXPECT_EQ(got, want);
  }
}

TEST(Network, RelocateTargetMovesWithinField) {
  const SimConfig cfg = small_config();
  Network net = make_network(cfg);
  Xoshiro256 rng(5);
  const Vec2 before = net.target(2).pos;
  net.relocate_target(2, rng);
  const Vec2 after = net.target(2).pos;
  EXPECT_NE(before, after);
  EXPECT_GE(after.x, 0.0);
  EXPECT_LT(after.x, cfg.field_side.value());
}

// Construction builds no forest: a fresh network asks for one, a restored
// one rebuilds it from its checkpointed mask, and neither pays twice.
TEST(Network, ConstructionBuildsNoRouting) {
  const SimConfig cfg = small_config();
  RngStreams streams(1);
  Xoshiro256 deploy = streams.stream("deployment");
  Xoshiro256 targets = streams.stream("target-placement");
  Network net(cfg, deploy, targets);
  EXPECT_FALSE(net.routing().built());
  EXPECT_TRUE(net.rebuild_routing());
  EXPECT_TRUE(net.routing().built());
  EXPECT_FALSE(net.rebuild_routing());
}

TEST(Network, RoutingRebuildDetectsChanges) {
  const SimConfig cfg = small_config();
  Network net = make_network(cfg);
  // No change -> no rebuild.
  EXPECT_FALSE(net.rebuild_routing());
  // Kill a sensor -> rebuild.
  net.sensor(0).battery.drain(net.sensor(0).battery.level());
  EXPECT_FALSE(net.sensor(0).alive());
  EXPECT_TRUE(net.rebuild_routing());
  EXPECT_FALSE(net.routing().reachable(0));
  EXPECT_EQ(net.alive_count(), 99u);
  // Revive -> rebuild again.
  net.sensor(0).battery.refill();
  EXPECT_TRUE(net.rebuild_routing());
}

TEST(Network, MostSensorsReachBaseAtTableIIDensity) {
  // At Table II density (500 sensors, d_c = 12 m over 200x200 m) the vast
  // majority of nodes must be connected to the BS.
  SimConfig cfg;  // full paper defaults
  Network net = make_network(cfg, 11);
  std::size_t reachable = 0;
  for (SensorId s = 0; s < net.num_sensors(); ++s) {
    if (net.routing().reachable(s)) ++reachable;
  }
  EXPECT_GT(static_cast<double>(reachable) / static_cast<double>(net.num_sensors()),
            0.9);
}

TEST(Network, ConfigIsValidatedOnConstruction) {
  SimConfig cfg = small_config();
  cfg.comm_range = meters(-1.0);
  RngStreams streams(1);
  Xoshiro256 deploy = streams.stream("deployment");
  Xoshiro256 targets = streams.stream("target-placement");
  EXPECT_THROW(Network(cfg, deploy, targets), InvalidArgument);
}

}  // namespace
}  // namespace wrsn
