#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"
#include "net/graph.hpp"
#include "net/routing.hpp"
#include "net/traffic.hpp"

namespace wrsn {
namespace {

class TrafficTest : public ::testing::Test {
 protected:
  // Line: s0 -- s1 -- s2 -- BS, 10 m spacing, range 12 m.
  void SetUp() override {
    graph_ = CommGraph({{0, 0}, {10, 0}, {20, 0}}, Vec2{30, 0}, 12.0);
    positions_ = {{0, 0}, {10, 0}, {20, 0}, {30, 0}};
    tree_ = build(std::vector<bool>(3, true));
    traffic_.reset(3, 0.25);
  }

  [[nodiscard]] RouteTable build(const std::vector<bool>& usable) const {
    RouteTable table;
    const RoutingBuildInput in{&graph_, &positions_, &usable};
    RoutingRegistry::instance().create("shortest_path")->build(in, table);
    return table;
  }

  CommGraph graph_;
  std::vector<Vec2> positions_;
  RouteTable tree_;
  TrafficModel traffic_;
};

TEST_F(TrafficTest, SingleSourceRelayRates) {
  traffic_.add_source(tree_, 0);
  // Source transmits, relays receive + transmit.
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(0), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(0), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(1), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(1), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(2), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.25);
}

TEST_F(TrafficTest, MultipleSourcesAccumulate) {
  traffic_.add_source(tree_, 0);
  traffic_.add_source(tree_, 1);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.5);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(2), 0.5);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(1), 0.5);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(1), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.5);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.5);
}

TEST_F(TrafficTest, RemoveSourceRestoresRates) {
  traffic_.add_source(tree_, 0);
  traffic_.add_source(tree_, 1);
  traffic_.remove_source(tree_, 0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(0), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.25);
  traffic_.remove_source(tree_, 1);
  for (SensorId s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(traffic_.tx_rate(s), 0.0);
    EXPECT_DOUBLE_EQ(traffic_.rx_rate(s), 0.0);
  }
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.0);
}

TEST_F(TrafficTest, DuplicateSourceRejected) {
  traffic_.add_source(tree_, 0);
  EXPECT_THROW(traffic_.add_source(tree_, 0), InvalidArgument);
  EXPECT_THROW(traffic_.remove_source(tree_, 1), InvalidArgument);
}

TEST_F(TrafficTest, UnreachableSourceStillTransmits) {
  // Node 0 alive but relay 1 dead: 0 cannot reach the BS.
  const RouteTable broken = build({true, false, true});
  traffic_.add_source(broken, 0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(0), 0.25);  // wasted transmissions
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.0);
  // The wasted packets still count as offered load.
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.25);
}

TEST_F(TrafficTest, RerouteFollowsNewTree) {
  traffic_.add_source(tree_, 0);
  // Node 1 dies: the route breaks, reroute keeps the source registered but
  // with no deliverable path.
  const RouteTable broken = build({true, false, true});
  traffic_.retract_all(tree_);
  traffic_.readd_all(broken);
  EXPECT_EQ(traffic_.num_sources(), 1u);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(0), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 0.0);
  // Node 1 revives: delivery resumes.
  traffic_.retract_all(broken);
  traffic_.readd_all(tree_);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(1), 0.25);
}

TEST_F(TrafficTest, SwapWalksOnlyTheBranchBelowTheMeetingNode) {
  // s0's route runs through s1: handing s0's flow to s1 walks s0 alone, and
  // s1 turns from a relay into the source.
  traffic_.add_source(tree_, 0);
  EXPECT_EQ(traffic_.swap_source(tree_, 0, 1), 1u);
  EXPECT_FALSE(traffic_.has_source(0));
  EXPECT_TRUE(traffic_.has_source(1));
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(0), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(1), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(1), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(2), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(), 2.0);
  // And back: s1 starts relaying again.
  EXPECT_EQ(traffic_.swap_source(tree_, 1, 0), 1u);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(0), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(1), 0.25);
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(), 3.0);
}

TEST_F(TrafficTest, RateConservationLossless) {
  // Lossless: everything offered by reachable sources is delivered, and
  // every relay forwards exactly what it receives plus its own load. A
  // third of a packet per second is not exact in binary; the rates are
  // flow counts times it all the same.
  traffic_.reset(3, 1.0 / 3.0);
  traffic_.add_source(tree_, 0);
  traffic_.add_source(tree_, 1);
  traffic_.add_source(tree_, 2);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 1.0);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), traffic_.offered_rate());
  for (SensorId s = 0; s < 3; ++s) {
    EXPECT_GE(traffic_.tx_rate(s), traffic_.rx_rate(s));
  }
  // The last hop into the BS carries the full load.
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(2), 1.0);
}

TEST_F(TrafficTest, RadioPowerComposition) {
  RadioModel radio;
  radio.listen_duty_cycle = 0.0;  // isolate per-packet terms
  traffic_.reset(3, 1.0);
  traffic_.add_source(tree_, 0);
  const double etx = radio.tx_energy_per_packet().value();
  const double erx = radio.rx_energy_per_packet().value();
  EXPECT_NEAR(traffic_.radio_power(0, radio).value(),
              radio.idle_power.value() + etx, 1e-12);
  EXPECT_NEAR(traffic_.radio_power(1, radio).value(),
              radio.idle_power.value() + etx + erx, 1e-12);
}

TEST_F(TrafficTest, ListenDutyAddsFloor) {
  RadioModel radio;
  radio.listen_duty_cycle = 0.10;
  EXPECT_NEAR(traffic_.radio_power(0, radio).value(),
              radio.idle_power.value() + 0.10 * radio.rx_power.value(), 1e-12);
}

TEST_F(TrafficTest, ZeroRateSourceIsHarmless) {
  traffic_.reset(3, 0.0);
  traffic_.add_source(tree_, 0);
  EXPECT_DOUBLE_EQ(traffic_.tx_rate(0), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.0);
}

TEST_F(TrafficTest, ZeroRateSourcesDoNotPoisonHopAverage) {
  // Regression: average_delivery_hops() used to be guarded on the delivering
  // *source count*; a source set whose rates are all zero then divided
  // 0 / 0 into NaN. The guard is on the delivering rate now.
  traffic_.reset(3, 0.0);
  traffic_.add_source(tree_, 0);
  traffic_.add_source(tree_, 1);
  const double hops = traffic_.average_delivery_hops();
  EXPECT_FALSE(std::isnan(hops));
  EXPECT_DOUBLE_EQ(hops, 0.0);
}

TEST_F(TrafficTest, SourceIdValidation) {
  EXPECT_THROW(traffic_.add_source(tree_, 99), InvalidArgument);
  EXPECT_THROW((void)TrafficModel(3, -1.0), InvalidArgument);
}

// --- link-quality layer --------------------------------------------------

class LossyTrafficTest : public TrafficTest {
 protected:
  void SetUp() override {
    TrafficTest::SetUp();
    link_.enabled = true;
    link_.loss_floor = 0.0;
    link_.loss_at_range = 0.3;
    link_.loss_exponent = 2.0;
    link_.max_retx = 3;
    traffic_.set_link_model(link_, 12.0);
    // Every hop on the 10 m line at 12 m range: p = 0.3 * (10/12)^2.
    p_hop_ = 0.3 * (10.0 / 12.0) * (10.0 / 12.0);
    const double all_fail = std::pow(p_hop_, 3.0);
    success_ = 1.0 - all_fail;
    etx_ = (1.0 - all_fail) / (1.0 - p_hop_);
  }
  LinkConfig link_;
  double p_hop_ = 0.0, success_ = 0.0, etx_ = 0.0;
};

TEST_F(LossyTrafficTest, AttenuatesHopByHopAndChargesEtx) {
  traffic_.reset(3, 1.0);
  traffic_.add_source(tree_, 0);
  // Source pays ETX for its own packets; each relay receives the surviving
  // fraction and pays ETX to forward it.
  EXPECT_NEAR(traffic_.tx_rate(0), etx_, 1e-12);
  EXPECT_DOUBLE_EQ(traffic_.rx_rate(0), 0.0);
  EXPECT_NEAR(traffic_.rx_rate(1), success_, 1e-12);
  EXPECT_NEAR(traffic_.tx_rate(1), success_ * etx_, 1e-12);
  EXPECT_NEAR(traffic_.rx_rate(2), success_ * success_, 1e-12);
  EXPECT_NEAR(traffic_.tx_rate(2), success_ * success_ * etx_, 1e-12);
  // Delivery is the thrice-attenuated rate; offered is the raw rate.
  EXPECT_NEAR(traffic_.delivery_rate(), std::pow(success_, 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 1.0);
  EXPECT_LT(traffic_.delivery_rate(), traffic_.offered_rate());
}

TEST_F(LossyTrafficTest, RemoveAndClearReturnToQuiescence) {
  traffic_.reset(3, 0.7);
  traffic_.add_source(tree_, 0);
  traffic_.add_source(tree_, 2);
  traffic_.remove_source(tree_, 0);
  traffic_.remove_source(tree_, 2);
  for (SensorId s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(traffic_.tx_rate(s), 0.0);
    EXPECT_DOUBLE_EQ(traffic_.rx_rate(s), 0.0);
  }
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 0.0);
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(), 0.0);
}

TEST_F(LossyTrafficTest, RerouteRecapturesLinkQuality) {
  traffic_.reset(3, 1.0);
  traffic_.add_source(tree_, 0);
  const double before = traffic_.delivery_rate();
  traffic_.retract_all(tree_);  // same forest: the factors reproduce exactly
  traffic_.readd_all(tree_);
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), before);
  EXPECT_DOUBLE_EQ(traffic_.offered_rate(), 1.0);
}

TEST_F(LossyTrafficTest, RxDutyTaxOnlyForReceivers) {
  link_.rx_duty_tax = 0.05;
  traffic_.reset(3, 1.0);
  traffic_.set_link_model(link_, 12.0);
  RadioModel radio;
  radio.listen_duty_cycle = 0.0;
  traffic_.add_source(tree_, 0);
  // Node 0 only transmits: no tax. Node 1 receives: taxed.
  const double p0 = traffic_.radio_power(0, radio).value();
  const double p1 = traffic_.radio_power(1, radio).value();
  EXPECT_NEAR(p0, radio.idle_power.value() +
                      traffic_.tx_rate(0) * radio.tx_energy_per_packet().value(),
              1e-12);
  EXPECT_NEAR(p1, radio.idle_power.value() +
                      traffic_.tx_rate(1) * radio.tx_energy_per_packet().value() +
                      traffic_.rx_rate(1) * radio.rx_energy_per_packet().value() +
                      0.05 * radio.rx_power.value(),
              1e-12);
}

TEST_F(LossyTrafficTest, LosslessConfigMatchesLegacyAccounting) {
  // enabled=true but zero loss terms: ETX and success collapse to 1, so the
  // numbers must equal the lossless fast path bit for bit.
  LinkConfig zero;
  zero.enabled = true;
  zero.loss_floor = 0.0;
  zero.loss_at_range = 0.0;
  traffic_.set_link_model(zero, 12.0);
  traffic_.add_source(tree_, 0);
  TrafficModel plain(3, 0.25);
  plain.add_source(tree_, 0);
  for (SensorId s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(traffic_.tx_rate(s), plain.tx_rate(s));
    EXPECT_DOUBLE_EQ(traffic_.rx_rate(s), plain.rx_rate(s));
  }
  EXPECT_DOUBLE_EQ(traffic_.delivery_rate(), plain.delivery_rate());
  EXPECT_DOUBLE_EQ(traffic_.average_delivery_hops(),
                   plain.average_delivery_hops());
}

}  // namespace
}  // namespace wrsn
