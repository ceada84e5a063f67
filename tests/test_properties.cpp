// Property-based sweeps across random configurations: system-level
// invariants that must hold for ANY valid parameterization.
#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

SimConfig random_config(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  SimConfig cfg;
  cfg.num_sensors = 40 + rng.uniform_int(160);
  cfg.num_targets = 1 + rng.uniform_int(8);
  cfg.num_rvs = 1 + rng.uniform_int(3);
  cfg.field_side = meters(60.0 + rng.uniform(0.0, 120.0));
  cfg.sim_duration = days(1.0 + rng.uniform(0.0, 3.0));
  cfg.energy_request_percentage = rng.uniform(0.0, 1.0);
  cfg.energy_request_control = rng.bernoulli(0.7);
  cfg.activation = rng.bernoulli(0.5) ? ActivationPolicy::kRoundRobin
                                      : ActivationPolicy::kFullTime;
  const int sched = static_cast<int>(rng.uniform_int(3));
  cfg.scheduler = sched == 0 ? "greedy" : sched == 1 ? "partition" : "combined";
  cfg.radio.listen_duty_cycle = rng.uniform(0.0, 0.4);
  cfg.seed = seed * 7919 + 13;
  return cfg;
}

class WorldProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorldProperty, SystemInvariantsHoldUnderRandomConfigs) {
  const SimConfig cfg = random_config(GetParam());
  World w(cfg);
  const MetricsReport r = w.run();

  // --- report sanity ------------------------------------------------------
  EXPECT_DOUBLE_EQ(r.duration.value(), cfg.sim_duration.value());
  EXPECT_GE(r.coverage_ratio, 0.0);
  EXPECT_LE(r.coverage_ratio, 1.0 + 1e-9);
  EXPECT_NEAR(r.coverage_ratio + r.missing_rate, 1.0, 1e-9);
  EXPECT_GE(r.nonfunctional_pct, 0.0);
  EXPECT_LE(r.nonfunctional_pct, 100.0);
  EXPECT_GE(r.rv_travel_energy.value(), 0.0);
  EXPECT_GE(r.energy_recharged.value(), 0.0);
  EXPECT_GE(r.packets_delivered, 0.0);
  EXPECT_LE(r.avg_alive_sensors, static_cast<double>(cfg.num_sensors) + 1e-9);

  // Travel energy is exactly e_m times travel distance.
  EXPECT_NEAR(r.rv_travel_energy.value(),
              cfg.rv.move_cost.value() * r.rv_travel_distance.value(),
              1e-6 * (1.0 + r.rv_travel_energy.value()));

  // Served never exceeds requested.
  EXPECT_LE(r.sensors_recharged, r.recharge_requests);

  // --- battery invariants ----------------------------------------------
  for (const Sensor& s : w.network().sensors()) {
    EXPECT_GE(s.battery.level().value(), 0.0);
    EXPECT_LE(s.battery.level().value(), s.battery.capacity().value() + 1e-9);
  }
  for (const Rv& rv : w.rvs()) {
    EXPECT_GE(rv.battery.level().value(), -1e-9);
    EXPECT_LE(rv.battery.level().value(), rv.battery.capacity().value() + 1e-9);
  }

  // --- RV energy conservation -----------------------------------------
  double residual = 0.0;
  for (const Rv& rv : w.rvs()) residual += rv.battery.level().value();
  const double initial =
      cfg.rv.capacity.value() * static_cast<double>(cfg.num_rvs);
  EXPECT_NEAR(r.rv_travel_energy.value() + r.energy_recharged.value() + residual,
              initial + r.rv_base_energy_drawn.value(),
              1e-6 * (1.0 + initial + r.rv_base_energy_drawn.value()));

  // --- sensor-side energy conservation ----------------------------------
  // initial levels + recharged == current levels + consumed (exactly).
  {
    double levels = 0.0;
    for (const Sensor& s : w.network().sensors()) {
      levels += s.battery.level().value();
    }
    const double sensor_initial =
        cfg.battery.capacity.value() * static_cast<double>(cfg.num_sensors);
    const double lhs = sensor_initial + r.energy_recharged.value();
    const double rhs = levels + w.sensor_energy_consumed().value();
    EXPECT_NEAR(lhs, rhs, 1e-6 * (1.0 + lhs));
  }

  // Fairness index lies in (0, 1].
  EXPECT_GT(r.recharge_fairness_jain, 0.0);
  EXPECT_LE(r.recharge_fairness_jain, 1.0 + 1e-12);

  // --- structural invariants ---------------------------------------------
  const auto& cs = w.clusters();
  std::vector<int> assigned(cfg.num_sensors, 0);
  for (TargetId t = 0; t < cs.num_clusters(); ++t) {
    for (SensorId s : cs.members[t]) {
      ++assigned[s];
      // Constraint (5): at most one target per sensor.
      EXPECT_LE(assigned[s], 1);
    }
  }

  // Requests outstanding refer to distinct sensors with the flag set.
  for (const auto& req : w.recharge_list().requests()) {
    EXPECT_TRUE(w.network().sensor(req.sensor).recharge_requested);
  }

  // Snapshot consistency at the end.
  const StateSnapshot snap = w.snapshot();
  EXPECT_LE(snap.covered_targets, snap.coverable_targets);
  EXPECT_LE(snap.coverable_targets, cfg.num_targets);
  EXPECT_EQ(snap.alive_sensors, w.network().alive_count());
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, WorldProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

// Determinism as a property: every random config replays identically.
class DeterminismProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismProperty, ReplayIsExact) {
  SimConfig cfg = random_config(GetParam());
  cfg.sim_duration = days(1.0);
  World a(cfg), b(cfg);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_DOUBLE_EQ(ra.rv_travel_distance.value(), rb.rv_travel_distance.value());
  EXPECT_DOUBLE_EQ(ra.energy_recharged.value(), rb.energy_recharged.value());
  EXPECT_DOUBLE_EQ(ra.packets_delivered, rb.packets_delivered);
  EXPECT_EQ(ra.sensor_deaths, rb.sensor_deaths);
  EXPECT_EQ(ra.recharge_requests, rb.recharge_requests);
  for (std::size_t i = 0; i < a.rvs().size(); ++i) {
    EXPECT_EQ(a.rvs()[i].pos, b.rvs()[i].pos);
    EXPECT_DOUBLE_EQ(a.rvs()[i].battery.level().value(),
                     b.rvs()[i].battery.level().value());
  }
  for (SensorId s = 0; s < cfg.num_sensors; ++s) {
    EXPECT_DOUBLE_EQ(a.network().sensor(s).battery.level().value(),
                     b.network().sensor(s).battery.level().value());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, DeterminismProperty,
                         ::testing::Range<std::uint64_t>(100, 110));

}  // namespace
}  // namespace wrsn
