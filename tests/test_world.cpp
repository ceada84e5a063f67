#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "obs/telemetry.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

// A small, fast configuration (2 simulated days by default).
SimConfig small_config() {
  SimConfig cfg;
  cfg.num_sensors = 120;
  cfg.num_targets = 4;
  cfg.num_rvs = 2;
  cfg.field_side = meters(100.0);
  cfg.sim_duration = days(2.0);
  cfg.seed = 4242;
  return cfg;
}

TEST(World, InitialStateIsSane) {
  World w(small_config());
  EXPECT_DOUBLE_EQ(w.now().value(), 0.0);
  EXPECT_EQ(w.network().num_sensors(), 120u);
  EXPECT_EQ(w.rvs().size(), 2u);
  for (const Rv& rv : w.rvs()) {
    EXPECT_DOUBLE_EQ(rv.battery.fraction(), 1.0);
    EXPECT_EQ(rv.pos, w.network().base_station());
  }
  // Clusters exist for every target slot (possibly empty).
  EXPECT_EQ(w.clusters().num_clusters(), 4u);
}

TEST(World, RoundRobinYieldsOneMonitorPerCoveredCluster) {
  World w(small_config());
  const auto& cs = w.clusters();
  for (TargetId t = 0; t < cs.num_clusters(); ++t) {
    std::size_t monitoring = 0;
    for (SensorId s : cs.members[t]) {
      if (w.network().sensor(s).monitoring) ++monitoring;
    }
    if (!cs.members[t].empty()) {
      EXPECT_EQ(monitoring, 1u) << "target " << t;
    }
  }
}

TEST(World, FullTimeActivatesAllClusterMembers) {
  SimConfig cfg = small_config();
  cfg.activation = ActivationPolicy::kFullTime;
  World w(cfg);
  const auto& cs = w.clusters();
  for (TargetId t = 0; t < cs.num_clusters(); ++t) {
    for (SensorId s : cs.members[t]) {
      EXPECT_TRUE(w.network().sensor(s).monitoring);
    }
  }
}

TEST(World, TimeAdvancesMonotonically) {
  World w(small_config());
  w.run_until(hours(1.0));
  EXPECT_DOUBLE_EQ(w.now().value(), 3600.0);
  w.run_until(hours(5.0));
  EXPECT_DOUBLE_EQ(w.now().value(), 5.0 * 3600.0);
  // Re-running to a past time is a no-op.
  w.run_until(hours(2.0));
  EXPECT_DOUBLE_EQ(w.now().value(), 5.0 * 3600.0);
}

TEST(World, BatteriesDrainOverTime) {
  World w(small_config());
  w.run_until(hours(12.0));
  double total = 0.0;
  for (const Sensor& s : w.network().sensors()) total += s.battery.fraction();
  EXPECT_LT(total / 120.0, 1.0);  // strictly below full
  EXPECT_GT(total / 120.0, 0.5);  // but nowhere near empty after 12 h
}

TEST(World, MonitorsDrainFasterThanIdlers) {
  SimConfig cfg = small_config();
  World w(cfg);
  // Identify a monitor at t=0 and an unclustered sensor.
  SensorId monitor = kInvalidId, idler = kInvalidId;
  for (const Sensor& s : w.network().sensors()) {
    if (s.monitoring && monitor == kInvalidId) monitor = s.id;
    if (s.assigned_target == kInvalidId && idler == kInvalidId) idler = s.id;
  }
  ASSERT_NE(monitor, kInvalidId);
  ASSERT_NE(idler, kInvalidId);
  // Short window so re-clustering does not swap roles.
  w.run_until(minutes(5.0));
  EXPECT_LT(w.network().sensor(monitor).battery.fraction(),
            w.network().sensor(idler).battery.fraction());
}

TEST(World, DeterministicAcrossRuns) {
  SimConfig cfg = small_config();
  World a(cfg), b(cfg);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_DOUBLE_EQ(ra.rv_travel_energy.value(), rb.rv_travel_energy.value());
  EXPECT_DOUBLE_EQ(ra.energy_recharged.value(), rb.energy_recharged.value());
  EXPECT_DOUBLE_EQ(ra.coverage_ratio, rb.coverage_ratio);
  EXPECT_EQ(ra.recharge_requests, rb.recharge_requests);
  EXPECT_EQ(ra.sensors_recharged, rb.sensors_recharged);
}

TEST(World, DifferentSeedsDiffer) {
  SimConfig cfg = small_config();
  World a(cfg);
  cfg.seed = 999;
  World b(cfg);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_NE(ra.packets_delivered, rb.packets_delivered);
}

TEST(World, IncrementalEqualsOneShot) {
  SimConfig cfg = small_config();
  World a(cfg), b(cfg);
  a.run_until(hours(7.0));
  a.run_until(hours(20.0));
  a.run_until(cfg.sim_duration);
  b.run_until(cfg.sim_duration);
  EXPECT_DOUBLE_EQ(a.report().rv_travel_energy.value(),
                   b.report().rv_travel_energy.value());
  EXPECT_DOUBLE_EQ(a.report().coverage_ratio, b.report().coverage_ratio);
}

TEST(World, RequestsAppearOnceThresholdsCross) {
  SimConfig cfg = small_config();
  // Accelerate: high listening duty so thresholds cross within the horizon.
  cfg.radio.listen_duty_cycle = 0.5;
  cfg.sim_duration = days(2.0);
  World w(cfg);
  const auto r = w.run();
  EXPECT_GT(r.recharge_requests, 0u);
  EXPECT_GT(r.sensors_recharged, 0u);
  EXPECT_GT(r.energy_recharged.value(), 0.0);
  EXPECT_GT(r.rv_travel_distance.value(), 0.0);
}

TEST(World, EnergyConservationRvSide) {
  SimConfig cfg = small_config();
  cfg.radio.listen_duty_cycle = 0.5;
  World w(cfg);
  const auto r = w.run();
  // Every joule RVs moved or delivered came from full initial batteries plus
  // dock draws: travel + delivered <= initial + drawn (with slack for the
  // energy still in RV batteries).
  const double initial = cfg.rv.capacity.value() * static_cast<double>(cfg.num_rvs);
  double residual = 0.0;
  for (const Rv& rv : w.rvs()) residual += rv.battery.level().value();
  EXPECT_NEAR(r.rv_travel_energy.value() + r.energy_recharged.value() + residual,
              initial + r.rv_base_energy_drawn.value(), 1e-6);
}

TEST(World, EnergyConservationSensorSide) {
  // Sum of battery levels + total consumed == initial + recharged, where
  // consumed is inferred; we check the weaker invariant that levels never
  // exceed capacity and total recharged is consistent with demand served.
  SimConfig cfg = small_config();
  cfg.radio.listen_duty_cycle = 0.5;
  World w(cfg);
  const auto r = w.run();
  for (const Sensor& s : w.network().sensors()) {
    EXPECT_LE(s.battery.level().value(), s.battery.capacity().value() + 1e-9);
    EXPECT_GE(s.battery.level().value(), 0.0);
  }
  EXPECT_GE(r.energy_recharged.value(), 0.0);
}

TEST(World, PendingRequestsServedEventually) {
  SimConfig cfg = small_config();
  cfg.radio.listen_duty_cycle = 0.5;
  cfg.sim_duration = days(3.0);
  World w(cfg);
  const auto r = w.run();
  // With 2 RVs and light load, the backlog at the end must be small compared
  // with everything that was requested.
  EXPECT_LE(w.recharge_list().size() + 10, r.recharge_requests);
}

TEST(World, TimeSeriesRecording) {
  SimConfig cfg = small_config();
  cfg.metrics_sample_period = hours(1.0);
  World w(cfg);
  w.enable_time_series(true);
  w.run();
  // 2 days at 1-hour sampling: 47-48 points.
  EXPECT_GE(w.time_series().size(), 40u);
  double prev = -1.0;
  for (const auto& p : w.time_series()) {
    EXPECT_GT(p.t, prev);
    prev = p.t;
    EXPECT_LE(p.alive, cfg.num_sensors);
    EXPECT_LE(p.covered, p.coverable);
  }
}

TEST(World, SnapshotInvariants) {
  World w(small_config());
  w.run_until(hours(10.0));
  const StateSnapshot s = w.snapshot();
  EXPECT_LE(s.covered_targets, s.coverable_targets);
  EXPECT_LE(s.coverable_targets, 4u);
  EXPECT_LE(s.alive_sensors, s.total_sensors);
  EXPECT_EQ(s.total_sensors, 120u);
}

TEST(World, ZeroTargetsDegenerates) {
  SimConfig cfg = small_config();
  cfg.num_targets = 0;
  World w(cfg);
  const auto r = w.run();
  EXPECT_DOUBLE_EQ(r.coverage_ratio, 1.0);  // vacuous
  EXPECT_DOUBLE_EQ(r.missing_rate, 0.0);
}

TEST(World, SingleRvSingleSensor) {
  SimConfig cfg;
  cfg.num_sensors = 1;
  cfg.num_targets = 1;
  cfg.num_rvs = 1;
  cfg.field_side = meters(20.0);
  cfg.comm_range = meters(30.0);  // sensor always connected
  cfg.sim_duration = days(1.0);
  cfg.radio.listen_duty_cycle = 0.5;
  World w(cfg);
  EXPECT_NO_THROW(w.run());
}

TEST(World, SchedulerChoiceChangesBehaviour) {
  SimConfig cfg = small_config();
  cfg.radio.listen_duty_cycle = 0.5;
  cfg.sim_duration = days(3.0);
  cfg.scheduler = "greedy";
  World g(cfg);
  cfg.scheduler = "partition";
  World p(cfg);
  const auto rg = g.run();
  const auto rp = p.run();
  // Not asserting an ordering at this tiny scale, just that the scheduling
  // path is actually exercised differently.
  EXPECT_NE(rg.rv_travel_distance.value(), rp.rv_travel_distance.value());
}

// A teleport re-admits only the coverage-overlap components it touched. A
// target whose candidate sensors, at its old and at its new position, are
// candidates of no other target is a component of its own, so its teleport
// re-admits exactly one cluster (activity/readmitted-targets). No sensor
// dies in the day, so no alive flip widens the scope.
TEST(World, TeleportOfAnIsolatedTargetReadmitsOneCluster) {
  SimConfig cfg = small_config();
  cfg.num_sensors = 200;
  cfg.num_targets = 6;
  cfg.field_side = meters(200.0);
  cfg.target_period = minutes(30.0);
  cfg.sim_duration = days(1.0);
  World w(cfg);
  obs::TelemetryRegistry registry;
  w.set_telemetry(&registry);
  const obs::Counter& readmitted = registry.counter("activity/readmitted-targets");

  const double r2 = cfg.sensing_range.value() * cfg.sensing_range.value();
  const auto candidates = [&](Vec2 p) {
    std::vector<SensorId> out;
    for (const Sensor& s : w.network().sensors()) {
      if (s.alive() && squared_distance(s.pos, p) <= r2) out.push_back(s.id);
    }
    return out;
  };
  std::vector<Vec2> before;
  for (const Target& t : w.network().targets()) before.push_back(t.pos);
  std::uint64_t seen = 0;
  std::size_t isolated = 0;
  std::size_t checked = 0;
  w.set_tracer([&](const World::TraceEvent& ev) {
    const std::uint64_t delta = readmitted.value() - seen;
    seen = readmitted.value();
    if (ev.kind != EventKind::kTargetMove) return;
    ++checked;
    const TargetId moved = ev.subject;
    std::vector<SensorId> own = candidates(before[moved]);
    const std::vector<SensorId> now = candidates(w.network().target(moved).pos);
    own.insert(own.end(), now.begin(), now.end());
    bool alone = true;
    for (TargetId t = 0; t < cfg.num_targets && alone; ++t) {
      if (t == moved) continue;
      for (const SensorId s : candidates(w.network().target(t).pos)) {
        if (std::find(own.begin(), own.end(), s) != own.end()) alone = false;
      }
    }
    before[moved] = w.network().target(moved).pos;
    EXPECT_GE(delta, 1u);
    if (!alone) return;
    ++isolated;
    EXPECT_EQ(delta, 1u) << "teleport of isolated target " << moved;
  });
  w.run_until(cfg.sim_duration);
  EXPECT_EQ(w.report().nonfunctional_pct, 0.0);
  EXPECT_GE(checked, 200u);
  EXPECT_GE(isolated, 100u) << checked;
}

}  // namespace
}  // namespace wrsn
