// Engine-equivalence suite: the World's incremental event loop (lazy battery
// settlement, O(1) coverage counters, dirty-marked drain refreshes, scoped
// reclustering) must be BIT-IDENTICAL to ReferenceWorld (tests/support/),
// which derives the same state by full rescans. Both share the physics core
// and settle batteries at the same points, so any divergence in the metrics
// report, the event trace or the final battery vector pinpoints a stale
// counter, a missed dirty mark or a spatial-grid bug.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "reference_world.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

struct Scenario {
  std::uint64_t seed = 0;
  TargetMotion motion = TargetMotion::kRandomWaypoint;
  ActivationPolicy activation = ActivationPolicy::kRoundRobin;
  std::string scheduler = "combined";
};

std::string describe(const Scenario& sc) {
  std::ostringstream os;
  os << "seed=" << sc.seed
     << " motion=" << (sc.motion == TargetMotion::kTeleport ? "teleport" : "waypoint")
     << " activation="
     << (sc.activation == ActivationPolicy::kRoundRobin ? "rr" : "full-time")
     << " scheduler=" << sc.scheduler;
  return os.str();
}

// Small, battery-stressed instances: capacities are shrunk so threshold
// crossings, deaths, recharge tours and revivals all happen within a few
// simulated hours, and target periods shortened so motion re-clusters fire
// many times per run.
SimConfig eq_config(const Scenario& sc) {
  SimConfig cfg;
  cfg.num_sensors = 40 + (sc.seed % 5) * 10;  // 40..80
  cfg.num_targets = 4;
  cfg.num_rvs = 2;
  cfg.field_side = meters(90.0);
  cfg.sim_duration = hours(6.0);
  cfg.seed = 0x9000 + sc.seed * 7919;
  cfg.target_motion = sc.motion;
  cfg.target_period = minutes(30.0);
  cfg.target_speed = MeterPerSecond{1.0};
  cfg.activation = sc.activation;
  cfg.scheduler = sc.scheduler;
  cfg.battery.capacity = Joule{150.0};
  cfg.radio.listen_duty_cycle = 0.2;
  return cfg;
}

struct RunResult {
  std::string report_json;
  std::vector<World::TraceEvent> trace;
  std::vector<double> battery_levels;
  double consumed = 0.0;
  std::uint64_t events = 0;
};

RunResult run_engine(const SimConfig& cfg, Engine engine) {
  const std::unique_ptr<World> world = make_world(cfg, engine);
  World& w = *world;
  RunResult out;
  w.set_tracer([&out](const World::TraceEvent& ev) { out.trace.push_back(ev); });
  w.run_until(cfg.sim_duration);
  out.report_json = to_json(w.report());
  out.battery_levels.reserve(w.network().num_sensors());
  for (const Sensor& s : w.network().sensors()) {
    out.battery_levels.push_back(s.battery.level().value());
  }
  out.consumed = w.sensor_energy_consumed().value();
  out.events = w.events_processed();
  // The O(1) counters must agree with a from-scratch rescan at any time the
  // world is settled; the public snapshot uses whichever the engine keeps.
  EXPECT_EQ(w.snapshot().alive_sensors, w.network().alive_count());
  return out;
}

void expect_identical(const SimConfig& cfg, const std::string& what) {
  const RunResult inc = run_engine(cfg, Engine::kIncremental);
  const RunResult ref = run_engine(cfg, Engine::kReference);

  EXPECT_GT(inc.events, 0u) << what;
  EXPECT_EQ(inc.report_json, ref.report_json) << what;
  EXPECT_EQ(inc.events, ref.events) << what;
  EXPECT_EQ(inc.consumed, ref.consumed) << what;  // bit-exact, no tolerance

  ASSERT_EQ(inc.trace.size(), ref.trace.size()) << what;
  for (std::size_t i = 0; i < inc.trace.size(); ++i) {
    const auto& a = inc.trace[i];
    const auto& b = ref.trace[i];
    ASSERT_TRUE(a.time == b.time && a.kind == b.kind && a.subject == b.subject &&
                a.epoch == b.epoch && a.queue_size == b.queue_size)
        << what << " diverges at trace index " << i << ": t=" << a.time
        << " kind=" << kind_name(a.kind) << " subject=" << a.subject << " vs t="
        << b.time << " kind=" << kind_name(b.kind) << " subject=" << b.subject;
  }

  ASSERT_EQ(inc.battery_levels.size(), ref.battery_levels.size()) << what;
  for (std::size_t s = 0; s < inc.battery_levels.size(); ++s) {
    ASSERT_EQ(inc.battery_levels[s], ref.battery_levels[s])
        << what << " battery diverges at sensor " << s;
  }
}

// 25 seeds x 2 motions x 2 activation policies x 2 schedulers = 200
// randomized instances, every one required to match bit-for-bit.
TEST(WorldEquivalence, RandomizedInstancesMatchBitForBit) {
  const TargetMotion motions[] = {TargetMotion::kRandomWaypoint,
                                  TargetMotion::kTeleport};
  const ActivationPolicy activations[] = {ActivationPolicy::kRoundRobin,
                                          ActivationPolicy::kFullTime};
  const std::string schedulers[] = {"combined", "greedy"};
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    for (const TargetMotion motion : motions) {
      for (const ActivationPolicy activation : activations) {
        for (const std::string& scheduler : schedulers) {
          const Scenario sc{seed, motion, activation, scheduler};
          expect_identical(eq_config(sc), describe(sc));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// The fault subsystem layered on top: same plan, both engines, still
// bit-identical. Covers uplink loss/delay/retry, a pinned breakdown with
// failover, random breakdowns, transient hardware faults and battery noise
// all at once — divergence here means a fault handler updated incremental
// state without the matching reference-path effect (or vice versa).
SimConfig fault_eq_config(const Scenario& sc) {
  SimConfig cfg = eq_config(sc);
  cfg.fault.enabled = true;
  cfg.fault.request_loss_prob = 0.25;
  cfg.fault.request_delay_prob = 0.2;
  cfg.fault.request_delay_max = minutes(10.0);
  cfg.fault.request_retry_timeout = minutes(5.0);
  cfg.fault.rv_breakdown_at = hours(2.0);
  cfg.fault.rv_repair_duration = hours(1.0);
  cfg.fault.rv_mtbf_hours = 8.0;
  cfg.fault.sensor_fault_rate_per_day = 6.0;
  cfg.fault.sensor_fault_duration = minutes(40.0);
  cfg.fault.battery_noise_per_day = 0.05;
  return cfg;
}

// Both motions: random waypoint drives the scoped rebalance, teleport the
// global recluster, and hardware faults, deaths and revivals meet both.
TEST(WorldEquivalence, FaultEnabledInstancesMatchBitForBit) {
  const TargetMotion motions[] = {TargetMotion::kRandomWaypoint,
                                  TargetMotion::kTeleport};
  const ActivationPolicy activations[] = {ActivationPolicy::kRoundRobin,
                                          ActivationPolicy::kFullTime};
  const std::string schedulers[] = {"combined", "greedy"};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    for (const TargetMotion motion : motions) {
      for (const ActivationPolicy activation : activations) {
        for (const std::string& scheduler : schedulers) {
          Scenario sc{seed, motion, activation, scheduler};
          expect_identical(fault_eq_config(sc), "faults on, " + describe(sc));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// Every registered policy, both engines, faults off and on: the policy
// extraction must leave each scheme's trace bit-identical regardless of the
// engine maintaining derived state. New registry entries are swept
// automatically.
TEST(WorldEquivalence, AllRegisteredPoliciesMatchBitForBit) {
  for (const std::string& scheduler : scheduler_names()) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      for (const bool faults : {false, true}) {
        Scenario sc{seed, TargetMotion::kRandomWaypoint,
                    ActivationPolicy::kRoundRobin, scheduler};
        const SimConfig cfg = faults ? fault_eq_config(sc) : eq_config(sc);
        expect_identical(cfg, (faults ? "faults on, " : "faults off, ") +
                                  describe(sc));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// Same config, same engine, run twice: the fault plan and every downstream
// decision must reproduce exactly (no hidden global state).
TEST(WorldEquivalence, FaultRunsAreReproducible) {
  Scenario sc;
  sc.seed = 3;
  const SimConfig cfg = fault_eq_config(sc);
  const RunResult a = run_engine(cfg, Engine::kIncremental);
  const RunResult b = run_engine(cfg, Engine::kIncremental);
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.battery_levels, b.battery_levels);
}

// Fault injection must behave identically under both engines, including the
// hardest case: killing an active monitor mid-run, which forces a rotor
// advance, a monitor handover and a routing-tree rebuild.
TEST(WorldEquivalence, InjectedMonitorDeathMatchesAcrossEngines) {
  Scenario sc;
  sc.seed = 11;
  const SimConfig cfg = eq_config(sc);

  World inc(cfg);
  ReferenceWorld ref(cfg);
  inc.run_until(hours(1.0));
  ref.run_until(hours(1.0));

  // Both engines are in the same state, so the same sensor is the monitor.
  SensorId victim = kInvalidId;
  for (TargetId t = 0; t < cfg.num_targets; ++t) {
    const SensorId m = inc.active_monitor(t);
    if (m != kInvalidId && inc.network().sensor(m).alive()) {
      victim = m;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidId) << "instance has no alive monitor";
  ASSERT_EQ(victim, [&] {
    for (TargetId t = 0; t < cfg.num_targets; ++t) {
      const SensorId m = ref.active_monitor(t);
      if (m != kInvalidId && ref.network().sensor(m).alive()) return m;
    }
    return kInvalidId;
  }());

  inc.inject_sensor_failure(victim);
  ref.inject_sensor_failure(victim);
  EXPECT_FALSE(inc.network().sensor(victim).alive());
  EXPECT_FALSE(inc.network().sensor(victim).monitoring);

  inc.run_until(cfg.sim_duration);
  ref.run_until(cfg.sim_duration);

  EXPECT_EQ(to_json(inc.report()), to_json(ref.report()));
  EXPECT_GE(inc.report().sensor_deaths, 1u);
  for (SensorId s = 0; s < inc.network().num_sensors(); ++s) {
    ASSERT_EQ(inc.network().sensor(s).battery.level().value(),
              ref.network().sensor(s).battery.level().value())
        << "battery diverges at sensor " << s;
  }
}

}  // namespace
}  // namespace wrsn
