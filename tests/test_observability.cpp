// Heisenberg tests: observation features (time series, tracer, telemetry
// registry, trace sinks, sampling cadence) must never perturb the simulated
// physics.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "core/json.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

SimConfig obs_config() {
  SimConfig cfg;
  cfg.num_sensors = 130;
  cfg.num_targets = 5;
  cfg.num_rvs = 2;
  cfg.field_side = meters(100.0);
  cfg.sim_duration = days(5.0);
  cfg.radio.listen_duty_cycle = 0.2;
  cfg.seed = 20101;
  return cfg;
}

void expect_same_physics(const MetricsReport& a, const MetricsReport& b) {
  EXPECT_DOUBLE_EQ(a.rv_travel_distance.value(), b.rv_travel_distance.value());
  EXPECT_DOUBLE_EQ(a.energy_recharged.value(), b.energy_recharged.value());
  EXPECT_DOUBLE_EQ(a.coverage_ratio, b.coverage_ratio);
  EXPECT_DOUBLE_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.sensor_deaths, b.sensor_deaths);
  EXPECT_EQ(a.recharge_requests, b.recharge_requests);
  EXPECT_EQ(a.sensors_recharged, b.sensors_recharged);
}

TEST(Observability, TimeSeriesRecordingDoesNotPerturb) {
  World plain(obs_config());
  World observed(obs_config());
  observed.enable_time_series(true);
  expect_same_physics(plain.run(), observed.run());
  EXPECT_FALSE(observed.time_series().empty());
}

TEST(Observability, TracerDoesNotPerturb) {
  World plain(obs_config());
  World traced(obs_config());
  std::size_t events = 0;
  traced.set_tracer([&](const World::TraceEvent&) { ++events; });
  expect_same_physics(plain.run(), traced.run());
  EXPECT_GT(events, 100u);
}

TEST(Observability, SamplePeriodDoesNotPerturbPhysics) {
  SimConfig coarse = obs_config();
  coarse.metrics_sample_period = hours(12.0);
  SimConfig fine = obs_config();
  fine.metrics_sample_period = minutes(10.0);
  World a(coarse), b(fine);
  expect_same_physics(a.run(), b.run());
}

TEST(Observability, SnapshotQueryIsPure) {
  World w(obs_config());
  w.run_until(days(1.0));
  const StateSnapshot s1 = w.snapshot();
  const StateSnapshot s2 = w.snapshot();
  EXPECT_EQ(s1.covered_targets, s2.covered_targets);
  EXPECT_EQ(s1.alive_sensors, s2.alive_sensors);
  EXPECT_DOUBLE_EQ(s1.delivery_rate_pps, s2.delivery_rate_pps);
  // Querying does not advance time or change outcomes.
  World untouched(obs_config());
  untouched.run_until(days(1.0));
  w.run_until(days(5.0));
  untouched.run_until(days(5.0));
  expect_same_physics(w.report(), untouched.report());
}

TEST(Observability, ReportIsIdempotentMidRun) {
  World w(obs_config());
  w.run_until(days(2.0));
  const MetricsReport r1 = w.report();
  const MetricsReport r2 = w.report();
  expect_same_physics(r1, r2);
  EXPECT_DOUBLE_EQ(r1.duration.value(), days(2.0).value());
}

TEST(Observability, JsonSerializationIsStableForAReport) {
  World w(obs_config());
  const MetricsReport r = w.run();
  EXPECT_EQ(to_json(r), to_json(r));
}

TEST(Observability, TelemetryRegistryDoesNotPerturb) {
  World plain(obs_config());
  World instrumented(obs_config());
  obs::TelemetryRegistry registry;
  instrumented.set_telemetry(&registry);
  const MetricsReport a = plain.run();
  const MetricsReport b = instrumented.run();
  expect_same_physics(a, b);
  // The whole report must be byte-identical, not just the spot checks.
  EXPECT_EQ(to_json(a), to_json(b));
  // ...and the registry actually observed the run.
  EXPECT_GT(registry.counter("events/popped/metrics-sample").value(), 0u);
  EXPECT_GT(registry.gauge("events/queue-high-water").value(), 0.0);
  EXPECT_GT(registry.timer("planner/greedy").count(), 0u);
}

// The extension baselines time their own decide() under planner/<name>, and
// that timer leaves the report byte-identical too.
class BaselineSchedulerTelemetry : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineSchedulerTelemetry, RecordsPlannerTimerWithoutPerturbing) {
  SimConfig cfg = obs_config();
  cfg.scheduler = GetParam();
  World plain(cfg);
  World instrumented(cfg);
  obs::TelemetryRegistry registry;
  instrumented.set_telemetry(&registry);
  EXPECT_EQ(to_json(plain.run()), to_json(instrumented.run()));
  const std::string scope = std::string("planner/") + GetParam();
  EXPECT_GT(registry.timer(scope).count(), 0u) << scope;
}

INSTANTIATE_TEST_SUITE_P(Schedulers, BaselineSchedulerTelemetry,
                         ::testing::Values("nearest-first", "fcfs", "edf"));

// The recluster timer's sub-phases each time every global recluster once.
// Teleport motion (obs_config's default) reclusters on every target move;
// the constructor's recluster runs before the registry is attached.
TEST(Observability, ReclusterPhasesTimeEveryTeleportRecluster) {
  World w(obs_config());
  ASSERT_EQ(w.config().target_motion, TargetMotion::kTeleport);
  obs::TelemetryRegistry registry;
  w.set_telemetry(&registry);
  w.run();
  const std::uint64_t reclusters = registry.timer("activity/recluster").count();
  EXPECT_GT(reclusters, 0u);
  EXPECT_EQ(reclusters, registry.counter("events/popped/target-move").value());
  for (const char* phase :
       {"activity/recluster/cluster", "activity/recluster/routing",
        "activity/recluster/traffic", "activity/recluster/drains",
        "activity/recluster/counters"}) {
    EXPECT_EQ(registry.timer(phase).count(), reclusters) << phase;
  }
}

TEST(Observability, TraceSinkDoesNotPerturb) {
  World plain(obs_config());
  World traced(obs_config());
  std::ostringstream jsonl;
  obs::JsonlTraceSink sink(jsonl);
  traced.set_trace_sink(&sink);
  const MetricsReport a = plain.run();
  const MetricsReport b = traced.run();
  sink.finish();
  expect_same_physics(a, b);
  EXPECT_EQ(to_json(a), to_json(b));
  EXPECT_GT(sink.events_written(), 100u);
  std::istringstream lines(jsonl.str());
  std::string line, error;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(json_validate(line, &error)) << error << ": " << line;
  }
}

TEST(Observability, DisabledTelemetryAddsNoEvents) {
  // A registry that is never attached must stay empty even while other
  // worlds run: scope installation is per-thread and per-run.
  obs::TelemetryRegistry unattached;
  World w(obs_config());
  w.run();
  EXPECT_TRUE(unattached.empty());
  EXPECT_EQ(obs::current_registry(), nullptr);
}

TEST(Observability, TraceEventsCarryEpochAndQueueDepth) {
  World w(obs_config());
  std::size_t events = 0;
  std::size_t max_queue = 0;
  w.set_tracer([&](const World::TraceEvent& ev) {
    ++events;
    max_queue = std::max(max_queue, ev.queue_size);
  });
  w.run();
  EXPECT_GT(events, 100u);
  // A live simulation always has pending events while it runs.
  EXPECT_GT(max_queue, 0u);
}

}  // namespace
}  // namespace wrsn
