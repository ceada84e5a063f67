// Checkpoint/restore equivalence: save-at-t then restore-and-run must be
// BYTE-IDENTICAL to an uninterrupted run — report JSON, event trace, final
// battery bit patterns, span files — for the World and its full-rescan
// oracle (ReferenceWorld, tests/support/), with and without fault injection,
// under every registered scheduler (the partition scheduler's grouping memo
// is never serialized, so a restored World starts without it), with the
// snapshot taken at a pseudo-random event index of each run. Any divergence pinpoints
// a member missing from SnapshotAccess::io or a restore that recomputes
// state instead of reinstating it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "net/routing.hpp"
#include "obs/spans.hpp"
#include "reference_world.hpp"
#include "sched/policy.hpp"
#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

struct Scenario {
  std::uint64_t seed = 0;
  Engine engine = Engine::kIncremental;
  bool faults = false;
  std::string scheduler = "combined";
};

std::string describe(const Scenario& sc) {
  std::ostringstream os;
  os << "seed=" << sc.seed
     << " engine=" << engine_name(sc.engine)
     << " faults=" << (sc.faults ? "on" : "off")
     << " scheduler=" << sc.scheduler;
  return os.str();
}

// Small, battery-stressed instances (the test_world_equivalence recipe):
// deaths, recharge tours, target moves and — when enabled — uplink faults,
// breakdowns and hw-fault windows all fire within a short horizon.
SimConfig eq_config(const Scenario& sc) {
  SimConfig cfg;
  cfg.num_sensors = 36 + (sc.seed % 3) * 12;  // 36..60
  cfg.num_targets = 4;
  cfg.num_rvs = 2;
  cfg.field_side = meters(90.0);
  cfg.sim_duration = hours(3.0);
  cfg.seed = 0xC0DE + sc.seed * 7919;
  cfg.target_motion = sc.seed % 2 == 0 ? TargetMotion::kRandomWaypoint
                                       : TargetMotion::kTeleport;
  cfg.target_period = minutes(30.0);
  cfg.target_speed = MeterPerSecond{1.0};
  cfg.scheduler = sc.scheduler;
  cfg.battery.capacity = Joule{150.0};
  cfg.radio.listen_duty_cycle = 0.2;
  if (sc.faults) {
    cfg.fault.enabled = true;
    cfg.fault.request_loss_prob = 0.2;
    cfg.fault.request_delay_prob = 0.1;
    cfg.fault.request_retry_timeout = minutes(5.0);
    cfg.fault.rv_mtbf_hours = 4.0;
    cfg.fault.rv_repair_duration = hours(1.0);
    cfg.fault.sensor_fault_rate_per_day = 4.0;
    cfg.fault.sensor_fault_duration = minutes(30.0);
    cfg.fault.battery_noise_per_day = 0.05;
  }
  return cfg;
}

struct RunResult {
  std::string report_json;
  std::vector<World::TraceEvent> trace;
  std::vector<std::uint64_t> battery_bits;
  std::uint64_t consumed_bits = 0;
  std::uint64_t events = 0;
  std::string span_jsonl;
};

void harvest(World& w, RunResult& out) {
  out.report_json = to_json(w.report());
  out.battery_bits.clear();
  for (const Sensor& s : w.network().sensors()) {
    out.battery_bits.push_back(std::bit_cast<std::uint64_t>(s.battery.level().value()));
  }
  out.consumed_bits = std::bit_cast<std::uint64_t>(w.sensor_energy_consumed().value());
  out.events = w.events_processed();
}

// Uninterrupted golden run.
RunResult run_golden(const SimConfig& cfg, Engine engine) {
  RunResult out;
  std::ostringstream span_out;
  obs::JsonlSpanSink sink(span_out);
  obs::SpanLog spans(&sink);
  const std::unique_ptr<World> w = make_world(cfg, engine);
  w->set_tracer([&out](const World::TraceEvent& ev) { out.trace.push_back(ev); });
  w->set_span_log(&spans);
  w->run_until(cfg.sim_duration);
  spans.finish(w->now().value());
  harvest(*w, out);
  out.span_jsonl = span_out.str();
  return out;
}

// Everything after the first line (the sink's meta record): a restored run
// opens a fresh sink, so its meta line is a duplicate when stitching.
std::string strip_meta_line(const std::string& jsonl) {
  const auto nl = jsonl.find('\n');
  return nl == std::string::npos ? std::string{} : jsonl.substr(nl + 1);
}

void expect_same(const RunResult& golden, const RunResult& got,
                 const std::string& what) {
  EXPECT_EQ(golden.report_json, got.report_json) << what;
  EXPECT_EQ(golden.battery_bits, got.battery_bits) << what;
  EXPECT_EQ(golden.consumed_bits, got.consumed_bits) << what;
  EXPECT_EQ(golden.events, got.events) << what;
  ASSERT_EQ(golden.trace.size(), got.trace.size()) << what;
  for (std::size_t i = 0; i < golden.trace.size(); ++i) {
    const auto& a = golden.trace[i];
    const auto& b = got.trace[i];
    ASSERT_TRUE(a.time == b.time && a.kind == b.kind && a.subject == b.subject &&
                a.epoch == b.epoch && a.queue_size == b.queue_size)
        << what << " trace diverges at event " << i;
  }
  EXPECT_EQ(golden.span_jsonl, got.span_jsonl) << what;
}

void expect_checkpoint_equivalent(const Scenario& sc) {
  const std::string what = describe(sc);
  const SimConfig cfg = eq_config(sc);
  const RunResult golden = run_golden(cfg, sc.engine);
  ASSERT_GT(golden.events, 2u) << what;

  // Snapshot index: pseudo-random in (0, events), derived from the scenario
  // so every instance stops somewhere else.
  Xoshiro256 pick = RngStreams(cfg.seed ^ 0x5A5A).stream("snapshot-index");
  const std::uint64_t stop_at = 1 + pick.uniform_int(golden.events - 1);

  // Part 1: run to the stop index, checkpoint, serialize through the full
  // file codec.
  RunResult stitched;
  std::ostringstream span_part1;
  WorldSnapshot snap;
  {
    obs::JsonlSpanSink sink(span_part1);
    obs::SpanLog spans(&sink);
    const std::unique_ptr<World> w = make_world(cfg, sc.engine);
    w->set_tracer(
        [&stitched](const World::TraceEvent& ev) { stitched.trace.push_back(ev); });
    w->set_span_log(&spans);
    w->set_checkpoint_hook(
        [stop_at](const World& world) { return world.events_processed() >= stop_at; });
    w->run_until(cfg.sim_duration);
    ASSERT_FALSE(w->finished()) << what;
    ASSERT_EQ(w->events_processed(), stop_at) << what;
    snap = deserialize_snapshot(serialize_snapshot(w->checkpoint()));
    sink.finish();
  }

  // Restore → re-checkpoint must be a fixed point (proves load reinstates
  // exactly what save captured, with nothing recomputed differently).
  {
    const std::unique_ptr<World> restored = restore_world(snap, sc.engine);
    const WorldSnapshot again = restored->checkpoint();
    EXPECT_EQ(again.state, snap.state) << what << " (restore is not a fixed point)";
    EXPECT_EQ(again.now, snap.now) << what;
    EXPECT_EQ(again.config_text, snap.config_text) << what;
  }

  // Part 2: restore into a fresh world (fresh span log deserialized from the
  // snapshot, fresh sinks) and run to the horizon.
  std::ostringstream span_part2;
  {
    obs::JsonlSpanSink sink(span_part2);
    obs::SpanLog spans(&sink);
    if (!snap.span_state.empty()) {
      BinReader r(snap.span_state);
      spans.deserialize(r);
      r.expect_end();
    }
    const std::unique_ptr<World> w = restore_world(snap, sc.engine);
    w->set_tracer(
        [&stitched](const World::TraceEvent& ev) { stitched.trace.push_back(ev); });
    w->set_span_log(&spans);
    w->run_until(cfg.sim_duration);
    EXPECT_TRUE(w->finished()) << what;
    spans.finish(w->now().value());
    harvest(*w, stitched);
  }
  stitched.span_jsonl = span_part1.str() + strip_meta_line(span_part2.str());
  expect_same(golden, stitched, what);
}

class SnapshotEquivalence : public testing::TestWithParam<Scenario> {};

TEST_P(SnapshotEquivalence, RestoredRunIsByteIdentical) {
  expect_checkpoint_equivalent(GetParam());
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (const std::string& scheduler : scheduler_names()) {
    for (const Engine engine : {Engine::kIncremental, Engine::kReference}) {
      for (const bool faults : {false, true}) {
        for (std::uint64_t seed = 0; seed < 5; ++seed) {
          out.push_back({seed, engine, faults, scheduler});
        }
      }
    }
  }
  return out;  // schedulers x 2 engines x 2 fault modes x 5 seeds (6 x 20 = 120)
}

std::string scenario_name(const testing::TestParamInfo<Scenario>& info) {
  const Scenario& sc = info.param;
  std::ostringstream os;
  // The combined instances keep their original, scheduler-less names.
  if (sc.scheduler != "combined") os << sc.scheduler << "_";
  os << (sc.engine == Engine::kIncremental ? "inc" : "ref") << "_"
     << (sc.faults ? "faults" : "clean") << "_s" << sc.seed;
  std::string name = os.str();
  std::replace(name.begin(), name.end(), '-', '_');  // gtest names: [A-Za-z0-9_]
  return name;
}

INSTANTIATE_TEST_SUITE_P(EnginesAndFaults, SnapshotEquivalence,
                         testing::ValuesIn(scenarios()), scenario_name);

// A randomized valid config: scheduler, routing policy, activation, target
// motion, faults and the lossy link layer drawn independently, sizes and
// rates drawn around the eq_config recipe.
SimConfig random_config(Xoshiro256& rng) {
  const auto pick = [&rng](const auto& options) {
    return options[rng.uniform_int(options.size())];
  };
  SimConfig cfg = eq_config({rng.uniform_int(3), Engine::kIncremental,
                             rng.uniform_int(2) == 1, pick(scheduler_names())});
  cfg.routing = pick(routing_names());
  cfg.activation = rng.uniform_int(2) == 0 ? ActivationPolicy::kRoundRobin
                                           : ActivationPolicy::kFullTime;
  cfg.target_motion = rng.uniform_int(2) == 0 ? TargetMotion::kRandomWaypoint
                                              : TargetMotion::kTeleport;
  cfg.num_sensors = 30 + rng.uniform_int(40);
  cfg.num_targets = 2 + rng.uniform_int(4);
  cfg.num_rvs = 1 + rng.uniform_int(3);
  cfg.seed = rng.next();
  if (rng.uniform_int(2) == 1) {
    cfg.link.enabled = true;
    cfg.link.loss_floor = rng.uniform(0.0, 0.1);
    cfg.link.loss_at_range = rng.uniform(0.1, 0.5);
    cfg.link.max_retx = 1 + rng.uniform_int(4);
    cfg.link.rx_duty_tax = rng.uniform(0.0, 0.2);
  }
  cfg.validate();
  return cfg;
}

// Property: for random valid configs, stopping at a random event, going
// through the file codec and restoring (into the World or its full-rescan
// oracle) is invisible. The restored world re-serializes to the bytes it
// was restored from, and at the horizon its report JSON and its whole
// snapshot file equal the uninterrupted World's.
TEST(SnapshotEquivalence, RandomConfigsRestoreMidRunInvisibly) {
  Xoshiro256 rng(0x5eed5);
  for (int draw = 0; draw < 120; ++draw) {
    const SimConfig cfg = random_config(rng);
    const Engine engine = rng.uniform_int(2) == 0 ? Engine::kIncremental
                                                  : Engine::kReference;
    std::ostringstream what;
    what << "draw " << draw << " engine=" << engine_name(engine)
         << " scheduler=" << cfg.scheduler << " routing=" << cfg.routing
         << " activation=" << to_string(cfg.activation)
         << " faults=" << cfg.fault.enabled << " lossy=" << cfg.link.enabled;

    World golden(cfg);
    golden.run_until(cfg.sim_duration);
    ASSERT_GT(golden.events_processed(), 2u) << what.str();
    const std::uint64_t stop_at = 1 + rng.uniform_int(golden.events_processed() - 1);

    World first(cfg);
    first.set_checkpoint_hook(
        [stop_at](const World& w) { return w.events_processed() >= stop_at; });
    first.run_until(cfg.sim_duration);
    ASSERT_EQ(first.events_processed(), stop_at) << what.str();
    const std::string bytes = serialize_snapshot(first.checkpoint());

    const std::unique_ptr<World> restored =
        restore_world(deserialize_snapshot(bytes), engine);
    ASSERT_EQ(serialize_snapshot(restored->checkpoint()), bytes)
        << what.str() << ": restore is not a fixed point";
    restored->run_until(cfg.sim_duration);
    ASSERT_TRUE(restored->finished()) << what.str();
    EXPECT_EQ(to_json(restored->report()), to_json(golden.report())) << what.str();
    EXPECT_EQ(serialize_snapshot(restored->checkpoint()),
              serialize_snapshot(golden.checkpoint()))
        << what.str();
  }
}

// Restore's cross-field checks (clusters against rotors, monitors and the
// sensors' target mirrors) must accept every valid state: a checkpoint after
// every event of runs under both motions, both activation policies and
// faults on and off restores without a complaint.
TEST(SnapshotEquivalence, EveryCheckpointOfARunRestores) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    for (const bool faults : {false, true}) {
      for (const ActivationPolicy activation :
           {ActivationPolicy::kRoundRobin, ActivationPolicy::kFullTime}) {
        SimConfig cfg = eq_config({seed, Engine::kIncremental, faults});
        cfg.activation = activation;
        World w(cfg);
        std::size_t restored = 0;
        w.set_checkpoint_hook([&](const World& world) {
          try {
            const World back(world.checkpoint());
            ++restored;
          } catch (const InvalidArgument& e) {
            ADD_FAILURE() << "seed=" << seed << " faults=" << faults
                          << " activation=" << to_string(activation) << " at t="
                          << world.now().value() << ": " << e.what();
            return true;
          }
          return false;
        });
        w.run_until(cfg.sim_duration);
        EXPECT_EQ(restored, w.events_processed());
      }
    }
  }
}

// Resuming the SAME world object after a hook stop (hook cleared) must also
// match the golden run: checkpoint capture is observational.
TEST(SnapshotEquivalence, InProcessResumeAfterHookStop) {
  const Scenario sc{3, Engine::kIncremental, true};
  const SimConfig cfg = eq_config(sc);
  const RunResult golden = run_golden(cfg, sc.engine);
  ASSERT_GT(golden.events, 2u);

  RunResult resumed;
  std::ostringstream span_out;
  obs::JsonlSpanSink sink(span_out);
  obs::SpanLog spans(&sink);
  World w(cfg);
  w.set_tracer([&resumed](const World::TraceEvent& ev) { resumed.trace.push_back(ev); });
  w.set_span_log(&spans);
  const std::uint64_t stop_at = golden.events / 2;
  w.set_checkpoint_hook(
      [stop_at](const World& world) { return world.events_processed() >= stop_at; });
  w.run_until(cfg.sim_duration);
  ASSERT_FALSE(w.finished());
  (void)w.checkpoint();  // capture and discard: must not perturb the run
  w.set_checkpoint_hook(nullptr);
  w.run_until(cfg.sim_duration);
  ASSERT_TRUE(w.finished());
  spans.finish(w.now().value());
  harvest(w, resumed);
  resumed.span_jsonl = span_out.str();
  expect_same(golden, resumed, "in-process resume");
}

// A snapshot taken between run_until calls (settled horizon, no hook) also
// restores byte-identically. The golden here is the same SPLIT run without a
// snapshot: run_until(1h) settles batteries at the 1h horizon, which regroups
// the lazy-settlement FP sums at ULP level relative to one uninterrupted
// run_until(3h) — a pre-existing property of horizon settlement, orthogonal
// to checkpointing. Snapshotting must add no divergence on top of it.
TEST(SnapshotEquivalence, QuiescentSnapshotBetweenRuns) {
  const Scenario sc{1, Engine::kIncremental, false};
  const SimConfig cfg = eq_config(sc);
  RunResult golden;
  {
    World w(cfg);
    w.run_until(hours(1.0));
    w.run_until(cfg.sim_duration);
    harvest(w, golden);
  }

  std::ostringstream span_dummy;
  obs::JsonlSpanSink sink(span_dummy);
  obs::SpanLog spans(&sink);
  World w(cfg);
  w.set_span_log(&spans);
  w.run_until(hours(1.0));
  const WorldSnapshot snap =
      deserialize_snapshot(serialize_snapshot(w.checkpoint()));

  std::ostringstream span2;
  obs::JsonlSpanSink sink2(span2);
  obs::SpanLog spans2(&sink2);
  BinReader r(snap.span_state);
  spans2.deserialize(r);
  World restored(snap);
  restored.set_span_log(&spans2);
  restored.run_until(cfg.sim_duration);
  EXPECT_TRUE(restored.finished());
  RunResult got;
  harvest(restored, got);
  EXPECT_EQ(golden.report_json, got.report_json);
  EXPECT_EQ(golden.battery_bits, got.battery_bits);
}

}  // namespace
}  // namespace wrsn
