// Routing-policy equivalence suite. For every non-default routing policy
// (and with the lossy link layer both off and on):
//  - the World and its full-rescan oracle (ReferenceWorld, tests/support/)
//    must stay bit-identical (same report JSON, trace, battery bit
//    patterns), proving the pluggable routing layer feeds both the same
//    forests and drains;
//  - a checkpoint taken mid-run must restore byte-identically, proving the
//    snapshot codec carries the routing knob and the link-layer flow state
//    (per-hop ETX/success captures, offered-rate accumulator) in full.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "reference_world.hpp"
#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

struct Scenario {
  std::string routing;
  bool lossy = false;
  std::uint64_t seed = 0;
};

std::string describe(const Scenario& sc) {
  std::ostringstream os;
  os << "routing=" << sc.routing << " link=" << (sc.lossy ? "lossy" : "off")
     << " seed=" << sc.seed;
  return os.str();
}

// The battery-stressed recipe of the other equivalence suites, with the
// routing policy and link layer under test switched in.
SimConfig eq_config(const Scenario& sc) {
  SimConfig cfg;
  cfg.num_sensors = 36 + (sc.seed % 3) * 12;  // 36..60
  cfg.num_targets = 4;
  cfg.num_rvs = 2;
  cfg.field_side = meters(90.0);
  cfg.sim_duration = hours(3.0);
  cfg.seed = 0xB0A7 + sc.seed * 7919;
  cfg.target_motion = TargetMotion::kRandomWaypoint;
  cfg.target_period = minutes(30.0);
  cfg.target_speed = MeterPerSecond{1.0};
  cfg.scheduler = "combined";
  cfg.routing = sc.routing;
  cfg.battery.capacity = Joule{150.0};
  cfg.radio.listen_duty_cycle = 0.2;
  if (sc.lossy) {
    cfg.link.enabled = true;
    cfg.link.loss_floor = 0.02;
    cfg.link.loss_at_range = 0.35;
    cfg.link.loss_exponent = 2.0;
    cfg.link.max_retx = 3;
    cfg.link.rx_duty_tax = 0.02;
  }
  return cfg;
}

struct RunResult {
  std::string report_json;
  std::vector<World::TraceEvent> trace;
  std::vector<std::uint64_t> battery_bits;
  std::uint64_t events = 0;
};

void harvest(World& w, RunResult& out) {
  out.report_json = to_json(w.report());
  out.battery_bits.clear();
  for (const Sensor& s : w.network().sensors()) {
    out.battery_bits.push_back(
        std::bit_cast<std::uint64_t>(s.battery.level().value()));
  }
  out.events = w.events_processed();
}

RunResult run_engine(const SimConfig& cfg, Engine engine) {
  RunResult out;
  const std::unique_ptr<World> w = make_world(cfg, engine);
  w->set_tracer([&out](const World::TraceEvent& ev) { out.trace.push_back(ev); });
  w->run_until(cfg.sim_duration);
  harvest(*w, out);
  return out;
}

void expect_same(const RunResult& a, const RunResult& b, const std::string& what) {
  EXPECT_EQ(a.report_json, b.report_json) << what;
  EXPECT_EQ(a.battery_bits, b.battery_bits) << what;
  EXPECT_EQ(a.events, b.events) << what;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << what;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const auto& x = a.trace[i];
    const auto& y = b.trace[i];
    ASSERT_TRUE(x.time == y.time && x.kind == y.kind && x.subject == y.subject &&
                x.epoch == y.epoch && x.queue_size == y.queue_size)
        << what << " trace diverges at event " << i;
  }
}

class RoutingEquivalence : public testing::TestWithParam<Scenario> {};

TEST_P(RoutingEquivalence, EnginesAgreeBitForBit) {
  const Scenario& sc = GetParam();
  const SimConfig cfg = eq_config(sc);
  const RunResult inc = run_engine(cfg, Engine::kIncremental);
  const RunResult ref = run_engine(cfg, Engine::kReference);
  ASSERT_GT(inc.events, 2u) << describe(sc);
  expect_same(inc, ref, describe(sc));
}

TEST_P(RoutingEquivalence, MidRunCheckpointRestoresByteIdentically) {
  const Scenario& sc = GetParam();
  const std::string what = describe(sc);
  const SimConfig cfg = eq_config(sc);
  const RunResult golden = run_engine(cfg, Engine::kIncremental);
  ASSERT_GT(golden.events, 2u) << what;

  Xoshiro256 pick = RngStreams(cfg.seed ^ 0x7A7A).stream("snapshot-index");
  const std::uint64_t stop_at = 1 + pick.uniform_int(golden.events - 1);

  RunResult stitched;
  WorldSnapshot snap;
  {
    World w(cfg);
    w.set_tracer(
        [&stitched](const World::TraceEvent& ev) { stitched.trace.push_back(ev); });
    w.set_checkpoint_hook(
        [stop_at](const World& world) { return world.events_processed() >= stop_at; });
    w.run_until(cfg.sim_duration);
    ASSERT_FALSE(w.finished()) << what;
    snap = deserialize_snapshot(serialize_snapshot(w.checkpoint()));
  }

  // The snapshot must carry the policy name: restoring rebuilds routes with
  // the same non-default scheme, and re-checkpointing is a fixed point.
  EXPECT_NE(snap.config_text.find("routing = " + sc.routing), std::string::npos)
      << what;
  {
    World restored(snap);
    const WorldSnapshot again = restored.checkpoint();
    EXPECT_EQ(again.state, snap.state) << what << " (restore is not a fixed point)";
  }

  {
    World w(snap);
    w.set_tracer(
        [&stitched](const World::TraceEvent& ev) { stitched.trace.push_back(ev); });
    w.run_until(cfg.sim_duration);
    EXPECT_TRUE(w.finished()) << what;
    harvest(w, stitched);
  }
  expect_same(golden, stitched, what);
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (const char* routing : {"greedy_geo", "mst_backbone", "cluster_backbone"}) {
    for (const bool lossy : {false, true}) {
      for (std::uint64_t seed = 0; seed < 2; ++seed) {
        out.push_back({routing, lossy, seed});
      }
    }
  }
  // The default policy with the link layer on: shortest_path x lossless is
  // already pinned bit-identically by the snapshot-equivalence suite.
  out.push_back({"shortest_path", true, 0});
  return out;  // 3 x 2 x 2 + 1 = 13 instances
}

std::string scenario_name(const testing::TestParamInfo<Scenario>& info) {
  const Scenario& sc = info.param;
  std::ostringstream os;
  os << sc.routing << "_" << (sc.lossy ? "lossy" : "clean") << "_s" << sc.seed;
  return os.str();
}

INSTANTIATE_TEST_SUITE_P(PoliciesAndLinkLayer, RoutingEquivalence,
                         testing::ValuesIn(scenarios()), scenario_name);

}  // namespace
}  // namespace wrsn
