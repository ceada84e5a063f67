// In-place repair of the shortest_path forest (RoutingPolicy::repair)
// against a fresh full build. Random death / revival sequences, single and
// multi-flip, run over random fields, lattices whose routes tie exactly,
// lattices with co-located nodes (one sensor on the base station included)
// and lattices with nearly co-located twins. After every step the repaired
// table must equal a full build bit for bit (distances, parents, hop
// lengths, hop depths) and its child links must match its parents. A
// World-level case checks the forest and the traffic flow counts after
// every event, and the routing counters are pinned on a fixed instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "net/deployment.hpp"
#include "net/graph.hpp"
#include "net/routing.hpp"
#include "obs/telemetry.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

struct Field {
  std::vector<Vec2> sensors;
  Vec2 bs;
  double range = 0.0;
};

// Names the first node where two tables differ, for the failure message.
std::string first_difference(const RouteTable& got, const RouteTable& want) {
  for (std::size_t v = 0; v < want.num_nodes(); ++v) {
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    if (got.next_hop(v) != want.next_hop(v) ||
        bits(got.distance_to_base(v)) != bits(want.distance_to_base(v)) ||
        bits(got.hop_length(v)) != bits(want.hop_length(v)) ||
        got.hop_depth(v) != want.hop_depth(v)) {
      std::ostringstream os;
      os << "node " << v << ": parent " << got.next_hop(v) << " vs "
         << want.next_hop(v) << ", dist " << got.distance_to_base(v) << " vs "
         << want.distance_to_base(v) << ", depth " << got.hop_depth(v) << " vs "
         << want.hop_depth(v);
      return os.str();
    }
  }
  return "none";
}

struct RepairStats {
  std::size_t repairs = 0;
  std::size_t fallbacks = 0;
};

// Drives `steps` random flip sets of 1..max_flips sensors over the field,
// repairing one table and checking it against a full build after each.
// A `near_bs` share of the flips come from the base station's neighbours,
// so relays with large subtrees die and revive often.
RepairStats run_flips(const Field& f, std::uint64_t seed, std::size_t steps,
                      std::size_t max_flips, const std::string& what,
                      double near_bs_share = 0.5) {
  const CommGraph graph(f.sensors, f.bs, f.range);
  std::vector<Vec2> positions = f.sensors;
  positions.push_back(f.bs);
  const std::size_t n = f.sensors.size();
  std::vector<std::size_t> near_bs;
  for (const CommGraph::Edge& e : graph.neighbors(graph.base_station_index())) {
    near_bs.push_back(e.to);
  }
  Xoshiro256 rng(seed);
  std::vector<bool> usable(n, true);
  for (std::size_t s = 0; s < n; ++s) usable[s] = rng.uniform() < 0.9;
  const auto policy = RoutingRegistry::instance().create("shortest_path");
  const RoutingBuildInput in{&graph, &positions, &usable};
  RouteTable table;
  policy->build(in, table);

  RepairStats stats;
  std::vector<std::size_t> flipped;
  for (std::size_t step = 0; step < steps; ++step) {
    flipped.clear();
    const std::size_t count = 1 + rng.uniform_int(max_flips);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t s = !near_bs.empty() && rng.uniform() < near_bs_share
                                ? near_bs[rng.uniform_int(near_bs.size())]
                                : rng.uniform_int(n);
      if (std::find(flipped.begin(), flipped.end(), s) != flipped.end()) continue;
      flipped.push_back(s);
      usable[s] = !usable[s];
    }
    if (policy->repair(in, flipped, table)) {
      ++stats.repairs;
    } else {
      ++stats.fallbacks;
      policy->build(in, table);
    }
    RouteTable fresh;
    policy->build(in, fresh);
    if (!table.same_forest(fresh)) {
      ADD_FAILURE() << what << " step " << step << ": repaired forest differs at "
                    << first_difference(table, fresh);
      return stats;
    }
    if (!table.links_consistent()) {
      ADD_FAILURE() << what << " step " << step << ": child links disagree with parents";
      return stats;
    }
  }
  return stats;
}

Field random_field(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const double side = 100.0;
  return {deploy_uniform(n, side, rng), Vec2{side / 2.0, side / 2.0}, 18.0};
}

// A k x k lattice of unit spacing with the base station on its centre
// point. Range 1.5 links the 8 neighbours (lengths 1 and sqrt 2), so many
// routes tie exactly; the centre point itself holds no sensor unless
// `on_bs` asks for one. `copies` adds co-located duplicates of every
// seventh lattice point.
Field lattice(std::size_t k, bool on_bs, std::size_t copies) {
  Field f;
  const double c = static_cast<double>(k / 2);
  f.bs = Vec2{c, c};
  f.range = 1.5;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const Vec2 p{static_cast<double>(i), static_cast<double>(j)};
      if (p.x == c && p.y == c && !on_bs) continue;
      f.sensors.push_back(p);
    }
  }
  const std::size_t points = f.sensors.size();
  for (std::size_t d = 0; d < copies; ++d) f.sensors.push_back(f.sensors[d * 7 % points]);
  return f;
}

TEST(RoutingRepair, RandomFieldsMatchFullBuild) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string what = "random field seed " + std::to_string(seed);
    const RepairStats single = run_flips(random_field(80 + 20 * seed, seed), seed, 300, 1, what);
    EXPECT_EQ(single.fallbacks, 0u) << what;
    EXPECT_GT(single.repairs, 0u) << what;
    const RepairStats multi =
        run_flips(random_field(80 + 20 * seed, seed), seed ^ 0xabcdu, 300, 4, what + " multi");
    EXPECT_EQ(multi.fallbacks, 0u) << what;
  }
}

TEST(RoutingRepair, LatticesWithExactTiesMatchFullBuild) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string what = "lattice seed " + std::to_string(seed);
    const Field f = lattice(9 + 2 * (seed % 3), false, 0);
    const RepairStats stats = run_flips(f, seed, 400, 1 + seed % 4, what);
    EXPECT_EQ(stats.fallbacks, 0u) << what;
    EXPECT_GT(stats.repairs, 0u) << what;
  }
}

TEST(RoutingRepair, CoLocatedNodesMatchFullBuild) {
  std::size_t fallbacks = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string what = "co-located lattice seed " + std::to_string(seed);
    const Field f = lattice(9 + 2 * (seed % 2), /*on_bs=*/true, 6 + seed);
    fallbacks += run_flips(f, seed, 400, 1 + seed % 3, what).fallbacks;
  }
  // A hop that adds nothing (a sensor on the base station or on another
  // sensor) must send some repairs to the full build.
  EXPECT_GT(fallbacks, 0u);
}

TEST(RoutingRepair, NearlyCoLocatedNodesMatchFullBuild) {
  // A few lattice points get a twin shifted by less than a distance's
  // rounding unit, and the ids are shuffled: the twin's hop can vanish in
  // the sum (fl(d + len) == d) or survive it, depending on d, and the full
  // run then settles the later twin out of (distance, id) order.
  // Draw 151 re-parents a node whose old hop added nothing.
  std::size_t fallbacks = 0;
  for (std::uint64_t seed = 121; seed <= 180; ++seed) {
    const std::string what = "nearly co-located lattice seed " + std::to_string(seed);
    Field f = lattice(9 + 2 * (seed % 3), /*on_bs=*/false, 0);
    f.bs = Vec2{0.0, 0.0};
    Xoshiro256 rng(seed * 31);
    const std::size_t points = f.sensors.size();
    for (std::size_t d = 0; d < 2 + seed % 4; ++d) {
      const Vec2 p = f.sensors[rng.uniform_int(points)];
      const double eps = rng.uniform(0.5, 8.0) * 1e-16;
      f.sensors.push_back(
          Vec2{p.x + eps * rng.uniform(-1.0, 1.0), p.y + eps * rng.uniform(-1.0, 1.0)});
    }
    for (std::size_t i = f.sensors.size(); i > 1; --i) {
      std::swap(f.sensors[i - 1], f.sensors[rng.uniform_int(i)]);
    }
    fallbacks += run_flips(f, seed, 300, 1 + seed % 3, what).fallbacks;
  }
  EXPECT_GT(fallbacks, 0u);
}

TEST(RoutingRepair, TieAgainstAParentWhoseHopAddedNothing) {
  // A 7 x 7 unit lattice with the base station off it, six nearly
  // co-located twins and shuffled ids. At step 10 of this draw a tie is
  // decided against a parent whose own hop added nothing: the full run
  // settles that parent after the challenger, so only a full build gets
  // the child right.
  Field f;
  f.bs = Vec2{0.5, 0.25};
  f.range = 1.5;
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 7; ++j) {
      f.sensors.push_back(Vec2{static_cast<double>(i), static_cast<double>(j)});
    }
  }
  const std::uint64_t seed = 1004;
  Xoshiro256 rng(seed * 31 + 5);
  const std::size_t points = f.sensors.size();
  for (int d = 0; d < 6; ++d) {
    const Vec2 p = f.sensors[rng.uniform_int(points)];
    const double eps = rng.uniform(0.5, 8.0) * 1e-16;
    f.sensors.push_back(
        Vec2{p.x + eps * rng.uniform(-1.0, 1.0), p.y + eps * rng.uniform(-1.0, 1.0)});
  }
  for (std::size_t i = f.sensors.size(); i > 1; --i) {
    std::swap(f.sensors[i - 1], f.sensors[rng.uniform_int(i)]);
  }
  EXPECT_GT(run_flips(f, seed, 20, 3, "off-lattice base station", 0.3).fallbacks, 0u);
}

TEST(RoutingRepair, RepairRewritesOnlyTheSubtree) {
  // A line: 0 - 1 - 2 - BS. Node 1 dies: 0 and 1 go unreachable, 2 keeps
  // its route. Then it revives and both come back.
  const std::vector<Vec2> pos = {{0, 0}, {10, 0}, {20, 0}, {30, 0}};
  const CommGraph graph({pos[0], pos[1], pos[2]}, pos[3], 12.0);
  std::vector<bool> usable = {true, true, true};
  const auto policy = RoutingRegistry::instance().create("shortest_path");
  const RoutingBuildInput in{&graph, &pos, &usable};
  RouteTable table;
  policy->build(in, table);
  EXPECT_FALSE(table.children_linked());
  const std::size_t one[] = {1};
  usable[1] = false;
  ASSERT_TRUE(policy->repair(in, one, table));
  EXPECT_TRUE(table.children_linked());
  EXPECT_EQ(table.repaired_nodes(), 2u);
  EXPECT_FALSE(table.reachable(0));
  EXPECT_FALSE(table.reachable(1));
  EXPECT_EQ(table.next_hop(2), 3u);
  EXPECT_EQ(table.hop_depth(0), 0u);
  EXPECT_EQ(table.hop_length(0), 0.0);
  usable[1] = true;
  ASSERT_TRUE(policy->repair(in, one, table));
  EXPECT_EQ(table.repaired_nodes(), 2u);
  EXPECT_EQ(table.path_to_base(0), (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(table.hop_depth(0), 3u);
  EXPECT_DOUBLE_EQ(table.distance_to_base(0), 30.0);
}

TEST(RoutingRepair, OtherPoliciesDeclineToRepair) {
  const Field f = random_field(60, 3);
  const CommGraph graph(f.sensors, f.bs, f.range);
  std::vector<Vec2> positions = f.sensors;
  positions.push_back(f.bs);
  std::vector<bool> usable(f.sensors.size(), true);
  const RoutingBuildInput in{&graph, &positions, &usable};
  const std::size_t flipped[] = {5};
  for (const std::string& name : routing_names()) {
    if (name == "shortest_path") continue;
    const auto policy = RoutingRegistry::instance().create(name);
    RouteTable table;
    policy->build(in, table);
    usable[5] = false;
    EXPECT_FALSE(policy->repair(in, flipped, table)) << name;
    usable[5] = true;
  }
}

// The battery-stressed recipe of the equivalence suites: sensors die and
// RVs revive them throughout the run.
SimConfig stressed_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.num_sensors = 60;
  cfg.num_targets = 4;
  cfg.num_rvs = 2;
  cfg.field_side = meters(90.0);
  cfg.sim_duration = hours(48.0);
  cfg.seed = 0xB0A7 + seed * 7919;
  cfg.target_motion = TargetMotion::kRandomWaypoint;
  cfg.target_period = minutes(30.0);
  cfg.target_speed = MeterPerSecond{1.0};
  cfg.scheduler = "combined";
  cfg.battery.capacity = Joule{150.0};
  cfg.radio.listen_duty_cycle = 0.2;
  return cfg;
}

TEST(RoutingRepair, WorldForestAndFlowsStayExact) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const SimConfig cfg = stressed_config(seed);
    World w(cfg);
    const Network& net = w.network();
    const auto policy = RoutingRegistry::instance().create(cfg.routing);
    std::vector<Vec2> positions;
    for (const Sensor& s : net.sensors()) positions.push_back(s.pos);
    positions.push_back(net.base_station());
    std::vector<bool> mask = net.last_alive_mask();
    std::size_t changes = 0;
    std::size_t events = 0;
    w.set_tracer([&](const World::TraceEvent&) {
      ++events;
      if (net.last_alive_mask() == mask) return;
      mask = net.last_alive_mask();
      ++changes;
      RouteTable fresh;
      policy->build({&net.graph(), &positions, &mask}, fresh);
      ASSERT_TRUE(net.routing().same_forest(fresh))
          << "seed " << seed << " event " << events << ": "
          << first_difference(net.routing(), fresh);
      ASSERT_TRUE(net.routing().links_consistent()) << "seed " << seed;
      ASSERT_TRUE(w.traffic().counts_match(net.routing()))
          << "seed " << seed << " event " << events;
    });
    w.run_until(cfg.sim_duration);
    EXPECT_GT(changes, 10u) << "seed " << seed;
  }
}

TEST(RoutingRepair, CountersArePinned) {
  // Fixed instance: every routing change is a repair (no co-located
  // nodes), so full-builds stays 0 (the start-up build precedes the
  // registry), and the node count is deterministic.
  const SimConfig cfg = stressed_config(1);
  World w(cfg);
  obs::TelemetryRegistry registry;
  w.set_telemetry(&registry);
  std::vector<bool> mask = w.network().last_alive_mask();
  std::uint64_t changes = 0;
  w.set_tracer([&](const World::TraceEvent&) {
    if (w.network().last_alive_mask() == mask) return;
    mask = w.network().last_alive_mask();
    ++changes;
  });
  w.run_until(cfg.sim_duration);
  const std::uint64_t repairs = registry.counter("routing/repairs").value();
  EXPECT_EQ(repairs, changes);
  EXPECT_EQ(registry.counter("routing/full-builds").value(), 0u);
  EXPECT_EQ(repairs, 114u);
  EXPECT_EQ(registry.counter("routing/repaired-nodes").value(), 174u);

  // A policy that cannot repair counts every change as a full build.
  SimConfig mst = cfg;
  mst.routing = "mst_backbone";
  World m(mst);
  obs::TelemetryRegistry mst_registry;
  m.set_telemetry(&mst_registry);
  m.run_until(mst.sim_duration);
  EXPECT_EQ(mst_registry.counter("routing/repairs").value(), 0u);
  EXPECT_GT(mst_registry.counter("routing/full-builds").value(), 0u);
  EXPECT_EQ(mst_registry.counter("routing/repaired-nodes").value(), 0u);
}

}  // namespace
}  // namespace wrsn
