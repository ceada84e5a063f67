// TrafficModel (dense slots + pooled path arena) against MapTrafficModel
// (the ordered-map model it replaced, tests/support/map_traffic.hpp).
//
// Both models are driven through the same randomized add_source /
// remove_source / clear_sources / reroute sequences over several route
// tables, unreachable sources included, with the link layer off and on.
// After every operation the two must agree bit for bit on every per-node
// rate and aggregate, write byte-identical checkpoints, and have marked the
// same touched sensors in the same order. The sequences are long enough
// that the arena compacts many times.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/binio.hpp"
#include "core/dirty_set.hpp"
#include "core/rng.hpp"
#include "map_traffic.hpp"
#include "net/deployment.hpp"
#include "net/graph.hpp"
#include "net/routing.hpp"
#include "net/traffic.hpp"

namespace wrsn {
namespace {

constexpr double kCommRange = 14.0;

// One deployment and a handful of route tables over it: every registered
// policy on the full network, plus shortest-path forests with a fifth of
// the sensors dead (their dependants become unreachable sources).
struct Field {
  std::size_t n = 0;
  std::vector<RouteTable> tables;
};

Field make_field(std::size_t n, std::uint64_t seed) {
  Field f;
  f.n = n;
  const double side = std::sqrt(static_cast<double>(n) * 100.0);
  const Vec2 bs{side / 2.0, side / 2.0};
  Xoshiro256 rng(seed);
  std::vector<Vec2> positions = deploy_uniform(n, side, rng);
  const CommGraph graph(positions, bs, kCommRange);
  positions.push_back(bs);
  const auto build = [&](const std::string& policy, const std::vector<bool>& usable) {
    RouteTable table;
    const RoutingBuildInput in{&graph, &positions, &usable};
    RoutingRegistry::instance().create(policy)->build(in, table);
    f.tables.push_back(std::move(table));
  };
  for (const std::string& policy : routing_names()) {
    build(policy, std::vector<bool>(n, true));
  }
  for (int mask = 0; mask < 3; ++mask) {
    std::vector<bool> usable(n, true);
    for (std::size_t s = 0; s < n; ++s) usable[s] = rng.uniform() >= 0.2;
    build("shortest_path", usable);
  }
  f.tables.emplace_back();  // never built: every source is unreachable
  return f;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

template <typename Model>
std::string checkpoint(const Model& m) {
  BinWriter w;
  m.serialize(w);
  return w.take();
}

struct Pair {
  TrafficModel fast;
  MapTrafficModel oracle;
  DirtySet fast_log;
  DirtySet oracle_log;

  Pair(std::size_t n, const LinkConfig& link)
      : fast(n), oracle(n), fast_log(n), oracle_log(n) {
    fast.set_link_model(link, kCommRange);
    oracle.set_link_model(link, kCommRange);
    fast.set_touch_log(&fast_log);
    oracle.set_touch_log(&oracle_log);
  }
};

void expect_same(Pair& p, const std::string& where) {
  const std::size_t n = p.oracle.num_sensors();
  ASSERT_EQ(p.fast.num_sources(), p.oracle.num_sources()) << where;
  for (SensorId s = 0; s < n; ++s) {
    ASSERT_EQ(p.fast.has_source(s), p.oracle.has_source(s)) << where << " s=" << s;
    ASSERT_EQ(bits(p.fast.tx_rate(s)), bits(p.oracle.tx_rate(s))) << where << " s=" << s;
    ASSERT_EQ(bits(p.fast.rx_rate(s)), bits(p.oracle.rx_rate(s))) << where << " s=" << s;
  }
  ASSERT_EQ(bits(p.fast.delivery_rate()), bits(p.oracle.delivery_rate())) << where;
  ASSERT_EQ(bits(p.fast.offered_rate()), bits(p.oracle.offered_rate())) << where;
  ASSERT_EQ(bits(p.fast.average_delivery_hops()),
            bits(p.oracle.average_delivery_hops()))
      << where;
  ASSERT_EQ(checkpoint(p.fast), checkpoint(p.oracle)) << where;
  ASSERT_EQ(p.fast_log.ids(), p.oracle_log.ids()) << where;
  p.fast_log.clear();
  p.oracle_log.clear();
}

struct Case {
  bool link = false;
  std::uint64_t seed = 0;
};

class TrafficEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(TrafficEquivalence, RandomOperationSequencesAreBitIdentical) {
  const Case c = GetParam();
  const std::size_t n = 90;
  const Field field = make_field(n, 0x7aff1cu ^ c.seed);
  LinkConfig link;
  link.enabled = c.link;
  // Lossy enough that hops near the range edge drop every packet
  // (success 0), so non-delivering flows are exercised too.
  link.loss_floor = 0.05;
  link.loss_at_range = 1.1;
  link.max_retx = 3;
  Pair p(n, link);
  Xoshiro256 rng(c.seed);
  const RouteTable* table = &field.tables[0];
  std::size_t compactions = 0;
  std::size_t restores = 0;
  for (int op = 0; op < 6000;) {
    const double roll = rng.uniform();
    const auto s = static_cast<SensorId>(rng.uniform_int(n));
    std::string what;
    if (roll < 0.50) {
      if (p.oracle.has_source(s)) continue;
      // Mostly the paper's rate; sometimes a zero-rate source (registered
      // but never delivering) or an odd one.
      const double pick = rng.uniform();
      const double rate = pick < 0.1 ? 0.0 : pick < 0.8 ? 0.2 : rng.uniform(0.01, 3.0);
      const std::size_t arena_before = p.fast.arena_size();
      p.fast.add_source(*table, s, rate);
      p.oracle.add_source(*table, s, rate);
      if (p.fast.arena_size() < arena_before) ++compactions;
      what = "add " + std::to_string(s);
    } else if (roll < 0.993) {
      if (!p.oracle.has_source(s)) continue;
      p.fast.remove_source(s);
      p.oracle.remove_source(s);
      what = "remove " + std::to_string(s);
    } else if (roll < 0.998) {
      table = &field.tables[rng.uniform_int(field.tables.size())];
      p.fast.reroute(*table);
      p.oracle.reroute(*table);
      what = "reroute";
    } else {
      p.fast.clear_sources();
      p.oracle.clear_sources();
      what = "clear";
    }
    ++op;
    expect_same(p, "op " + std::to_string(op) + " (" + what + ")");
    if (HasFatalFailure()) return;

    if (op % 500 == 250) {
      // A checkpoint the map model wrote restores into a fresh slot model
      // and re-serializes byte-identically, and the run continues from it.
      const std::string bytes = checkpoint(p.oracle);
      TrafficModel restored(n);
      restored.set_link_model(link, kCommRange);
      BinReader r(bytes);
      restored.deserialize(r);
      r.expect_end();
      ASSERT_EQ(checkpoint(restored), bytes);
      restored.set_touch_log(&p.fast_log);
      p.fast = std::move(restored);
      ++restores;
    }
  }
  EXPECT_GE(compactions, 3u) << "the sequence never compacted the arena";
  EXPECT_EQ(restores, 12u);
}

INSTANTIATE_TEST_SUITE_P(
    LinkLayer, TrafficEquivalence,
    ::testing::Values(Case{false, 1}, Case{false, 2}, Case{false, 3},
                      Case{true, 1}, Case{true, 2}, Case{true, 3}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return std::string(param_info.param.link ? "lossy" : "lossless") + "_s" +
             std::to_string(param_info.param.seed);
    });

// Steady-state rotation: one monitor swap per step over a fixed source set
// keeps the arena bounded (compaction reclaims what the swaps leave dead).
TEST(TrafficArena, MonitorSwapsKeepTheArenaBounded) {
  const std::size_t n = 400;
  const Field field = make_field(n, 0xa7e4u);
  const RouteTable& table = field.tables[0];
  TrafficModel fast(n);
  MapTrafficModel oracle(n);
  std::vector<SensorId> monitors;
  for (SensorId s = 0; s < n; s += 20) {
    fast.add_source(table, s, 0.2);
    oracle.add_source(table, s, 0.2);
    monitors.push_back(s);
  }
  const std::size_t live = fast.arena_size();
  Xoshiro256 rng(11);
  std::size_t peak = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::size_t k = rng.uniform_int(monitors.size());
    const SensorId old = monitors[k];
    // The replacement comes from the same block of 20 ids.
    const SensorId next = (old / 20) * 20 + static_cast<SensorId>(rng.uniform_int(20));
    if (next == old) continue;
    fast.remove_source(old);
    oracle.remove_source(old);
    fast.add_source(table, next, 0.2);
    oracle.add_source(table, next, 0.2);
    monitors[k] = next;
    peak = std::max(peak, fast.arena_size());
  }
  EXPECT_EQ(checkpoint(fast), checkpoint(oracle));
  // Dead entries may reach max(live, one per sensor) before a rebuild;
  // without compaction the arena would hold every path ever captured.
  EXPECT_LE(peak, 4 * std::max(live, n));
}

}  // namespace
}  // namespace wrsn
