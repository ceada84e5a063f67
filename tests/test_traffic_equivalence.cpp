// TrafficModel (flow counts along the routing forest, swaps that walk only
// the branches below the meeting node) against MapTrafficModel (captured
// paths, tests/support/map_traffic.hpp), and swap_source against
// remove_source plus add_source.
//
// Both models are driven through the same randomized add / remove / swap /
// reroute sequences over several route tables, unreachable sources
// included, with the link layer off and on and one packet rate per model.
// The forest changes only through a reroute (retract_all() on the old
// forest, readd_all() on the new one), so the flows always follow it.
// After every operation the two must agree bit for bit on every per-node
// rate and aggregate and write byte-identical checkpoints. Adds, removes and
// reroutes must have marked the same touched sensors in the same order; a
// swap may mark fewer, but never misses a sensor whose rates it changed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/binio.hpp"
#include "core/dirty_set.hpp"
#include "core/error.hpp"
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

LinkConfig lossy_link(bool enabled) {
  LinkConfig link;
  link.enabled = enabled;
  // Lossy enough that hops near the range edge drop every packet
  // (success 0), so non-delivering flows are exercised too.
  link.loss_floor = 0.05;
  link.loss_at_range = 1.1;
  link.max_retx = 3;
  return link;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string checkpoint(const TrafficModel& m, const RouteTable& routes) {
  BinWriter w;
  m.serialize(w, routes);
  return w.take();
}

std::string checkpoint(const MapTrafficModel& m) {
  BinWriter w;
  m.serialize(w);
  return w.take();
}

struct Pair {
  TrafficModel fast;
  MapTrafficModel oracle;
  DirtySet fast_log;
  DirtySet oracle_log;

  Pair(std::size_t n, double rate, const LinkConfig& link)
      : fast(n, rate), oracle(n, rate), fast_log(n), oracle_log(n) {
    fast.set_link_model(link, kCommRange);
    oracle.set_link_model(link, kCommRange);
    fast.set_touch_log(&fast_log);
    oracle.set_touch_log(&oracle_log);
  }
};

// A swap must have marked every sensor whose rates it changed, and only
// sensors the oracle's full-path remove plus add marked.
void expect_swap_marks(const Pair& p, const std::vector<double>& tx_before,
                       const std::vector<double>& rx_before, const std::string& where) {
  for (const std::size_t s : p.fast_log.ids()) {
    ASSERT_TRUE(p.oracle_log.contains(s)) << where << " marked s=" << s;
  }
  for (SensorId s = 0; s < tx_before.size(); ++s) {
    if (bits(p.fast.tx_rate(s)) != bits(tx_before[s]) ||
        bits(p.fast.rx_rate(s)) != bits(rx_before[s])) {
      ASSERT_TRUE(p.fast_log.contains(s)) << where << " missed s=" << s;
    }
  }
}

void expect_same(Pair& p, const RouteTable& routes, const std::string& where,
                 bool same_marks) {
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
  ASSERT_EQ(checkpoint(p.fast, routes), checkpoint(p.oracle)) << where;
  ASSERT_TRUE(p.fast.counts_match(routes)) << where;
  if (same_marks) {
    ASSERT_EQ(p.fast_log.ids(), p.oracle_log.ids()) << where;
  }
  p.fast_log.clear();
  p.oracle_log.clear();
}

struct Case {
  bool link = false;
  std::uint64_t seed = 0;
};

// One packet rate per model, by seed: the paper's 15 pkt/min (0.25, exact
// in binary) and two rates that are not.
double case_rate(const Case& c) {
  return c.seed == 1 ? 0.2 : c.seed == 2 ? 0.25 : 1.37;
}

class TrafficEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(TrafficEquivalence, RandomOperationSequencesAreBitIdentical) {
  const Case c = GetParam();
  const std::size_t n = 90;
  const Field field = make_field(n, 0x7aff1cu ^ c.seed);
  const LinkConfig link = lossy_link(c.link);
  const double rate = case_rate(c);
  Pair p(n, rate, link);
  Xoshiro256 rng(c.seed);
  const RouteTable* table = &field.tables[0];
  std::vector<SensorId> sources;
  std::vector<double> tx_before(n);
  std::vector<double> rx_before(n);
  std::size_t swaps = 0;
  std::size_t restores = 0;
  for (int op = 0; op < 6000;) {
    const double roll = rng.uniform();
    const auto s = static_cast<SensorId>(rng.uniform_int(n));
    std::string what;
    bool same_marks = true;
    if (roll < 0.40) {
      if (p.oracle.has_source(s)) continue;
      p.fast.add_source(*table, s);
      p.oracle.add_source(*table, s);
      what = "add " + std::to_string(s);
    } else if (roll < 0.70) {
      if (!p.oracle.has_source(s)) continue;
      p.fast.remove_source(*table, s);
      p.oracle.remove_source(s);
      what = "remove " + std::to_string(s);
    } else if (roll < 0.995) {
      // Hand a random flow to s.
      if (p.oracle.has_source(s) || p.oracle.num_sources() == 0) continue;
      sources.clear();
      for (SensorId k = 0; k < n; ++k) {
        if (p.oracle.has_source(k)) sources.push_back(k);
      }
      const SensorId old = sources[rng.uniform_int(sources.size())];
      for (SensorId k = 0; k < n; ++k) {
        tx_before[k] = p.fast.tx_rate(k);
        rx_before[k] = p.fast.rx_rate(k);
      }
      p.fast.swap_source(*table, old, s);
      p.oracle.remove_source(old);
      p.oracle.add_source(*table, s);
      expect_swap_marks(p, tx_before, rx_before, "swap");
      if (HasFatalFailure()) return;
      same_marks = false;
      ++swaps;
      what = "swap " + std::to_string(old) + " -> " + std::to_string(s);
    } else {
      const RouteTable* next = &field.tables[rng.uniform_int(field.tables.size())];
      p.fast.retract_all(*table);
      p.fast.readd_all(*next);
      p.oracle.reroute(*next);
      table = next;
      what = "reroute";
    }
    ++op;
    expect_same(p, *table, "op " + std::to_string(op) + " (" + what + ")", same_marks);
    if (HasFatalFailure()) return;

    if (op % 500 == 250) {
      // A checkpoint the map model wrote restores into a fresh model and
      // re-serializes byte-identically, and the run continues from it.
      const std::string bytes = checkpoint(p.oracle);
      TrafficModel restored(n, rate);
      restored.set_link_model(link, kCommRange);
      BinReader r(bytes);
      restored.deserialize(r, *table);
      r.expect_end();
      ASSERT_EQ(checkpoint(restored, *table), bytes);
      restored.set_touch_log(&p.fast_log);
      p.fast = std::move(restored);
      ++restores;
    }
  }
  EXPECT_GE(swaps, 1000u);
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

// swap_source against remove_source + add_source on every table of the
// field, lossless and lossy: random swaps between spatial neighbours plus,
// for every node two or more hops out, a swap with its own next hop in
// both directions, so the meeting node is the old source and the new one.
// Tables with dead relays and the unbuilt table give unreachable ends.
TEST(TrafficSwap, EqualsRemovePlusAddUnderEveryPolicy) {
  const std::size_t n = 120;
  const Field field = make_field(n, 0x5a4b);
  for (const bool link : {false, true}) {
    std::size_t old_meets = 0;
    std::size_t new_meets = 0;
    std::size_t unreachable = 0;
    for (std::size_t k = 0; k < field.tables.size(); ++k) {
      const RouteTable& table = field.tables[k];
      const std::string where = std::string(link ? "lossy" : "lossless") +
                                " table " + std::to_string(k);
      TrafficModel swapped(n, 0.3);
      TrafficModel plain(n, 0.3);
      swapped.set_link_model(lossy_link(link), kCommRange);
      plain.set_link_model(lossy_link(link), kCommRange);
      for (SensorId s = 0; s < n; s += 6) {
        swapped.add_source(table, s);
        plain.add_source(table, s);
      }
      const auto swap = [&](SensorId old, SensorId next) {
        if (!swapped.has_source(old) || swapped.has_source(next)) return;
        swapped.swap_source(table, old, next);
        plain.remove_source(table, old);
        plain.add_source(table, next);
        ASSERT_EQ(checkpoint(swapped, table), checkpoint(plain, table))
            << where << ": " << old << " -> " << next;
        ASSERT_TRUE(swapped.counts_match(table)) << where;
        if (!table.built() || !table.reachable(old) || !table.reachable(next)) {
          ++unreachable;
        }
      };
      for (SensorId s = 0; s < n; ++s) {
        if (!table.built() || !table.reachable(s) || table.hop_depth(s) < 2) continue;
        const auto up = static_cast<SensorId>(table.next_hop(s));
        // The next hop is on s's route: handing a flow from it to s meets at
        // the old source, and back again at the new one.
        if (swapped.has_source(up) && !swapped.has_source(s)) {
          swap(up, s);
          if (swapped.has_source(s)) ++old_meets;
          swap(s, up);
          if (swapped.has_source(up)) ++new_meets;
        }
        if (HasFatalFailure()) return;
      }
      Xoshiro256 rng(k + 1);
      for (int step = 0; step < 400; ++step) {
        const auto old = static_cast<SensorId>(rng.uniform_int(n));
        auto next = static_cast<SensorId>(rng.uniform_int(n));
        // Half the time a spatial neighbour: old's own next hop.
        if (rng.uniform() < 0.5 && table.built() && table.reachable(old) &&
            table.next_hop(old) < n) {
          next = static_cast<SensorId>(table.next_hop(old));
        }
        swap(old, next);
        if (HasFatalFailure()) return;
      }
    }
    EXPECT_GT(old_meets, 0u);
    EXPECT_GT(new_meets, 0u);
    EXPECT_GT(unreachable, 0u);
  }
}

TEST(TrafficSwap, RejectsUnregisteredOrTakenEnds) {
  const Field field = make_field(30, 3);
  TrafficModel traffic(30, 0.25);
  traffic.add_source(field.tables[0], 1);
  traffic.add_source(field.tables[0], 2);
  EXPECT_THROW(traffic.swap_source(field.tables[0], 3, 4), InvalidArgument);
  EXPECT_THROW(traffic.swap_source(field.tables[0], 1, 2), InvalidArgument);
  EXPECT_THROW(traffic.swap_source(field.tables[0], 1, 30), InvalidArgument);
}

}  // namespace
}  // namespace wrsn
