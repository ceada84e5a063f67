#include "net/traffic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>

#include "core/error.hpp"

namespace wrsn {

namespace {

// Per-hop link capture: the expected transmissions and success probability
// of a hop `len` metres long.
struct HopLink {
  double etx;
  double success;
};

HopLink hop_link(const LinkConfig& link, double comm_range, double len) {
  double p = link.loss_floor +
             link.loss_at_range * std::pow(len / comm_range, link.loss_exponent);
  p = std::clamp(p, 0.0, 1.0);
  if (p <= 0.0) return {1.0, 1.0};
  const double retx = static_cast<double>(link.max_retx);
  // Every attempt fails: the sender burns all its retransmissions and
  // nothing crosses the hop.
  if (p >= 1.0) return {retx, 0.0};
  const double all_fail = std::pow(p, retx);
  // Truncated geometric mean attempts.
  return {(1.0 - all_fail) / (1.0 - p), 1.0 - all_fail};
}

// Calls f(id) for each of the `count` set bits, in ascending id, a word
// at a time; stops at the last one instead of walking every word.
template <typename F>
void for_each_present(const std::vector<std::uint64_t>& present, std::size_t count,
                      F&& f) {
  for (std::size_t w = 0; count > 0; ++w) {
    for (std::uint64_t bits = present[w]; bits != 0; bits &= bits - 1) {
      f(static_cast<SensorId>((w << 6) + static_cast<std::size_t>(std::countr_zero(bits))));
      --count;
    }
  }
}

bool reaches_base(const RouteTable& routes, SensorId source) {
  return routes.built() && routes.reachable(source);
}

void bump(std::uint32_t& flows, int sign) {
  if (sign > 0) {
    ++flows;
  } else {
    --flows;
  }
}

}  // namespace

template <typename F>
void TrafficModel::for_each_hop(const RouteTable& routes, SensorId source, F&& f) {
  if (!reaches_base(routes, source)) return;
  for (std::size_t node = source; routes.next_hop(node) != kInvalidId;
       node = routes.next_hop(node)) {
    f(node);
  }
}

void TrafficModel::reset(std::size_t num_sensors, double rate_pps) {
  WRSN_REQUIRE(num_sensors <= std::numeric_limits<std::uint32_t>::max(),
               "traffic model holds at most 2^32 - 1 sensors");
  WRSN_REQUIRE(rate_pps >= 0.0, "packet rate must be non-negative");
  rate_pps_ = rate_pps;
  tx_rate_.assign(num_sensors, 0.0);
  rx_rate_.assign(num_sensors, 0.0);
  tx_flows_.assign(num_sensors, 0);
  rx_flows_.assign(num_sensors, 0);
  delivery_rate_ = 0.0;
  offered_rate_ = 0.0;
  weighted_hops_ = 0.0;
  delivering_rate_ = 0.0;
  delivering_sources_ = 0;
  present_.assign((num_sensors + 63) / 64, 0);
  num_sources_ = 0;
}

void TrafficModel::set_link_model(const LinkConfig& link, double comm_range) {
  WRSN_REQUIRE(comm_range > 0.0, "link model needs a positive comm range");
  WRSN_REQUIRE(link.max_retx >= 1, "link.max_retx must be at least 1");
  WRSN_REQUIRE(num_sources_ == 0, "set the link model before adding sources");
  link_ = link;
  link_comm_range_ = comm_range;
}

inline void TrafficModel::count(std::size_t node, int sign, bool relay) {
  bump(tx_flows_[node], sign);
  if (!relay) return;
  bump(rx_flows_[node], sign);
  touch(static_cast<SensorId>(node));
}

std::size_t TrafficModel::count_path(const RouteTable& routes, SensorId source,
                                     int sign) {
  if (!reaches_base(routes, source)) {
    count(source, sign, false);
    return 1;
  }
  std::size_t walked = 0;
  for_each_hop(routes, source, [&](std::size_t node) {
    count(node, sign, node != source);
    ++walked;
  });
  return walked;
}

void TrafficModel::account(double delivered, std::size_t hops,
                           double path_success, int sign) {
  if (!(rate_pps_ > 0.0 && path_success > 0.0)) return;
  weighted_hops_ += delivered * static_cast<double>(hops);
  delivering_rate_ += delivered;
  if (sign > 0) {
    ++delivering_sources_;
  } else {
    --delivering_sources_;
  }
  if (delivering_sources_ == 0) {
    // Exact quiescence: discard any accumulated rounding residue.
    delivery_rate_ = 0.0;
    weighted_hops_ = 0.0;
    delivering_rate_ = 0.0;
  }
}

void TrafficModel::account_lossless(std::size_t hops, bool reachable, int sign) {
  const double r = sign * rate_pps_;
  offered_rate_ += r;
  // An unreachable source still transmits (and wastes energy); nothing is
  // relayed or delivered.
  if (!reachable) return;
  delivery_rate_ += r;
  account(r, hops, 1.0, sign);
}

void TrafficModel::apply(const RouteTable& routes, SensorId source, int sign) {
  const bool reachable = reaches_base(routes, source);
  touch(source);
  if (!lossy()) {
    count_path(routes, source, sign);
    account_lossless(reachable ? routes.hop_depth(source) : 0, reachable, sign);
    return;
  }
  const double r = sign * rate_pps_;
  offered_rate_ += r;
  if (!reachable) {
    tx_rate_[source] += r;
    return;
  }
  // Lossy links: the surviving rate attenuates hop by hop, and each hop's
  // sender pays for its expected transmission count. The factors come from
  // the same forest on the -1 application as on the +1, so it mirrors it.
  double incoming = r;
  double path_success = 1.0;
  std::size_t hops = 0;
  for_each_hop(routes, source, [&](std::size_t node) {
    const HopLink hop = hop_link(link_, link_comm_range_, routes.hop_length(node));
    tx_rate_[node] += incoming * hop.etx;
    if (node != source) {
      rx_rate_[node] += incoming;
      touch(static_cast<SensorId>(node));
    }
    incoming *= hop.success;
    path_success *= hop.success;
    ++hops;
  });
  delivery_rate_ += incoming;
  account(incoming, hops, path_success, sign);
}

void TrafficModel::add_source(const RouteTable& routes, SensorId source) {
  WRSN_REQUIRE(source < num_sensors(), "source id out of range");
  WRSN_REQUIRE(!has_source(source), "source already registered");
  set_present(source, true);
  ++num_sources_;
  apply(routes, source, +1);
}

void TrafficModel::remove_source(const RouteTable& routes, SensorId source) {
  WRSN_REQUIRE(has_source(source), "source not registered");
  apply(routes, source, -1);
  set_present(source, false);
  if (--num_sources_ == 0) offered_rate_ = 0.0;  // exact quiescence
}

std::size_t TrafficModel::swap_source(const RouteTable& routes, SensorId old_source,
                                      SensorId new_source) {
  WRSN_REQUIRE(has_source(old_source), "source not registered");
  WRSN_REQUIRE(new_source < num_sensors(), "source id out of range");
  WRSN_REQUIRE(!has_source(new_source), "source already registered");
  set_present(old_source, false);
  set_present(new_source, true);
  const bool old_up = reaches_base(routes, old_source);
  const bool new_up = reaches_base(routes, new_source);
  std::size_t walked = 0;
  if (lossy()) {
    apply(routes, old_source, -1);
    if (num_sources_ == 1) offered_rate_ = 0.0;  // as remove_source
    apply(routes, new_source, +1);
    walked += old_up ? routes.hop_depth(old_source) : 1;
    walked += new_up ? routes.hop_depth(new_source) : 1;
    return walked;
  }
  touch(old_source);
  touch(new_source);
  if (!old_up || !new_up) {
    // No meeting node: each branch is a whole route, or the source alone.
    walked = count_path(routes, old_source, -1) + count_path(routes, new_source, +1);
  } else {
    // Walk the deeper route up to the other's depth, then both in step until
    // they meet; above the meeting node both carry one flow either way.
    std::size_t a = old_source;
    std::size_t b = new_source;
    std::size_t da = routes.hop_depth(a);
    std::size_t db = routes.hop_depth(b);
    for (; da > db; --da, ++walked) {
      count(a, -1, a != old_source);
      a = routes.next_hop(a);
    }
    for (; db > da; --db, ++walked) {
      count(b, +1, b != new_source);
      b = routes.next_hop(b);
    }
    for (; a != b; --da, walked += 2) {
      WRSN_ASSERT(da > 0, "reachable routes that never meet");
      count(a, -1, a != old_source);
      count(b, +1, b != new_source);
      a = routes.next_hop(a);
      b = routes.next_hop(b);
    }
    // At a sensor meeting node (depth 0 is the base station) only the role
    // can change: the old source starts relaying the new flow, or a relay of
    // the old flow becomes the new source.
    if (da > 0 && (a == old_source || a == new_source)) {
      bump(rx_flows_[a], a == old_source ? +1 : -1);
      touch(static_cast<SensorId>(a));
    }
  }
  account_lossless(old_up ? routes.hop_depth(old_source) : 0, old_up, -1);
  if (num_sources_ == 1) offered_rate_ = 0.0;  // as remove_source
  account_lossless(new_up ? routes.hop_depth(new_source) : 0, new_up, +1);
  return walked;
}

void TrafficModel::retract_all(const RouteTable& routes) {
  // With readd_all(): the same arithmetic as one remove_source() per source
  // followed by one add_source() per source.
  for_each_present(present_, num_sources_, [&](SensorId s) { apply(routes, s, -1); });
  offered_rate_ = 0.0;
}

void TrafficModel::readd_all(const RouteTable& routes) {
  for_each_present(present_, num_sources_, [&](SensorId s) { apply(routes, s, +1); });
}

void TrafficModel::serialize(BinWriter& w, const RouteTable& routes) const {
  // The rate arrays as u64-counted f64 vectors, lossless ones from counts.
  w.size(tx_rate_.size());
  for (SensorId k = 0; k < tx_rate_.size(); ++k) w.f64(tx_rate(k));
  w.size(rx_rate_.size());
  for (SensorId k = 0; k < rx_rate_.size(); ++k) w.f64(rx_rate(k));
  w.f64(delivery_rate_);
  w.f64(offered_rate_);
  w.f64(weighted_hops_);
  w.f64(delivering_rate_);
  w.size(delivering_sources_);
  w.size(num_sources_);
  // Per flow (schema-fixed): source, rate, the path as a u64 vector, the ETX
  // and success vectors (empty when lossless), the path success.
  for_each_present(present_, num_sources_, [&](SensorId s) {
    const std::size_t hops = reaches_base(routes, s) ? routes.hop_depth(s) : 0;
    w.u64(static_cast<std::uint64_t>(s));
    w.f64(rate_pps_);
    w.size(hops);
    for_each_hop(routes, s, [&](std::size_t node) { w.u64(node); });
    const std::size_t links = lossy() ? hops : 0;
    double path_success = 1.0;
    w.size(links);
    if (links > 0) {
      for_each_hop(routes, s, [&](std::size_t node) {
        w.f64(hop_link(link_, link_comm_range_, routes.hop_length(node)).etx);
      });
    }
    w.size(links);
    if (links > 0) {
      for_each_hop(routes, s, [&](std::size_t node) {
        const double success =
            hop_link(link_, link_comm_range_, routes.hop_length(node)).success;
        w.f64(success);
        path_success *= success;
      });
    }
    w.f64(path_success);
  });
}

void TrafficModel::deserialize(BinReader& r, const RouteTable& routes) {
  // The node count is fixed at construction; every restored id indexes the
  // per-node rate arrays, so each is checked against it.
  const std::size_t nodes = tx_rate_.size();
  const auto reject = [](const std::string& what) {
    throw InvalidArgument("snapshot traffic " + what);
  };
  const auto check_node = [&](std::uint64_t id, const char* what) {
    if (id >= nodes) {
      reject(std::string(what) + " " + std::to_string(id) +
             " out of range (limit " + std::to_string(nodes) + ")");
    }
  };
  r.vec(tx_rate_);
  r.vec(rx_rate_);
  if (tx_rate_.size() != nodes || rx_rate_.size() != nodes) {
    reject("rate arrays do not match the " + std::to_string(nodes) + " sensors");
  }
  r.f64(delivery_rate_);
  r.f64(offered_rate_);
  r.f64(weighted_hops_);
  r.f64(delivering_rate_);
  r.size(delivering_sources_);
  const std::size_t n = r.count(8);
  present_.assign((nodes + 63) / 64, 0);
  num_sources_ = 0;
  tx_flows_.assign(nodes, 0);
  rx_flows_.assign(nodes, 0);
  std::vector<std::uint64_t> path;
  std::vector<double> etx;
  std::vector<double> success;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t source = 0;
    r.u64(source);
    check_node(source, "source");
    const auto s = static_cast<SensorId>(source);
    double rate_pps = 0.0;
    r.f64(rate_pps);
    r.vec(path);
    for (const std::uint64_t node : path) check_node(node, "relay");
    r.vec(etx);
    r.vec(success);
    double path_success = 1.0;
    r.f64(path_success);
    if (has_source(s)) reject("source " + std::to_string(source) + " recorded twice");
    if (rate_pps != rate_pps_) {
      reject("flow of source " + std::to_string(source) + " has rate " +
             std::to_string(rate_pps) + " pkt/s, not the configured " +
             std::to_string(rate_pps_));
    }
    // The path and its link factors must be the ones the restored forest
    // gives: every later removal re-reads them from it.
    const std::size_t links = lossy() && !path.empty() ? path.size() : 0;
    bool same = etx.size() == links && success.size() == links;
    std::size_t hop = 0;
    double forest_success = 1.0;
    for_each_hop(routes, s, [&](std::size_t node) {
      if (!same || hop >= path.size() || path[hop] != node) {
        same = false;
      } else if (links > 0) {
        const HopLink link = hop_link(link_, link_comm_range_, routes.hop_length(node));
        same = etx[hop] == link.etx && success[hop] == link.success;
        forest_success *= link.success;
      }
      ++hop;
    });
    if (!same || hop != path.size() || path_success != forest_success) {
      reject("flow of source " + std::to_string(source) +
             " disagrees with the routing forest");
    }
    set_present(s, true);
    ++num_sources_;
    if (lossy()) continue;
    if (path.empty()) ++tx_flows_[s];
    for (std::size_t k = 0; k < path.size(); ++k) {
      ++tx_flows_[path[k]];
      if (k > 0) ++rx_flows_[path[k]];
    }
  }
  if (lossy()) return;
  // Lossless rates are the counts times the rate; the arrays stay unused.
  for (SensorId k = 0; k < nodes; ++k) {
    if (tx_rate_[k] != tx_rate(k) || rx_rate_[k] != rx_rate(k)) {
      reject("rates of sensor " + std::to_string(k) + " disagree with the " +
             std::to_string(tx_flows_[k]) + " flows through it");
    }
  }
  tx_rate_.assign(nodes, 0.0);
  rx_rate_.assign(nodes, 0.0);
}

bool TrafficModel::counts_match(const RouteTable& routes) const {
  if (lossy()) return true;
  std::vector<std::uint32_t> tx(tx_flows_.size(), 0);
  std::vector<std::uint32_t> rx(rx_flows_.size(), 0);
  for_each_present(present_, num_sources_, [&](SensorId s) {
    if (!reaches_base(routes, s)) ++tx[s];
    for_each_hop(routes, s, [&](std::size_t node) {
      ++tx[node];
      if (node != s) ++rx[node];
    });
  });
  return tx == tx_flows_ && rx == rx_flows_;
}

Watt TrafficModel::radio_power(SensorId s, const RadioModel& radio) const {
  WRSN_REQUIRE(s < tx_rate_.size(), "sensor id out of range");
  // rate (1/s) x energy-per-packet (J) = power (W); plus the duty-cycled
  // idle-listening floor.
  const double rx = rx_rate(s);
  Watt power = radio.idle_power + radio.listen_duty_cycle * radio.rx_power +
               Watt{tx_rate(s) * radio.tx_energy_per_packet().value()} +
               Watt{rx * radio.rx_energy_per_packet().value()};
  if (link_.enabled && link_.rx_duty_tax > 0.0 && rx > 0.0) {
    // Actively receiving nodes keep the radio on longer to catch
    // retransmitted frames.
    power += link_.rx_duty_tax * radio.rx_power;
  }
  return power;
}

}  // namespace wrsn
