#include "net/traffic.hpp"

#include <algorithm>
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

// Calls f(id, flow) for each of the `count` present flows, in ascending id;
// stops at the last one instead of walking every slot.
template <typename Flows, typename F>
void for_each_present(Flows& flows, std::size_t count, F&& f) {
  for (SensorId s = 0; count > 0; ++s) {
    if (!flows[s].present) continue;
    --count;
    f(s, flows[s]);
  }
}

}  // namespace

void TrafficModel::reset(std::size_t num_sensors) {
  WRSN_REQUIRE(num_sensors <= std::numeric_limits<std::uint32_t>::max(),
               "traffic model holds at most 2^32 - 1 sensors");
  tx_rate_.assign(num_sensors, 0.0);
  rx_rate_.assign(num_sensors, 0.0);
  delivery_rate_ = 0.0;
  offered_rate_ = 0.0;
  weighted_hops_ = 0.0;
  delivering_rate_ = 0.0;
  delivering_sources_ = 0;
  flows_.assign(num_sensors, SourceFlow{});
  num_sources_ = 0;
  clear_arena();
}

void TrafficModel::set_link_model(const LinkConfig& link, double comm_range) {
  WRSN_REQUIRE(comm_range > 0.0, "link model needs a positive comm range");
  WRSN_REQUIRE(link.max_retx >= 1, "link.max_retx must be at least 1");
  link_ = link;
  link_comm_range_ = comm_range;
}

void TrafficModel::clear_arena() {
  relays_.clear();
  etx_.clear();
  success_.clear();
  live_relays_ = 0;
}

void TrafficModel::capture(const RouteView& routes, SensorId source,
                           SourceFlow& flow) {
  compact_if_sparse();
  const std::size_t offset = relays_.size();
  flow.offset = static_cast<std::uint32_t>(offset);
  flow.path_success = 1.0;
  if (routes.built() && routes.reachable(source)) {
    const std::size_t limit = routes.num_nodes();
    for (std::size_t node = source;;) {
      const std::size_t next = routes.next_hop(node);
      if (next == kInvalidId) break;  // `node` is the base station
      relays_.push_back(static_cast<std::uint32_t>(node));
      WRSN_ASSERT(relays_.size() - offset < limit, "routing forest contains a cycle");
      node = next;
    }
  }
  WRSN_ASSERT(relays_.size() <= std::numeric_limits<std::uint32_t>::max(),
              "traffic path arena exceeds 2^32 - 1 entries");
  const std::size_t length = relays_.size() - offset;
  flow.length = static_cast<std::uint32_t>(length);
  flow.lossy = link_.enabled && length > 0;
  if (flow.lossy) {
    // Start (or keep) the link pools parallel to the arena.
    etx_.resize(offset, 0.0);
    success_.resize(offset, 0.0);
    for (std::size_t i = offset; i < relays_.size(); ++i) {
      const HopLink hop =
          hop_link(link_, link_comm_range_, routes.hop_length(relays_[i]));
      etx_.push_back(hop.etx);
      success_.push_back(hop.success);
      flow.path_success *= hop.success;
    }
  } else if (!etx_.empty()) {
    etx_.resize(relays_.size(), 0.0);
    success_.resize(relays_.size(), 0.0);
  }
  live_relays_ += length;
}

void TrafficModel::release(const SourceFlow& flow) {
  live_relays_ -= flow.length;
  if (flow.offset + flow.length == relays_.size()) {
    relays_.resize(flow.offset);
    if (!etx_.empty()) {
      etx_.resize(flow.offset);
      success_.resize(flow.offset);
    }
  }
}

void TrafficModel::compact_if_sparse() {
  const std::size_t dead = relays_.size() - live_relays_;
  if (dead <= live_relays_ || dead < flows_.size()) return;
  // Rebuilt into the spare pools, which keep their capacity from one
  // compaction to the next, so steady-state compaction allocates nothing.
  spare_relays_.clear();
  spare_etx_.clear();
  spare_success_.clear();
  for_each_present(flows_, num_sources_, [&](SensorId, SourceFlow& flow) {
    const auto begin = static_cast<std::ptrdiff_t>(flow.offset);
    const auto end = begin + static_cast<std::ptrdiff_t>(flow.length);
    flow.offset = static_cast<std::uint32_t>(spare_relays_.size());
    spare_relays_.insert(spare_relays_.end(), relays_.begin() + begin,
                         relays_.begin() + end);
    if (!etx_.empty()) {
      spare_etx_.insert(spare_etx_.end(), etx_.begin() + begin, etx_.begin() + end);
      spare_success_.insert(spare_success_.end(), success_.begin() + begin,
                            success_.begin() + end);
    }
  });
  relays_.swap(spare_relays_);
  etx_.swap(spare_etx_);
  success_.swap(spare_success_);
}

void TrafficModel::apply(const SourceFlow& flow, SensorId source, double sign) {
  const double r = sign * flow.rate_pps;
  if (touch_log_ != nullptr) touch_log_->add(source);
  offered_rate_ += r;
  if (flow.length == 0) {
    // Unreachable source: it still transmits (and wastes energy), nothing is
    // relayed or delivered.
    tx_rate_[source] += r;
    return;
  }
  // path[0] is the source; every later node is a relay that receives before
  // forwarding. A path never repeats a node, so each rate changes once.
  const std::uint32_t* path = relays_.data() + flow.offset;
  double delivered = r;
  if (!flow.lossy) {
    // Lossless fast path — bit-identical to the pre-link-layer accounting.
    tx_rate_[path[0]] += r;
    for (std::size_t i = 1; i < flow.length; ++i) {
      const std::size_t node = path[i];
      tx_rate_[node] += r;
      rx_rate_[node] += r;
      if (touch_log_ != nullptr) touch_log_->add(node);
    }
    delivery_rate_ += r;
  } else {
    // Lossy links: the surviving rate attenuates hop by hop, and each hop's
    // sender pays for its expected transmission count. All multipliers were
    // captured with the flow, so the -1 application mirrors the +1 exactly.
    const double* etx = etx_.data() + flow.offset;
    const double* success = success_.data() + flow.offset;
    double incoming = r;
    for (std::size_t i = 0; i < flow.length; ++i) {
      const std::size_t node = path[i];
      tx_rate_[node] += incoming * etx[i];
      if (i > 0) {
        rx_rate_[node] += incoming;
        if (touch_log_ != nullptr) touch_log_->add(node);
      }
      incoming *= success[i];
    }
    delivered = incoming;
    delivery_rate_ += delivered;
  }
  if (flow.rate_pps > 0.0 && flow.path_success > 0.0) {
    weighted_hops_ += delivered * static_cast<double>(flow.length);
    delivering_rate_ += delivered;
    if (sign > 0.0) {
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
}

void TrafficModel::add_source(const RouteView& routes, SensorId source,
                              double rate_pps) {
  WRSN_REQUIRE(source < flows_.size(), "source id out of range");
  WRSN_REQUIRE(rate_pps >= 0.0, "packet rate must be non-negative");
  SourceFlow& flow = flows_[source];
  WRSN_REQUIRE(!flow.present, "source already registered");
  flow.rate_pps = rate_pps;
  capture(routes, source, flow);
  flow.present = true;
  ++num_sources_;
  apply(flow, source, +1.0);
}

void TrafficModel::remove_source(SensorId source) {
  WRSN_REQUIRE(has_source(source), "source not registered");
  SourceFlow& flow = flows_[source];
  apply(flow, source, -1.0);
  release(flow);
  flow.present = false;
  if (--num_sources_ == 0) {
    offered_rate_ = 0.0;  // exact quiescence
    clear_arena();
  }
}

void TrafficModel::clear_sources() {
  for_each_present(flows_, num_sources_, [&](SensorId s, SourceFlow& flow) {
    apply(flow, s, -1.0);
    flow.present = false;
  });
  num_sources_ = 0;
  clear_arena();
  offered_rate_ = 0.0;  // exact quiescence
}

void TrafficModel::reroute(const RouteView& routes) {
  // Retract every flow, then re-capture and re-apply each, both passes in
  // ascending id: the same arithmetic as clear_sources() followed by one
  // add_source() per source.
  for_each_present(flows_, num_sources_,
                   [&](SensorId s, const SourceFlow& flow) { apply(flow, s, -1.0); });
  offered_rate_ = 0.0;
  clear_arena();
  for_each_present(flows_, num_sources_, [&](SensorId s, SourceFlow& flow) {
    capture(routes, s, flow);
    apply(flow, s, +1.0);
  });
}

void TrafficModel::serialize(BinWriter& w) const {
  w.vec(tx_rate_);
  w.vec(rx_rate_);
  w.f64(delivery_rate_);
  w.f64(offered_rate_);
  w.f64(weighted_hops_);
  w.f64(delivering_rate_);
  w.size(delivering_sources_);
  w.size(num_sources_);
  // Per flow (schema-fixed): source, rate, the path as a u64 vector, the ETX
  // and success vectors (empty when lossless), the path success.
  for_each_present(flows_, num_sources_, [&](SensorId s, const SourceFlow& flow) {
    const std::size_t begin = flow.offset;
    const std::size_t end = begin + flow.length;
    w.u64(static_cast<std::uint64_t>(s));
    w.f64(flow.rate_pps);
    w.size(flow.length);
    for (std::size_t i = begin; i < end; ++i) w.u64(relays_[i]);
    const std::size_t hops = flow.lossy ? flow.length : 0;
    w.size(hops);
    for (std::size_t i = begin; i < begin + hops; ++i) w.f64(etx_[i]);
    w.size(hops);
    for (std::size_t i = begin; i < begin + hops; ++i) w.f64(success_[i]);
    w.f64(flow.path_success);
  });
}

void TrafficModel::deserialize(BinReader& r) {
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
  flows_.assign(nodes, SourceFlow{});
  num_sources_ = 0;
  clear_arena();
  std::vector<std::uint64_t> path;
  std::vector<double> etx;
  std::vector<double> success;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t source = 0;
    r.u64(source);
    check_node(source, "source");
    double rate_pps = 0.0;
    r.f64(rate_pps);
    r.vec(path);
    for (const std::uint64_t node : path) check_node(node, "relay");
    r.vec(etx);
    r.vec(success);
    if (!(etx.empty() || etx.size() == path.size()) ||
        success.size() != etx.size()) {
      reject("flow of source " + std::to_string(source) +
             " has link captures that do not match its path");
    }
    double path_success = 1.0;
    r.f64(path_success);
    SourceFlow& flow = flows_[source];
    if (flow.present) {
      reject("source " + std::to_string(source) + " recorded twice");
    }
    if (relays_.size() + path.size() > std::numeric_limits<std::uint32_t>::max()) {
      reject("paths exceed 2^32 - 1 relay entries");
    }
    flow.rate_pps = rate_pps;
    flow.path_success = path_success;
    flow.offset = static_cast<std::uint32_t>(relays_.size());
    flow.length = static_cast<std::uint32_t>(path.size());
    flow.present = true;
    flow.lossy = !etx.empty();
    for (const std::uint64_t node : path) {
      relays_.push_back(static_cast<std::uint32_t>(node));
    }
    if (flow.lossy || !etx_.empty()) {
      etx_.resize(flow.offset, 0.0);
      success_.resize(flow.offset, 0.0);
      etx_.insert(etx_.end(), etx.begin(), etx.end());
      success_.insert(success_.end(), success.begin(), success.end());
      etx_.resize(relays_.size(), 0.0);
      success_.resize(relays_.size(), 0.0);
    }
    live_relays_ += path.size();
    ++num_sources_;
  }
}

Watt TrafficModel::radio_power(SensorId s, const RadioModel& radio) const {
  WRSN_REQUIRE(s < tx_rate_.size(), "sensor id out of range");
  // rate (1/s) x energy-per-packet (J) = power (W); plus the duty-cycled
  // idle-listening floor.
  Watt power = radio.idle_power + radio.listen_duty_cycle * radio.rx_power +
               Watt{tx_rate_[s] * radio.tx_energy_per_packet().value()} +
               Watt{rx_rate_[s] * radio.rx_energy_per_packet().value()};
  if (link_.enabled && link_.rx_duty_tax > 0.0 && rx_rate_[s] > 0.0) {
    // Actively receiving nodes keep the radio on longer to catch
    // retransmitted frames.
    power += link_.rx_duty_tax * radio.rx_power;
  }
  return power;
}

}  // namespace wrsn
