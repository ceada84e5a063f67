#include "map_traffic.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/error.hpp"

namespace wrsn {

void MapTrafficModel::reset(std::size_t num_sensors) {
  tx_rate_.assign(num_sensors, 0.0);
  rx_rate_.assign(num_sensors, 0.0);
  delivery_rate_ = 0.0;
  offered_rate_ = 0.0;
  weighted_hops_ = 0.0;
  delivering_rate_ = 0.0;
  delivering_sources_ = 0;
  routes_.clear();
}

void MapTrafficModel::set_link_model(const LinkConfig& link, double comm_range) {
  WRSN_REQUIRE(comm_range > 0.0, "link model needs a positive comm range");
  WRSN_REQUIRE(link.max_retx >= 1, "link.max_retx must be at least 1");
  link_ = link;
  link_comm_range_ = comm_range;
}

void MapTrafficModel::capture_link(const RouteView& routes,
                                SourceFlow& flow) const {
  if (!link_.enabled || flow.relay_path.empty()) return;
  const double retx = static_cast<double>(link_.max_retx);
  flow.hop_etx.reserve(flow.relay_path.size());
  flow.hop_success.reserve(flow.relay_path.size());
  for (std::size_t node : flow.relay_path) {
    const double len = routes.hop_length(node);
    double p = link_.loss_floor +
               link_.loss_at_range *
                   std::pow(len / link_comm_range_, link_.loss_exponent);
    p = std::clamp(p, 0.0, 1.0);
    double etx;
    double success;
    if (p <= 0.0) {
      etx = 1.0;
      success = 1.0;
    } else if (p >= 1.0) {
      // Every attempt fails: the sender burns all its retransmissions and
      // nothing crosses the hop.
      etx = retx;
      success = 0.0;
    } else {
      const double all_fail = std::pow(p, retx);
      success = 1.0 - all_fail;
      etx = (1.0 - all_fail) / (1.0 - p);  // truncated geometric mean attempts
    }
    flow.hop_etx.push_back(etx);
    flow.hop_success.push_back(success);
    flow.path_success *= success;
  }
}

void MapTrafficModel::apply(const SourceFlow& flow, SensorId source, double sign) {
  const double r = sign * flow.rate_pps;
  if (touch_log_ != nullptr) touch_log_->add(source);
  offered_rate_ += r;
  if (flow.relay_path.empty()) {
    // Unreachable source: it still transmits (and wastes energy), nothing is
    // relayed or delivered.
    tx_rate_[source] += r;
    return;
  }
  double delivered = r;
  if (flow.hop_etx.empty()) {
    // Lossless fast path — bit-identical to the pre-link-layer accounting.
    for (std::size_t i = 0; i < flow.relay_path.size(); ++i) {
      const std::size_t node = flow.relay_path[i];
      tx_rate_[node] += r;
      if (i > 0) rx_rate_[node] += r;  // relays receive before forwarding
      if (touch_log_ != nullptr && i > 0) touch_log_->add(node);
    }
    delivery_rate_ += r;
  } else {
    // Lossy links: the surviving rate attenuates hop by hop, and each hop's
    // sender pays for its expected transmission count. All multipliers were
    // captured with the flow, so the -1 application mirrors the +1 exactly.
    double incoming = r;
    for (std::size_t i = 0; i < flow.relay_path.size(); ++i) {
      const std::size_t node = flow.relay_path[i];
      tx_rate_[node] += incoming * flow.hop_etx[i];
      if (i > 0) rx_rate_[node] += incoming;
      if (touch_log_ != nullptr && i > 0) touch_log_->add(node);
      incoming *= flow.hop_success[i];
    }
    delivered = incoming;
    delivery_rate_ += delivered;
  }
  if (flow.rate_pps > 0.0 && flow.path_success > 0.0) {
    weighted_hops_ += delivered * static_cast<double>(flow.relay_path.size());
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

void MapTrafficModel::add_source(const RouteView& routes, SensorId source,
                              double rate_pps) {
  WRSN_REQUIRE(source < tx_rate_.size(), "source id out of range");
  WRSN_REQUIRE(rate_pps >= 0.0, "packet rate must be non-negative");
  WRSN_REQUIRE(!routes_.contains(source), "source already registered");

  SourceFlow flow{rate_pps, {}, {}, {}, 1.0};
  if (routes.built() && routes.reachable(source)) {
    flow.relay_path = routes.path_to_base(source);
    flow.relay_path.pop_back();  // drop the BS node
  }
  capture_link(routes, flow);
  apply(flow, source, +1.0);
  routes_.emplace(source, std::move(flow));
}

void MapTrafficModel::remove_source(SensorId source) {
  auto it = routes_.find(source);
  WRSN_REQUIRE(it != routes_.end(), "source not registered");
  apply(it->second, source, -1.0);
  routes_.erase(it);
  if (routes_.empty()) offered_rate_ = 0.0;  // exact quiescence
}

void MapTrafficModel::clear_sources() {
  for (const auto& [source, flow] : routes_) apply(flow, source, -1.0);
  routes_.clear();
  offered_rate_ = 0.0;  // exact quiescence
}

void MapTrafficModel::reroute(const RouteView& routes) {
  std::vector<std::pair<SensorId, double>> sources;
  sources.reserve(routes_.size());
  for (const auto& [source, flow] : routes_) sources.emplace_back(source, flow.rate_pps);
  clear_sources();
  for (const auto& [source, rate] : sources) add_source(routes, source, rate);
}

void MapTrafficModel::serialize(BinWriter& w) const {
  w.vec(tx_rate_);
  w.vec(rx_rate_);
  w.f64(delivery_rate_);
  w.f64(offered_rate_);
  w.f64(weighted_hops_);
  w.f64(delivering_rate_);
  w.size(delivering_sources_);
  w.size(routes_.size());
  for (const auto& [source, flow] : routes_) {
    w.u64(static_cast<std::uint64_t>(source));
    w.f64(flow.rate_pps);
    std::vector<std::uint64_t> path(flow.relay_path.begin(),
                                    flow.relay_path.end());
    w.vec(path);
    w.vec(flow.hop_etx);
    w.vec(flow.hop_success);
    w.f64(flow.path_success);
  }
}

void MapTrafficModel::deserialize(BinReader& r) {
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
  routes_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t source = 0;
    r.u64(source);
    check_node(source, "source");
    SourceFlow flow{0.0, {}, {}, {}, 1.0};
    r.f64(flow.rate_pps);
    std::vector<std::uint64_t> path;
    r.vec(path);
    for (const std::uint64_t node : path) check_node(node, "relay");
    flow.relay_path.assign(path.begin(), path.end());
    r.vec(flow.hop_etx);
    r.vec(flow.hop_success);
    if (!(flow.hop_etx.empty() || flow.hop_etx.size() == path.size()) ||
        flow.hop_success.size() != flow.hop_etx.size()) {
      reject("flow of source " + std::to_string(source) +
             " has link captures that do not match its path");
    }
    r.f64(flow.path_success);
    if (!routes_.emplace(static_cast<SensorId>(source), std::move(flow)).second) {
      reject("source " + std::to_string(source) + " recorded twice");
    }
  }
}

Watt MapTrafficModel::radio_power(SensorId s, const RadioModel& radio) const {
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
