#include "map_traffic.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/error.hpp"

namespace wrsn {

void MapTrafficModel::reset(std::size_t num_sensors, double rate_pps) {
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
  routes_.clear();
}

void MapTrafficModel::set_link_model(const LinkConfig& link, double comm_range) {
  WRSN_REQUIRE(comm_range > 0.0, "link model needs a positive comm range");
  WRSN_REQUIRE(link.max_retx >= 1, "link.max_retx must be at least 1");
  link_ = link;
  link_comm_range_ = comm_range;
}

void MapTrafficModel::capture_link(const RouteTable& routes,
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
  const double r = sign * rate_pps_;
  // Lossless: one flow more or less through `node`, as a count.
  const auto count = [&](std::vector<std::uint32_t>& flows,
                         std::vector<double>& rates, std::size_t node) {
    flows[node] = sign > 0.0 ? flows[node] + 1 : flows[node] - 1;
    rates[node] = rate_pps_ * static_cast<double>(flows[node]);
  };
  if (touch_log_ != nullptr) touch_log_->add(source);
  offered_rate_ += r;
  if (flow.relay_path.empty()) {
    // Unreachable source: it still transmits (and wastes energy), nothing is
    // relayed or delivered.
    if (link_.enabled) {
      tx_rate_[source] += r;
    } else {
      count(tx_flows_, tx_rate_, source);
    }
    return;
  }
  double delivered = r;
  if (!link_.enabled) {
    for (std::size_t i = 0; i < flow.relay_path.size(); ++i) {
      const std::size_t node = flow.relay_path[i];
      count(tx_flows_, tx_rate_, node);
      if (i > 0) count(rx_flows_, rx_rate_, node);  // relays receive too
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
  if (rate_pps_ > 0.0 && flow.path_success > 0.0) {
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

void MapTrafficModel::add_source(const RouteTable& routes, SensorId source) {
  WRSN_REQUIRE(source < tx_rate_.size(), "source id out of range");
  WRSN_REQUIRE(!routes_.contains(source), "source already registered");

  SourceFlow flow{{}, {}, {}, 1.0};
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

void MapTrafficModel::reroute(const RouteTable& routes) {
  for (const auto& [source, flow] : routes_) apply(flow, source, -1.0);
  offered_rate_ = 0.0;
  for (auto& [source, flow] : routes_) {
    flow = SourceFlow{{}, {}, {}, 1.0};
    if (routes.built() && routes.reachable(source)) {
      flow.relay_path = routes.path_to_base(source);
      flow.relay_path.pop_back();
    }
    capture_link(routes, flow);
    apply(flow, source, +1.0);
  }
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
    w.f64(rate_pps_);
    std::vector<std::uint64_t> path(flow.relay_path.begin(),
                                    flow.relay_path.end());
    w.vec(path);
    w.vec(flow.hop_etx);
    w.vec(flow.hop_success);
    w.f64(flow.path_success);
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
