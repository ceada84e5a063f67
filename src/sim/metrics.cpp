#include "sim/metrics.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "core/error.hpp"
#include "core/json.hpp"

namespace wrsn {

void MetricsIntegrator::advance(Second dt, const StateSnapshot& snap) {
  WRSN_REQUIRE(dt.value() >= 0.0, "cannot integrate backwards");
  const double s = dt.value();
  if (s == 0.0) return;
  covered_time_ += s * static_cast<double>(snap.covered_targets);
  coverable_time_ += s * static_cast<double>(snap.coverable_targets);
  alive_time_ += s * static_cast<double>(snap.alive_sensors);
  dead_time_ += s * static_cast<double>(snap.total_sensors - snap.alive_sensors);
  report_.packets_delivered += s * snap.delivery_rate_pps;
  report_.packets_offered += s * snap.offered_rate_pps;
  hop_packet_integral_ += s * snap.delivery_rate_pps * snap.avg_delivery_hops;
  elapsed_ += s;
}

void MetricsIntegrator::on_rv_leg(Meter dist, Joule traction) {
  report_.rv_travel_distance += dist;
  report_.rv_travel_energy += traction;
}

void MetricsIntegrator::on_recharge(std::size_t sensor, Joule delivered,
                                    Second request_latency) {
  report_.energy_recharged += delivered;
  ++report_.sensors_recharged;
  latency_sum_ += request_latency.value();
  latencies_.push_back(request_latency.value());
  ++recharge_counts_[sensor];
}

void MetricsIntegrator::on_recharge_breakdown(Second wait, Second travel,
                                              Second service) {
  waits_.push_back(wait.value());
  travels_.push_back(travel.value());
  services_.push_back(service.value());
}

void MetricsIntegrator::on_rv_base_recharge(Joule drawn) {
  report_.rv_base_energy_drawn += drawn;
  ++report_.rv_base_recharges;
}

MetricsReport MetricsIntegrator::finalize(Second duration) const {
  MetricsReport out = report_;
  out.duration = duration;
  const double t = elapsed_ > 0.0 ? elapsed_ : 1.0;
  out.coverage_ratio = coverable_time_ > 0.0 ? covered_time_ / coverable_time_ : 1.0;
  out.missing_rate = 1.0 - out.coverage_ratio;
  out.avg_alive_sensors = alive_time_ / t;
  out.nonfunctional_pct =
      100.0 * dead_time_ / (alive_time_ + dead_time_ > 0.0 ? alive_time_ + dead_time_ : 1.0);
  out.avg_coverable_targets = coverable_time_ / t;
  out.avg_request_latency = Second{
      out.sensors_recharged > 0 ? latency_sum_ / static_cast<double>(out.sensors_recharged)
                                : 0.0};
  out.avg_delivery_hops = out.packets_delivered > 0.0
                              ? hop_packet_integral_ / out.packets_delivered
                              : 0.0;
  if (!latencies_.empty()) {
    std::vector<double> sorted = latencies_;
    std::sort(sorted.begin(), sorted.end());
    auto quantile = [&](double q) {
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1) + 0.5);
      return sorted[std::min(idx, sorted.size() - 1)];
    };
    out.p50_request_latency = Second{quantile(0.50)};
    out.p95_request_latency = Second{quantile(0.95)};
    out.p99_request_latency = Second{quantile(0.99)};
    out.max_request_latency = Second{sorted.back()};
    out.p99_max_request_latency = out.max_request_latency;
  }
  // Same nearest-rank convention for the wait/travel/service decomposition.
  auto summarize = [](const std::vector<double>& samples, Second& avg,
                      Second& p50, Second& p95, Second& p99) {
    if (samples.empty()) return;
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (const double v : sorted) sum += v;
    avg = Second{sum / static_cast<double>(sorted.size())};
    auto quantile = [&](double q) {
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1) + 0.5);
      return sorted[std::min(idx, sorted.size() - 1)];
    };
    p50 = Second{quantile(0.50)};
    p95 = Second{quantile(0.95)};
    p99 = Second{quantile(0.99)};
  };
  summarize(waits_, out.avg_request_wait, out.p50_request_wait,
            out.p95_request_wait, out.p99_request_wait);
  summarize(travels_, out.avg_request_travel, out.p50_request_travel,
            out.p95_request_travel, out.p99_request_travel);
  summarize(services_, out.avg_request_service, out.p50_request_service,
            out.p95_request_service, out.p99_request_service);
  if (failover_recoveries_ > 0) {
    out.avg_failover_recovery =
        Second{failover_recovery_sum_ / static_cast<double>(failover_recoveries_)};
  }
  if (!recharge_counts_.empty()) {
    double sum = 0.0, sum_sq = 0.0;
    for (const auto& [sensor, count] : recharge_counts_) {
      sum += count;
      sum_sq += static_cast<double>(count) * count;
    }
    out.recharge_fairness_jain =
        sum * sum / (static_cast<double>(recharge_counts_.size()) * sum_sq);
  }
  return out;
}

template <class Self, class Ar>
void MetricsIntegrator::io(Self& m, Ar& ar) {
  constexpr bool kLoad = std::is_same_v<Ar, BinReader>;
  auto& r = m.report_;
  ar.f64(r.rv_travel_energy.v);
  ar.f64(r.rv_travel_distance.v);
  ar.f64(r.energy_recharged.v);
  ar.f64(r.rv_base_energy_drawn.v);
  ar.size(r.sensors_recharged);
  ar.size(r.rv_tours);
  ar.size(r.rv_base_recharges);
  ar.f64(r.packets_delivered);
  ar.f64(r.packets_offered);
  ar.size(r.sensor_deaths);
  ar.size(r.recharge_requests);
  ar.size(r.requests_lost);
  ar.size(r.requests_delayed);
  ar.size(r.requests_retried);
  ar.size(r.requests_expired);
  ar.size(r.rv_breakdowns);
  ar.size(r.rv_repairs);
  ar.size(r.failover_reinjected);
  ar.size(r.sensor_hw_faults);
  ar.f64(r.rv_downtime.v);
  ar.f64(m.covered_time_);
  ar.f64(m.coverable_time_);
  ar.f64(m.alive_time_);
  ar.f64(m.dead_time_);
  ar.f64(m.elapsed_);
  ar.f64(m.latency_sum_);
  ar.f64(m.hop_packet_integral_);
  ar.f64(m.failover_recovery_sum_);
  ar.size(m.failover_recoveries_);
  ar.vec(m.latencies_);
  ar.vec(m.waits_);
  ar.vec(m.travels_);
  ar.vec(m.services_);
  // recharge_counts_ as (sensor, count) pairs, ascending by sensor id.
  std::vector<std::pair<std::size_t, std::uint64_t>> counts;
  if constexpr (kLoad) {
    counts.resize(ar.count(16));
  } else {
    counts.assign(m.recharge_counts_.begin(), m.recharge_counts_.end());
    std::sort(counts.begin(), counts.end());
    ar.size(counts.size());
  }
  for (auto& [sensor, count] : counts) {
    ar.size(sensor);
    ar.u64(count);
  }
  if constexpr (kLoad) {
    m.recharge_counts_.clear();
    for (const auto& [sensor, count] : counts) {
      m.recharge_counts_[sensor] = static_cast<int>(count);
    }
  }
}

template void MetricsIntegrator::io(const MetricsIntegrator&, BinWriter&);
template void MetricsIntegrator::io(MetricsIntegrator&, BinReader&);

namespace {

double json_number(double v) { return v; }
std::uint64_t json_number(std::size_t v) { return v; }
template <class Tag>
double json_number(Quantity<Tag> q) {
  return q.value();
}

}  // namespace

std::string to_json(const MetricsReport& r) {
  JsonWriter w;
  w.begin_object();
  visit_report_fields([&](const char* key, auto /*rule*/, auto member) {
    if (key != nullptr) w.field(key, json_number(std::invoke(member, r)));
  });
  w.end_object();
  return w.str();
}

}  // namespace wrsn
