#include "sim/metrics.hpp"

#include <algorithm>

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

void MetricsIntegrator::serialize(BinWriter& w) const {
  w.f64(report_.rv_travel_energy.value());
  w.f64(report_.rv_travel_distance.value());
  w.f64(report_.energy_recharged.value());
  w.f64(report_.rv_base_energy_drawn.value());
  w.size(report_.sensors_recharged);
  w.size(report_.rv_tours);
  w.size(report_.rv_base_recharges);
  w.f64(report_.packets_delivered);
  w.f64(report_.packets_offered);
  w.size(report_.sensor_deaths);
  w.size(report_.recharge_requests);
  w.size(report_.requests_lost);
  w.size(report_.requests_delayed);
  w.size(report_.requests_retried);
  w.size(report_.requests_expired);
  w.size(report_.rv_breakdowns);
  w.size(report_.rv_repairs);
  w.size(report_.failover_reinjected);
  w.size(report_.sensor_hw_faults);
  w.f64(report_.rv_downtime.value());
  w.f64(covered_time_);
  w.f64(coverable_time_);
  w.f64(alive_time_);
  w.f64(dead_time_);
  w.f64(elapsed_);
  w.f64(latency_sum_);
  w.f64(hop_packet_integral_);
  w.f64(failover_recovery_sum_);
  w.size(failover_recoveries_);
  w.vec(latencies_);
  w.vec(waits_);
  w.vec(travels_);
  w.vec(services_);
  std::vector<std::pair<std::size_t, int>> counts(recharge_counts_.begin(),
                                                  recharge_counts_.end());
  std::sort(counts.begin(), counts.end());
  w.size(counts.size());
  for (const auto& [sensor, count] : counts) {
    w.size(sensor);
    w.u64(static_cast<std::uint64_t>(count));
  }
}

void MetricsIntegrator::deserialize(BinReader& r) {
  auto f64 = [&r] {
    double v = 0.0;
    r.f64(v);
    return v;
  };
  report_.rv_travel_energy = Joule{f64()};
  report_.rv_travel_distance = Meter{f64()};
  report_.energy_recharged = Joule{f64()};
  report_.rv_base_energy_drawn = Joule{f64()};
  r.size(report_.sensors_recharged);
  r.size(report_.rv_tours);
  r.size(report_.rv_base_recharges);
  r.f64(report_.packets_delivered);
  r.f64(report_.packets_offered);
  r.size(report_.sensor_deaths);
  r.size(report_.recharge_requests);
  r.size(report_.requests_lost);
  r.size(report_.requests_delayed);
  r.size(report_.requests_retried);
  r.size(report_.requests_expired);
  r.size(report_.rv_breakdowns);
  r.size(report_.rv_repairs);
  r.size(report_.failover_reinjected);
  r.size(report_.sensor_hw_faults);
  report_.rv_downtime = Second{f64()};
  r.f64(covered_time_);
  r.f64(coverable_time_);
  r.f64(alive_time_);
  r.f64(dead_time_);
  r.f64(elapsed_);
  r.f64(latency_sum_);
  r.f64(hop_packet_integral_);
  r.f64(failover_recovery_sum_);
  r.size(failover_recoveries_);
  r.vec(latencies_);
  r.vec(waits_);
  r.vec(travels_);
  r.vec(services_);
  const std::size_t n = r.count(16);
  recharge_counts_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t sensor = 0;
    std::uint64_t count = 0;
    r.size(sensor);
    r.u64(count);
    recharge_counts_[sensor] = static_cast<int>(count);
  }
}

std::string to_json(const MetricsReport& r) {
  JsonWriter w;
  w.begin_object()
      .field("duration_s", r.duration.value())
      .field("rv_travel_energy_j", r.rv_travel_energy.value())
      .field("rv_travel_distance_m", r.rv_travel_distance.value())
      .field("energy_recharged_j", r.energy_recharged.value())
      .field("rv_base_energy_drawn_j", r.rv_base_energy_drawn.value())
      .field("objective_score_j", r.objective_score().value())
      .field("coverage_ratio", r.coverage_ratio)
      .field("missing_rate", r.missing_rate)
      .field("nonfunctional_pct", r.nonfunctional_pct)
      .field("avg_alive_sensors", r.avg_alive_sensors)
      .field("avg_coverable_targets", r.avg_coverable_targets)
      .field("recharging_cost_m_per_sensor", r.recharging_cost_m_per_sensor())
      .field("packets_delivered", r.packets_delivered)
      .field("avg_delivery_hops", r.avg_delivery_hops)
      .field("sensor_deaths", static_cast<std::uint64_t>(r.sensor_deaths))
      .field("recharge_requests", static_cast<std::uint64_t>(r.recharge_requests))
      .field("sensors_recharged", static_cast<std::uint64_t>(r.sensors_recharged))
      .field("rv_tours", static_cast<std::uint64_t>(r.rv_tours))
      .field("rv_base_recharges", static_cast<std::uint64_t>(r.rv_base_recharges))
      .field("avg_request_latency_s", r.avg_request_latency.value())
      .field("p50_request_latency_s", r.p50_request_latency.value())
      .field("p95_request_latency_s", r.p95_request_latency.value())
      .field("p99_request_latency_s", r.p99_request_latency.value())
      .field("max_request_latency_s", r.max_request_latency.value())
      .field("p99_max_request_latency_s", r.p99_max_request_latency.value())
      .field("avg_request_wait_s", r.avg_request_wait.value())
      .field("p50_request_wait_s", r.p50_request_wait.value())
      .field("p95_request_wait_s", r.p95_request_wait.value())
      .field("p99_request_wait_s", r.p99_request_wait.value())
      .field("avg_request_travel_s", r.avg_request_travel.value())
      .field("p50_request_travel_s", r.p50_request_travel.value())
      .field("p95_request_travel_s", r.p95_request_travel.value())
      .field("p99_request_travel_s", r.p99_request_travel.value())
      .field("avg_request_service_s", r.avg_request_service.value())
      .field("p50_request_service_s", r.p50_request_service.value())
      .field("p95_request_service_s", r.p95_request_service.value())
      .field("p99_request_service_s", r.p99_request_service.value())
      .field("recharge_fairness_jain", r.recharge_fairness_jain)
      .field("requests_lost", static_cast<std::uint64_t>(r.requests_lost))
      .field("requests_delayed", static_cast<std::uint64_t>(r.requests_delayed))
      .field("requests_retried", static_cast<std::uint64_t>(r.requests_retried))
      .field("requests_expired", static_cast<std::uint64_t>(r.requests_expired))
      .field("rv_breakdowns", static_cast<std::uint64_t>(r.rv_breakdowns))
      .field("rv_repairs", static_cast<std::uint64_t>(r.rv_repairs))
      .field("failover_reinjected",
             static_cast<std::uint64_t>(r.failover_reinjected))
      .field("sensor_hw_faults", static_cast<std::uint64_t>(r.sensor_hw_faults))
      .field("rv_downtime_s", r.rv_downtime.value())
      .field("avg_failover_recovery_s", r.avg_failover_recovery.value())
      .end_object();
  return w.str();
}

}  // namespace wrsn
