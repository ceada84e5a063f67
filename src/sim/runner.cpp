#include "sim/runner.hpp"

#include <algorithm>
#include <mutex>

#include "core/error.hpp"
#include "sim/world.hpp"

namespace wrsn {

void attach(World& world, const ReplicaInstruments& instruments) {
  world.set_telemetry(instruments.telemetry);
  world.set_trace_sink(instruments.trace);
  world.set_span_log(instruments.spans);
  world.set_flight_recorder(instruments.flight);
}

MetricsReport run_replica(const SimConfig& config,
                          const ReplicaInstruments& instruments) {
  World world(config);
  attach(world, instruments);
  return world.run();
}

MetricsReport mean_report(const std::vector<MetricsReport>& reports) {
  WRSN_REQUIRE(!reports.empty(), "cannot average zero reports");
  MetricsReport mean;
  mean.recharge_fairness_jain = 0.0;  // default is 1.0; accumulate from zero
  const double n = static_cast<double>(reports.size());
  double deaths = 0.0, requests = 0.0, recharged = 0.0, tours = 0.0,
         base_recharges = 0.0, latency = 0.0;
  double lost = 0.0, delayed = 0.0, retried = 0.0, expired = 0.0,
         breakdowns = 0.0, repairs = 0.0, reinjected = 0.0, hw_faults = 0.0;
  for (const MetricsReport& r : reports) {
    mean.duration += r.duration / n;
    mean.rv_travel_energy += r.rv_travel_energy / n;
    mean.rv_travel_distance += r.rv_travel_distance / n;
    mean.energy_recharged += r.energy_recharged / n;
    mean.rv_base_energy_drawn += r.rv_base_energy_drawn / n;
    mean.coverage_ratio += r.coverage_ratio / n;
    mean.missing_rate += r.missing_rate / n;
    mean.nonfunctional_pct += r.nonfunctional_pct / n;
    mean.avg_alive_sensors += r.avg_alive_sensors / n;
    mean.avg_coverable_targets += r.avg_coverable_targets / n;
    mean.packets_delivered += r.packets_delivered / n;
    mean.avg_delivery_hops += r.avg_delivery_hops / n;
    deaths += static_cast<double>(r.sensor_deaths) / n;
    requests += static_cast<double>(r.recharge_requests) / n;
    recharged += static_cast<double>(r.sensors_recharged) / n;
    tours += static_cast<double>(r.rv_tours) / n;
    base_recharges += static_cast<double>(r.rv_base_recharges) / n;
    latency += r.avg_request_latency.value() / n;
    mean.p50_request_latency += r.p50_request_latency / n;
    mean.p95_request_latency += r.p95_request_latency / n;
    mean.p99_request_latency += r.p99_request_latency / n;
    mean.max_request_latency =
        std::max(mean.max_request_latency, r.max_request_latency);
    mean.avg_request_wait += r.avg_request_wait / n;
    mean.p50_request_wait += r.p50_request_wait / n;
    mean.p95_request_wait += r.p95_request_wait / n;
    mean.p99_request_wait += r.p99_request_wait / n;
    mean.avg_request_travel += r.avg_request_travel / n;
    mean.p50_request_travel += r.p50_request_travel / n;
    mean.p95_request_travel += r.p95_request_travel / n;
    mean.p99_request_travel += r.p99_request_travel / n;
    mean.avg_request_service += r.avg_request_service / n;
    mean.p50_request_service += r.p50_request_service / n;
    mean.p95_request_service += r.p95_request_service / n;
    mean.p99_request_service += r.p99_request_service / n;
    mean.recharge_fairness_jain += r.recharge_fairness_jain / n;
    lost += static_cast<double>(r.requests_lost) / n;
    delayed += static_cast<double>(r.requests_delayed) / n;
    retried += static_cast<double>(r.requests_retried) / n;
    expired += static_cast<double>(r.requests_expired) / n;
    breakdowns += static_cast<double>(r.rv_breakdowns) / n;
    repairs += static_cast<double>(r.rv_repairs) / n;
    reinjected += static_cast<double>(r.failover_reinjected) / n;
    hw_faults += static_cast<double>(r.sensor_hw_faults) / n;
    mean.rv_downtime += r.rv_downtime / n;
    mean.avg_failover_recovery += r.avg_failover_recovery / n;
  }
  // Tail of the worst case: p99 over the per-replica maxima, using the same
  // nearest-rank convention as the per-replica quantiles in metrics.cpp.
  std::vector<double> maxes;
  maxes.reserve(reports.size());
  for (const MetricsReport& r : reports) maxes.push_back(r.max_request_latency.value());
  std::sort(maxes.begin(), maxes.end());
  const auto idx = static_cast<std::size_t>(
      0.99 * static_cast<double>(maxes.size() - 1) + 0.5);
  mean.p99_max_request_latency = Second{maxes[std::min(idx, maxes.size() - 1)]};
  mean.sensor_deaths = static_cast<std::size_t>(deaths + 0.5);
  mean.recharge_requests = static_cast<std::size_t>(requests + 0.5);
  mean.sensors_recharged = static_cast<std::size_t>(recharged + 0.5);
  mean.rv_tours = static_cast<std::size_t>(tours + 0.5);
  mean.rv_base_recharges = static_cast<std::size_t>(base_recharges + 0.5);
  mean.avg_request_latency = Second{latency};
  mean.requests_lost = static_cast<std::size_t>(lost + 0.5);
  mean.requests_delayed = static_cast<std::size_t>(delayed + 0.5);
  mean.requests_retried = static_cast<std::size_t>(retried + 0.5);
  mean.requests_expired = static_cast<std::size_t>(expired + 0.5);
  mean.rv_breakdowns = static_cast<std::size_t>(breakdowns + 0.5);
  mean.rv_repairs = static_cast<std::size_t>(repairs + 0.5);
  mean.failover_reinjected = static_cast<std::size_t>(reinjected + 0.5);
  mean.sensor_hw_faults = static_cast<std::size_t>(hw_faults + 0.5);
  return mean;
}

std::vector<MetricsReport> run_replicas(const SimConfig& config,
                                        std::size_t num_replicas, ThreadPool* pool,
                                        obs::TelemetryRegistry* telemetry) {
  WRSN_REQUIRE(num_replicas > 0, "need at least one replica");
  std::vector<MetricsReport> reports(num_replicas);
  std::mutex merge_mutex;  // serializes merge_from on the shared registry
  auto run_one = [&](std::size_t i) {
    SimConfig c = config;
    c.seed = config.seed + i;
    if (telemetry == nullptr) {
      reports[i] = run_replica(c);
      return;
    }
    // Each replica records into a private registry so hot-path updates never
    // contend across workers; the merge at the end is the only shared write.
    obs::TelemetryRegistry local;
    reports[i] = run_replica(c, {.telemetry = &local});
    const std::lock_guard lock(merge_mutex);
    telemetry->merge_from(local);
  };
  if (pool != nullptr) {
    pool->parallel_for(num_replicas, run_one);
  } else {
    for (std::size_t i = 0; i < num_replicas; ++i) run_one(i);
  }
  return reports;
}

MetricsReport run_mean(const SimConfig& config, std::size_t num_replicas,
                       ThreadPool* pool, obs::TelemetryRegistry* telemetry) {
  return mean_report(run_replicas(config, num_replicas, pool, telemetry));
}

}  // namespace wrsn
