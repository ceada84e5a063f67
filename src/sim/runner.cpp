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

namespace {

// mean_report's visitor: folds each field over the replicas by its rule,
// one replica at a time in order (so a mean is `+= r.x / n` per replica).
struct MeanFold {
  const std::vector<MetricsReport>& reports;
  MetricsReport& out;
  double n;

  template <class T>
  void operator()(const char*, report_rule::Mean, T MetricsReport::*m) const {
    T sum{};
    for (const MetricsReport& r : reports) sum += r.*m / n;
    out.*m = sum;
  }
  template <class T>
  void operator()(const char*, report_rule::RoundedMean, T MetricsReport::*m) const {
    double sum = 0.0;
    for (const MetricsReport& r : reports) sum += static_cast<double>(r.*m) / n;
    out.*m = static_cast<T>(sum + 0.5);
  }
  template <class T>
  void operator()(const char*, report_rule::Max, T MetricsReport::*m) const {
    T top{};
    for (const MetricsReport& r : reports) top = std::max(top, r.*m);
    out.*m = top;
  }
  // Nearest rank, the convention of the per-replica quantiles in metrics.cpp.
  void operator()(const char*, report_rule::P99 rule, Second MetricsReport::*m) const {
    std::vector<double> values;
    values.reserve(reports.size());
    for (const MetricsReport& r : reports) values.push_back((r.*rule.of).value());
    std::sort(values.begin(), values.end());
    const auto idx = static_cast<std::size_t>(
        0.99 * static_cast<double>(values.size() - 1) + 0.5);
    out.*m = Second{values[std::min(idx, values.size() - 1)]};
  }
  template <class F>
  void operator()(const char*, report_rule::Derived, F) const {}
};

}  // namespace

MetricsReport mean_report(const std::vector<MetricsReport>& reports) {
  WRSN_REQUIRE(!reports.empty(), "cannot average zero reports");
  MetricsReport mean;
  visit_report_fields(MeanFold{reports, mean, static_cast<double>(reports.size())});
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
