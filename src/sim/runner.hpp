#pragma once
// Experiment harness: runs independent replicas (distinct master seeds) of a
// configuration, optionally in parallel, and averages the reports. All
// figure benches are parameter sweeps over this.

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/thread_pool.hpp"
#include "obs/flight.hpp"
#include "obs/spans.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"

namespace wrsn {

class World;

// Per-replica observability attachments (each may be null). All are purely
// observational — attaching any of them leaves the replica's physics and
// report byte-identical (tests/test_spans.cpp).
struct ReplicaInstruments {
  obs::TelemetryRegistry* telemetry = nullptr;
  obs::TraceSink* trace = nullptr;     // per-event records (schema v1)
  obs::SpanLog* spans = nullptr;       // lifecycle spans (schema v2); the
                                       // caller owns SpanLog::finish()
  obs::FlightRecorder* flight = nullptr;
};

// Attaches every instrument (null ones detach) to `world`.
void attach(World& world, const ReplicaInstruments& instruments);

// One full simulation of `config` (seed taken from the config) with
// `instruments` attached. A telemetry registry records event-loop counters
// and scheduler timings (see obs/telemetry.hpp); physics is unaffected.
[[nodiscard]] MetricsReport run_replica(const SimConfig& config,
                                        const ReplicaInstruments& instruments = {});

// Field-wise arithmetic mean of reports (counters become averages too).
[[nodiscard]] MetricsReport mean_report(const std::vector<MetricsReport>& reports);

// Runs `num_replicas` replicas with seeds config.seed, config.seed+1, ...
// When `pool` is non-null the replicas run concurrently on it. When
// `telemetry` is non-null each replica records into a private registry which
// is merged into `telemetry` as the replica finishes (counters/histograms
// sum, gauges keep the maximum), so one registry can aggregate a whole sweep.
[[nodiscard]] std::vector<MetricsReport> run_replicas(
    const SimConfig& config, std::size_t num_replicas, ThreadPool* pool = nullptr,
    obs::TelemetryRegistry* telemetry = nullptr);

// Convenience: mean over replicas.
[[nodiscard]] MetricsReport run_mean(const SimConfig& config,
                                     std::size_t num_replicas,
                                     ThreadPool* pool = nullptr,
                                     obs::TelemetryRegistry* telemetry = nullptr);

}  // namespace wrsn
