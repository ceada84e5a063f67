// wrsn_sim — command-line driver for the WRSN simulator: runs replicas of
// one configuration and reports mean +/- 95% CI per metric. The config,
// observability, checkpoint and listing flags are shared with wrsn_trace
// and wrsn_sweep (tools/run_options.hpp); `wrsn_sim --help` lists them all.
//
//   wrsn_sim [shared flags] [--seeds N] [--csv FILE] [--json FILE]
//            [--series FILE] [--svg FILE] [--print-config]
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "obs/telemetry.hpp"
#include "run_options.hpp"
#include "sim/runner.hpp"
#include "sim/svg.hpp"
#include "sim/world.hpp"

namespace {

using namespace wrsn;

const char kUsage[] =
    "wrsn_sim — WRSN joint charging & activity management simulator\n"
    "\n"
    "  --seeds N            replicas to run (seed, seed+1, ...; mean +/- 95%\n"
    "                       CI reported); --spans, --chrome-trace,\n"
    "                       --flight-recorder, --series and --svg attach to\n"
    "                       the first replica\n"
    "  --csv FILE           append one CSV row per replica\n"
    "  --json FILE          write all replica reports as a JSON array\n"
    "  --series FILE        time series of the first replica as CSV\n"
    "  --svg FILE           final state of the first replica as SVG\n"
    "  --print-config       print the effective configuration and exit\n";

struct MetricRow {
  const char* name;
  double (*get)(const MetricsReport&);
};

const MetricRow kMetrics[] = {
    {"rv travel distance (km)",
     [](const MetricsReport& r) { return r.rv_travel_distance.value() / 1e3; }},
    {"rv travel energy (MJ)",
     [](const MetricsReport& r) { return r.rv_travel_energy.value() / 1e6; }},
    {"energy recharged (MJ)",
     [](const MetricsReport& r) { return r.energy_recharged.value() / 1e6; }},
    {"objective score (MJ)",
     [](const MetricsReport& r) { return r.objective_score().value() / 1e6; }},
    {"coverage ratio (%)",
     [](const MetricsReport& r) { return 100.0 * r.coverage_ratio; }},
    {"missing rate (%)",
     [](const MetricsReport& r) { return 100.0 * r.missing_rate; }},
    {"nonfunctional (%)",
     [](const MetricsReport& r) { return r.nonfunctional_pct; }},
    {"recharging cost (m/sensor)",
     [](const MetricsReport& r) { return r.recharging_cost_m_per_sensor(); }},
    {"recharge requests",
     [](const MetricsReport& r) { return static_cast<double>(r.recharge_requests); }},
    {"sensors recharged",
     [](const MetricsReport& r) { return static_cast<double>(r.sensors_recharged); }},
    {"mean request latency (min)",
     [](const MetricsReport& r) { return r.avg_request_latency.value() / 60.0; }},
    {"sensor deaths",
     [](const MetricsReport& r) { return static_cast<double>(r.sensor_deaths); }},
    {"packets delivered (k)",
     [](const MetricsReport& r) { return r.packets_delivered / 1e3; }},
    {"delivery ratio (%)",
     [](const MetricsReport& r) { return 100.0 * r.delivery_ratio(); }},
};

void write_csv(const std::string& path, const SimConfig& cfg,
               const std::vector<MetricsReport>& reports) {
  const bool exists = static_cast<bool>(std::ifstream(path));
  std::ofstream os(path, std::ios::app);
  WRSN_REQUIRE(os.good(), "cannot open '" + path + "' for writing");
  if (!exists) {
    os << "seed,scheduler,routing,activation,erp";
    for (const MetricRow& m : kMetrics) os << ',' << m.name;
    os << '\n';
  }
  for (std::size_t i = 0; i < reports.size(); ++i) {
    os << cfg.seed + i << ',' << cfg.scheduler << ',' << cfg.routing << ','
       << to_string(cfg.activation) << ',' << cfg.energy_request_percentage;
    for (const MetricRow& m : kMetrics) os << ',' << m.get(reports[i]);
    os << '\n';
  }
}

void write_series(const std::string& path, const TimeSeries& series) {
  std::ofstream os(path);
  WRSN_REQUIRE(os.good(), "cannot open '" + path + "' for writing");
  os << "t_hours,alive,covered,coverable,pending_requests,rv_km\n";
  for (const TimeSeriesPoint& p : series) {
    os << p.t / 3600.0 << ',' << p.alive << ',' << p.covered << ','
       << p.coverable << ',' << p.pending_requests << ','
       << p.rv_travel_distance / 1e3 << '\n';
  }
}

int sim_main(const std::vector<std::string>& args) {
  RunOptions opts;
  opts.config = SimConfig::paper_defaults();
  std::size_t seeds = 1;
  std::string csv_path, series_path, svg_path, json_path;
  bool print_config = false;
  const auto tool_flags = [&](const std::string& a, const auto& value) {
    if (a == "--seeds") {
      seeds = parse_count(a, value());
      WRSN_REQUIRE(seeds > 0, "--seeds must be positive");
    } else if (a == "--csv") {
      csv_path = value();
    } else if (a == "--json") {
      json_path = value();
    } else if (a == "--series") {
      series_path = value();
    } else if (a == "--svg") {
      svg_path = value();
    } else if (a == "--print-config") {
      print_config = true;
    } else {
      return false;
    }
    return true;
  };
  if (!parse_run_options(args, kUsage, tool_flags, opts)) return 0;

  opts.config.validate();
  if (print_config) {
    std::cout << config_to_text(opts.config);
    return 0;
  }
  // Checkpoint/restore is a single-replica feature: a snapshot captures ONE
  // world, and replica fan-out would leave the other seeds unrecoverable.
  WRSN_REQUIRE((opts.checkpoint_prefix.empty() && opts.restore_path.empty()) || seeds == 1,
               "--checkpoint/--restore require a single replica (--seeds 1)");

  obs::TelemetryRegistry telemetry;
  obs::TelemetryRegistry* const telemetry_ptr = telemetry_target(opts, telemetry);
  std::vector<MetricsReport> reports;
  {
    // The first replica runs in-process so its series / final state can be
    // dumped; spans, Chrome export and flight recording attach to it too.
    SingleRun first("wrsn_sim", opts, telemetry_ptr);
    first.world().enable_time_series(!series_path.empty());
    if (!first.run()) return kExitStopped;
    reports.push_back(first.world().report());
    if (!series_path.empty()) write_series(series_path, first.world().time_series());
    if (!svg_path.empty()) save_svg(svg_path, first.world());
  }
  const SimConfig& cfg = opts.config;
  if (seeds > 1) {
    SimConfig rest = cfg;
    rest.seed = cfg.seed + 1;
    ThreadPool pool(cfg.threads);
    auto more = run_replicas(rest, seeds - 1, &pool, telemetry_ptr);
    reports.insert(reports.end(), more.begin(), more.end());
  }

  std::cout << "wrsn_sim: " << cfg.scheduler << " / "
            << to_string(cfg.activation)
            << ", ERP=" << cfg.energy_request_percentage << ", "
            << cfg.sim_duration.value() / 86400.0 << " days x " << seeds
            << " replica(s)\n\n";

  Table t(seeds > 1
              ? std::vector<std::string>{"metric", "mean", "+/- 95% CI", "min", "max"}
              : std::vector<std::string>{"metric", "value"});
  t.set_precision(3);
  for (const MetricRow& m : kMetrics) {
    RunningStats stats;
    for (const MetricsReport& r : reports) stats.add(m.get(r));
    if (seeds > 1) {
      t.add_row({std::string(m.name), stats.mean(), stats.ci95_halfwidth(),
                 stats.min(), stats.max()});
    } else {
      t.add_row({std::string(m.name), stats.mean()});
    }
  }
  t.print(std::cout);

  if (!csv_path.empty()) {
    write_csv(csv_path, cfg, reports);
    std::cout << "\nwrote " << reports.size() << " row(s) to " << csv_path << '\n';
  }
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    WRSN_REQUIRE(os.good(), "cannot open '" + json_path + "' for writing");
    os << '[';
    for (std::size_t i = 0; i < reports.size(); ++i) {
      os << (i ? "," : "") << '\n' << to_json(reports[i]);
    }
    os << "\n]\n";
    std::cout << "wrote JSON reports to " << json_path << '\n';
  }
  if (telemetry_ptr != nullptr) {
    obs::write_registry_file(opts.telemetry_path, telemetry);
    std::cout << "wrote telemetry to " << opts.telemetry_path << '\n';
  }
  if (!series_path.empty()) std::cout << "wrote time series to " << series_path << '\n';
  if (!svg_path.empty()) std::cout << "wrote final-state SVG to " << svg_path << '\n';
  if (!opts.spans_path.empty()) std::cout << "wrote spans to " << opts.spans_path << '\n';
  if (!opts.chrome_path.empty()) {
    std::cout << "wrote Chrome trace to " << opts.chrome_path
              << " (load in https://ui.perfetto.dev)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return wrsn::run_main("wrsn_sim", [&] {
    return sim_main(std::vector<std::string>(argv + 1, argv + argc));
  });
}
