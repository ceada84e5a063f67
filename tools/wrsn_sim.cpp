// wrsn_sim — command-line driver for the WRSN simulator.
//
//   wrsn_sim [options]
//     --config FILE        load a key=value config file (see --print-config)
//     --set KEY=VALUE      override one config key (repeatable)
//     --days N             shorthand for --set sim_days=N
//     --seed N             shorthand for --set seed=N
//     --scheduler NAME     shorthand for --set scheduler=NAME
//     --routing NAME       shorthand for --set routing=NAME
//     --threads N          shorthand for --set threads=N
//     --seeds N            run N replicas (seed, seed+1, ...) and report
//                          mean +/- 95% CI per metric
//     --csv FILE           append one CSV row per replica to FILE
//     --series FILE        write the time series of the first replica as CSV
//     --svg FILE           render the first replica's final state as SVG
//     --print-config       print the effective configuration and exit
//     --list-keys          list every recognized config key and exit
//     --list-schedulers    list registered scheduler policies and exit
//     --list-routers       list registered routing policies and exit
//     --list               list every enum-like knob with its values and exit
//     --help               this text
#include <algorithm>
#include <csignal>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cli_numbers.hpp"
#include "core/atomic_file.hpp"
#include "core/config_io.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "obs/flight.hpp"
#include "obs/spans.hpp"
#include "net/routing.hpp"
#include "obs/telemetry.hpp"
#include "sched/policy.hpp"
#include "sim/runner.hpp"
#include "sim/snapshot.hpp"
#include "sim/svg.hpp"
#include "sim/world.hpp"

namespace {

using namespace wrsn;

// Set by the SIGINT/SIGTERM handler when --checkpoint-on-signal is active;
// the checkpoint hook polls it at event granularity, so the stop always
// lands at a quiescent event boundary where a snapshot is exact.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void checkpoint_signal_handler(int) { g_stop_requested = 1; }

[[noreturn]] void usage(int code) {
  std::cout <<
      "wrsn_sim — WRSN joint charging & activity management simulator\n"
      "\n"
      "  --config FILE        load a key=value config file\n"
      "  --set KEY=VALUE      override one config key (repeatable)\n"
      "  --days N             shorthand for --set sim_days=N\n"
      "  --seed N             shorthand for --set seed=N\n"
      "  --scheduler NAME     a registered policy (see --list-schedulers)\n"
      "  --routing NAME       a registered routing policy (see --list-routers)\n"
      "  --threads N          shorthand for --set threads=N: worker threads\n"
      "                       for the replicas of --seeds (0 = hardware\n"
      "                       concurrency, the default; reports do not\n"
      "                       depend on it)\n"
      "  --faults FILE|SPEC   enable fault injection: a config file of\n"
      "                       fault.* keys, or a comma list such as\n"
      "                       request_loss_prob=0.2,rv_breakdown_at_h=6\n"
      "  --seeds N            replicas to run (mean +/- 95% CI reported)\n"
      "  --csv FILE           append one CSV row per replica\n"
      "  --json FILE          write all replica reports as a JSON array\n"
      "  --telemetry FILE     write aggregated telemetry (event counts, queue\n"
      "                       high-water, scheduler timings) as JSON, or as\n"
      "                       Prometheus text when FILE ends in .prom\n"
      "  --series FILE        time series of the first replica as CSV\n"
      "  --svg FILE           final state of the first replica as SVG\n"
      "  --spans FILE         lifecycle spans of the first replica as JSONL\n"
      "                       (schema wrsn.spans v2; see obs/spans.hpp)\n"
      "  --chrome-trace FILE  same spans as Chrome trace-event JSON, loadable\n"
      "                       in https://ui.perfetto.dev or chrome://tracing\n"
      "  --flight-recorder N  keep the last N events of the first replica in\n"
      "                       memory; dumped to stderr on assert failure,\n"
      "                       simulation error, or Ctrl-C\n"
      "  --checkpoint PREFIX  write world snapshots as PREFIX.NNNNNN.snap\n"
      "                       (atomic temp+rename) plus an fsync'd manifest\n"
      "                       journal PREFIX.manifest.jsonl (wrsn.snapshot)\n"
      "  --checkpoint-every S snapshot every S simulated seconds\n"
      "                       (requires --checkpoint)\n"
      "  --checkpoint-on-signal\n"
      "                       on SIGINT/SIGTERM, stop at the next event\n"
      "                       boundary, write a terminal snapshot and the\n"
      "                       flight-recorder dump, and exit 75; resume with\n"
      "                       --restore (requires --checkpoint)\n"
      "  --restore FILE       resume from a snapshot file; the configuration\n"
      "                       is taken from the snapshot and the completed\n"
      "                       run is byte-identical to an uninterrupted one\n"
      "  --print-config       print the effective configuration and exit\n"
      "  --list-keys          list recognized config keys and exit\n"
      "  --list-schedulers    list registered scheduler policies and exit\n"
      "  --list-routers       list registered routing policies and exit\n"
      "  --list               list every enum-like knob and its accepted\n"
      "                       values (one sweepable knob=v1,v2,... per line)\n"
      "  --help               this text\n";
  std::exit(code);
}

void print_schedulers() {
  const SchedulerRegistry& registry = SchedulerRegistry::instance();
  std::size_t width = 0;
  for (const std::string& name : registry.names()) {
    width = std::max(width, name.size());
  }
  for (const std::string& name : registry.names()) {
    std::cout << std::left << std::setw(static_cast<int>(width) + 2) << name
              << registry.summary(name) << '\n';
  }
}

void print_routers() {
  const RoutingRegistry& registry = RoutingRegistry::instance();
  std::size_t width = 0;
  for (const std::string& name : registry.names()) {
    width = std::max(width, name.size());
  }
  for (const std::string& name : registry.names()) {
    std::cout << std::left << std::setw(static_cast<int>(width) + 2) << name
              << registry.summary(name) << '\n';
  }
}

void print_list(std::ostream& os, const std::string& knob,
                const std::vector<std::string>& values) {
  os << knob << '=';
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? "," : "") << values[i];
  }
  os << '\n';
}

// Every enum-like knob with its accepted values, in `key=v1,v2,...` form so
// a shell loop can split a line straight into `--set key=value` sweeps.
void print_knob_lists() {
  print_list(std::cout, "scheduler", scheduler_names());
  print_list(std::cout, "routing", routing_names());
  print_list(std::cout, "activation", activation_policy_names());
  print_list(std::cout, "target_motion", target_motion_names());
  print_list(std::cout, "rv.charge_profile", charge_profile_names());
}

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

}  // namespace

int main(int argc, char** argv) try {
  SimConfig cfg = SimConfig::paper_defaults();
  std::size_t seeds = 1;
  std::string csv_path, series_path, svg_path, json_path, telemetry_path;
  std::string spans_path, chrome_path;
  std::string checkpoint_prefix, restore_path;
  double checkpoint_every = 0.0;
  bool checkpoint_on_signal = false;
  std::size_t flight_capacity = 0;
  bool print_config = false;

  const std::vector<std::string> args(argv + 1, argv + argc);
  auto need_value = [&](std::size_t& i) -> const std::string& {
    WRSN_REQUIRE(i + 1 < args.size(), args[i] + " needs a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") usage(0);
    if (a == "--list-keys") {
      for (const std::string& k : config_keys()) std::cout << k << '\n';
      return 0;
    }
    if (a == "--list-schedulers") {
      print_schedulers();
      return 0;
    }
    if (a == "--list-routers") {
      print_routers();
      return 0;
    }
    if (a == "--list") {
      print_knob_lists();
      return 0;
    }
    if (a == "--config") {
      cfg = load_config(need_value(i), cfg);
    } else if (a == "--set") {
      const std::string& kv = need_value(i);
      const auto eq = kv.find('=');
      WRSN_REQUIRE(eq != std::string::npos, "--set expects KEY=VALUE");
      config_set(cfg, kv.substr(0, eq), kv.substr(eq + 1));
    } else if (a == "--days") {
      config_set(cfg, "sim_days", need_value(i));
    } else if (a == "--seed") {
      config_set(cfg, "seed", need_value(i));
    } else if (a == "--scheduler") {
      config_set(cfg, "scheduler", need_value(i));
    } else if (a == "--routing") {
      config_set(cfg, "routing", need_value(i));
    } else if (a == "--threads") {
      config_set(cfg, "threads", need_value(i));
    } else if (a == "--faults") {
      apply_fault_arg(cfg, need_value(i));
    } else if (a == "--seeds") {
      seeds = parse_count(a, need_value(i));
      WRSN_REQUIRE(seeds > 0, "--seeds must be positive");
    } else if (a == "--csv") {
      csv_path = need_value(i);
    } else if (a == "--json") {
      json_path = need_value(i);
    } else if (a == "--telemetry") {
      telemetry_path = need_value(i);
    } else if (a == "--spans") {
      spans_path = need_value(i);
    } else if (a == "--chrome-trace") {
      chrome_path = need_value(i);
    } else if (a == "--flight-recorder") {
      flight_capacity = parse_count(a, need_value(i));
      WRSN_REQUIRE(flight_capacity > 0, "--flight-recorder must be positive");
    } else if (a == "--series") {
      series_path = need_value(i);
    } else if (a == "--svg") {
      svg_path = need_value(i);
    } else if (a == "--checkpoint") {
      checkpoint_prefix = need_value(i);
    } else if (a == "--checkpoint-every") {
      checkpoint_every = parse_finite(a, need_value(i), Bound::kPositive);
    } else if (a == "--checkpoint-on-signal") {
      checkpoint_on_signal = true;
    } else if (a == "--restore") {
      restore_path = need_value(i);
    } else if (a == "--print-config") {
      print_config = true;
    } else {
      std::cerr << "unknown option '" << a << "'\n\n";
      usage(2);
    }
  }

  cfg.validate();
  if (print_config) {
    std::cout << config_to_text(cfg);
    return 0;
  }

  // Checkpoint/restore is a single-replica feature: a snapshot captures ONE
  // world, and replica fan-out would leave the other seeds unrecoverable.
  const bool checkpointing = !checkpoint_prefix.empty();
  WRSN_REQUIRE(checkpointing || (checkpoint_every <= 0.0 && !checkpoint_on_signal),
               "--checkpoint-every/--checkpoint-on-signal require --checkpoint PREFIX");
  WRSN_REQUIRE((!checkpointing && restore_path.empty()) || seeds == 1,
               "--checkpoint/--restore require a single replica (--seeds 1)");

  // Restore rebuilds the world from the snapshot's own embedded config; the
  // command line must not silently fork the configuration mid-campaign.
  std::unique_ptr<WorldSnapshot> restored;
  if (!restore_path.empty()) {
    restored = std::make_unique<WorldSnapshot>(load_snapshot_file(restore_path));
    cfg = config_from_text(restored->config_text);
  }

  // First replica runs in-process so its series / final state can be dumped.
  obs::TelemetryRegistry telemetry;
  obs::TelemetryRegistry* telemetry_ptr =
      telemetry_path.empty() ? nullptr : &telemetry;
  if (telemetry_ptr != nullptr) obs::require_writable(telemetry_path);
  std::vector<MetricsReport> reports;
  {
    // Span tracing, Chrome export and flight recording attach to the first
    // replica (like --series / --svg); sweeps use wrsn_sweep's per-replica
    // files. All are observational: the report is byte-identical either way.
    std::ofstream spans_file, chrome_file;
    std::unique_ptr<obs::JsonlSpanSink> spans_sink;
    std::unique_ptr<obs::ChromeTraceSink> chrome_sink;
    std::unique_ptr<obs::SpanLog> span_log;
    std::unique_ptr<obs::FlightRecorder> flight;
    if (!spans_path.empty()) {
      spans_file.open(spans_path);
      WRSN_REQUIRE(spans_file.good(), "cannot open '" + spans_path + "'");
      spans_sink = std::make_unique<obs::JsonlSpanSink>(spans_file);
    }
    if (!chrome_path.empty()) {
      chrome_file.open(chrome_path);
      WRSN_REQUIRE(chrome_file.good(), "cannot open '" + chrome_path + "'");
      chrome_sink = std::make_unique<obs::ChromeTraceSink>(chrome_file);
    }
    if (spans_sink != nullptr || chrome_sink != nullptr) {
      span_log =
          std::make_unique<obs::SpanLog>(spans_sink.get(), chrome_sink.get());
    }

    // A restored run continues the snapshot's span numbering so stitched
    // span files stay consistent across the interruption.
    if (restored != nullptr && span_log != nullptr &&
        !restored->span_state.empty()) {
      BinReader span_reader(restored->span_state);
      span_log->deserialize(span_reader);
      span_reader.expect_end();
    }

    auto world_ptr = restored != nullptr ? std::make_unique<World>(*restored)
                                         : std::make_unique<World>(cfg);
    World& world = *world_ptr;
    world.set_telemetry(telemetry_ptr);
    world.set_span_log(span_log.get());
    if (flight_capacity > 0) {
      flight = std::make_unique<obs::FlightRecorder>(flight_capacity);
      flight->set_label("wrsn_sim seed " + std::to_string(cfg.seed));
      flight->set_context_provider([&world] { return to_json(world.report()); });
      world.set_flight_recorder(flight.get());
      obs::FlightRecorder::arm_failure_hook();
      // With --checkpoint-on-signal the tool's own handler owns SIGINT /
      // SIGTERM (it checkpoints instead of dumping and aborting).
      if (!checkpoint_on_signal) obs::FlightRecorder::arm_signal_handlers();
    }

    std::unique_ptr<CheckpointWriter> checkpointer;
    if (checkpointing) {
      checkpointer = std::make_unique<CheckpointWriter>(checkpoint_prefix);
      if (checkpoint_on_signal) {
        std::signal(SIGINT, checkpoint_signal_handler);
        std::signal(SIGTERM, checkpoint_signal_handler);
      }
      double next_checkpoint =
          checkpoint_every > 0.0 ? checkpoint_every : cfg.sim_duration.value() * 2.0;
      world.set_checkpoint_hook([&, next_checkpoint](const World& w) mutable {
        if (checkpoint_on_signal && g_stop_requested != 0) return true;
        if (checkpoint_every > 0.0 && w.now().value() >= next_checkpoint) {
          checkpointer->save(w, /*terminal=*/false);
          while (next_checkpoint <= w.now().value()) {
            next_checkpoint += checkpoint_every;
          }
        }
        return false;
      });
    }

    world.enable_time_series(!series_path.empty());
    reports.push_back(world.run());

    if (!world.finished()) {
      // Stopped by SIGINT/SIGTERM at a quiescent event boundary: flush a
      // terminal snapshot + flight dump, then exit with the distinctive
      // "stopped but resumable" code 75 (EX_TEMPFAIL).
      const std::string snap_path = checkpointer->save(world, /*terminal=*/true);
      obs::FlightRecorder::dump_all("checkpoint-signal");
      std::cerr << "wrsn_sim: stopped by signal at t=" << world.now().value()
                << "s after " << world.events_processed()
                << " events; snapshot saved to " << snap_path
                << " (resume with --restore)\n";
      return 75;
    }

    if (span_log != nullptr) span_log->finish(world.now().value());
    if (!series_path.empty()) write_series(series_path, world.time_series());
    if (!svg_path.empty()) save_svg(svg_path, world);
  }
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
  if (!telemetry_path.empty()) {
    obs::write_registry_file(telemetry_path, telemetry);
    std::cout << "wrote telemetry to " << telemetry_path << '\n';
  }
  if (!series_path.empty()) std::cout << "wrote time series to " << series_path << '\n';
  if (!svg_path.empty()) std::cout << "wrote final-state SVG to " << svg_path << '\n';
  if (!spans_path.empty()) std::cout << "wrote spans to " << spans_path << '\n';
  if (!chrome_path.empty()) {
    std::cout << "wrote Chrome trace to " << chrome_path
              << " (load in https://ui.perfetto.dev)\n";
  }
  return 0;
} catch (const std::exception& e) {
  wrsn::obs::FlightRecorder::dump_all("graceful-failure");
  std::cerr << "wrsn_sim: " << e.what() << '\n';
  return 1;
} catch (...) {
  wrsn::obs::FlightRecorder::dump_all("graceful-failure");
  std::cerr << "wrsn_sim: unknown error\n";
  return 1;
}
