// wrsn_trace — dump the discrete-event stream of a simulation (one record
// per processed event), for debugging schedules and for teaching material.
// Use short horizons: a 120-day run emits hundreds of thousands of events.
//
//   wrsn_trace [--days N] [--set KEY=VALUE]...
//              [--faults FILE|SPEC] [--out FILE] [--format csv|jsonl]
//              [--telemetry FILE] [--spans FILE] [--chrome-trace FILE]
//              [--flight-recorder N]
//
// Formats (both carry the same fields; see obs/trace.hpp):
//   csv    t_seconds,t_hours,event,subject,epoch,queue_size   (default)
//   jsonl  schema-versioned JSON lines; line 1 is a meta record
//
// --telemetry FILE additionally writes the run's telemetry registry (event
// pop counts, stale discards, queue high-water mark, scheduler timings) as
// JSON, or Prometheus text exposition when FILE ends in ".prom".
// --spans / --chrome-trace write lifecycle spans (schema wrsn.spans v2 JSONL
// / Chrome trace-event JSON for Perfetto); --flight-recorder N keeps the last
// N events in memory and dumps them to stderr on assert failure or Ctrl-C.
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cli_numbers.hpp"
#include "core/config_io.hpp"
#include "core/error.hpp"
#include "net/routing.hpp"
#include "obs/flight.hpp"
#include "obs/spans.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace {
// --checkpoint-on-signal: SIGINT/SIGTERM request a stop at the next event
// boundary, where the world is quiescent and a snapshot is exact.
volatile std::sig_atomic_t g_stop_requested = 0;
extern "C" void checkpoint_signal_handler(int) { g_stop_requested = 1; }
}  // namespace

int main(int argc, char** argv) try {
  using namespace wrsn;
  SimConfig cfg = SimConfig::paper_defaults();
  cfg.sim_duration = days(1.0);
  std::string out_path, format = "csv", telemetry_path;
  std::string spans_path, chrome_path;
  std::string checkpoint_prefix, restore_path;
  double checkpoint_every = 0.0;
  bool checkpoint_on_signal = false;
  std::size_t flight_capacity = 0;

  const std::vector<std::string> args(argv + 1, argv + argc);
  auto need_value = [&](std::size_t& i) -> const std::string& {
    WRSN_REQUIRE(i + 1 < args.size(), args[i] + " needs a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      std::cout << "wrsn_trace [--days N] [--set KEY=VALUE]...\n"
                   "           [--faults FILE|SPEC] [--out FILE] [--format csv|jsonl]\n"
                   "           [--telemetry FILE] [--spans FILE] [--chrome-trace FILE]\n"
                   "           [--flight-recorder N]\n"
                   "           [--checkpoint PREFIX] [--checkpoint-every S]\n"
                   "           [--checkpoint-on-signal] [--restore FILE]\n"
                   "           [--list-routers]\n"
                   "checkpoint flags behave as in wrsn_sim: snapshots are\n"
                   "PREFIX.NNNNNN.snap + PREFIX.manifest.jsonl; a signal stop\n"
                   "exits 75 and --restore continues byte-identically\n";
      return 0;
    }
    if (a == "--list-routers") {
      for (const std::string& name : routing_names()) std::cout << name << '\n';
      return 0;
    }
    if (a == "--days") {
      config_set(cfg, "sim_days", need_value(i));
    } else if (a == "--faults") {
      apply_fault_arg(cfg, need_value(i));
    } else if (a == "--set") {
      const std::string& kv = need_value(i);
      const auto eq = kv.find('=');
      WRSN_REQUIRE(eq != std::string::npos, "--set expects KEY=VALUE");
      config_set(cfg, kv.substr(0, eq), kv.substr(eq + 1));
    } else if (a == "--out") {
      out_path = need_value(i);
    } else if (a == "--format") {
      format = need_value(i);
      WRSN_REQUIRE(format == "csv" || format == "jsonl",
                   "--format must be csv or jsonl");
    } else if (a == "--telemetry") {
      telemetry_path = need_value(i);
    } else if (a == "--spans") {
      spans_path = need_value(i);
    } else if (a == "--chrome-trace") {
      chrome_path = need_value(i);
    } else if (a == "--flight-recorder") {
      flight_capacity = parse_count(a, need_value(i));
      WRSN_REQUIRE(flight_capacity > 0, "--flight-recorder must be positive");
    } else if (a == "--checkpoint") {
      checkpoint_prefix = need_value(i);
    } else if (a == "--checkpoint-every") {
      checkpoint_every = parse_finite(a, need_value(i), Bound::kPositive);
    } else if (a == "--checkpoint-on-signal") {
      checkpoint_on_signal = true;
    } else if (a == "--restore") {
      restore_path = need_value(i);
    } else {
      std::cerr << "unknown option '" << a << "'\n";
      return 2;
    }
  }
  cfg.validate();
  WRSN_REQUIRE(
      !checkpoint_prefix.empty() || (checkpoint_every <= 0.0 && !checkpoint_on_signal),
      "--checkpoint-every/--checkpoint-on-signal require --checkpoint PREFIX");

  // Restore rebuilds the world from the config embedded in the snapshot.
  std::unique_ptr<WorldSnapshot> restored;
  if (!restore_path.empty()) {
    restored = std::make_unique<WorldSnapshot>(load_snapshot_file(restore_path));
    cfg = config_from_text(restored->config_text);
  }

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    WRSN_REQUIRE(file.good(), "cannot open '" + out_path + "'");
  }
  std::ostream& out = file.is_open() ? static_cast<std::ostream&>(file) : std::cout;

  std::unique_ptr<obs::TraceSink> sink;
  if (format == "jsonl") {
    sink = std::make_unique<obs::JsonlTraceSink>(out);
  } else {
    sink = std::make_unique<obs::CsvTraceSink>(out);
  }

  std::ofstream spans_file, chrome_file;
  std::unique_ptr<obs::JsonlSpanSink> spans_sink;
  std::unique_ptr<obs::ChromeTraceSink> chrome_sink;
  std::unique_ptr<obs::SpanLog> span_log;
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
    span_log = std::make_unique<obs::SpanLog>(spans_sink.get(), chrome_sink.get());
  }

  // A restored run continues the snapshot's span numbering so stitched span
  // files stay consistent across the interruption.
  if (restored != nullptr && span_log != nullptr && !restored->span_state.empty()) {
    BinReader span_reader(restored->span_state);
    span_log->deserialize(span_reader);
    span_reader.expect_end();
  }

  obs::TelemetryRegistry registry;
  if (!telemetry_path.empty()) obs::require_writable(telemetry_path);
  std::size_t count = 0;
  auto world_ptr = restored != nullptr ? std::make_unique<World>(*restored)
                                       : std::make_unique<World>(cfg);
  World& world = *world_ptr;
  world.set_trace_sink(sink.get());
  if (!telemetry_path.empty()) world.set_telemetry(&registry);
  world.set_span_log(span_log.get());
  std::unique_ptr<obs::FlightRecorder> flight;
  if (flight_capacity > 0) {
    flight = std::make_unique<obs::FlightRecorder>(flight_capacity);
    flight->set_label("wrsn_trace seed " + std::to_string(cfg.seed));
    flight->set_context_provider([&world] { return to_json(world.report()); });
    world.set_flight_recorder(flight.get());
    obs::FlightRecorder::arm_failure_hook();
    // With --checkpoint-on-signal this tool's own handler owns the signals.
    if (!checkpoint_on_signal) obs::FlightRecorder::arm_signal_handlers();
  }
  std::unique_ptr<CheckpointWriter> checkpointer;
  if (!checkpoint_prefix.empty()) {
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
        while (next_checkpoint <= w.now().value()) next_checkpoint += checkpoint_every;
      }
      return false;
    });
  }
  world.set_tracer([&](const World::TraceEvent&) { ++count; });
  world.run();
  if (!world.finished()) {
    // Signal stop at a quiescent boundary: terminal snapshot + flight dump,
    // then the distinctive "stopped but resumable" exit code 75.
    sink->finish();
    const std::string snap_path = checkpointer->save(world, /*terminal=*/true);
    obs::FlightRecorder::dump_all("checkpoint-signal");
    std::cerr << "wrsn_trace: stopped by signal at t=" << world.now().value()
              << "s after " << world.events_processed()
              << " events; snapshot saved to " << snap_path
              << " (resume with --restore)\n";
    return 75;
  }
  sink->finish();
  if (span_log != nullptr) span_log->finish(world.now().value());
  if (!spans_path.empty()) std::cerr << "wrote spans to " << spans_path << '\n';
  if (!chrome_path.empty()) {
    std::cerr << "wrote Chrome trace to " << chrome_path << '\n';
  }

  if (!telemetry_path.empty()) {
    obs::write_registry_file(telemetry_path, registry);
    std::cerr << "wrote telemetry to " << telemetry_path << '\n';
  }
  std::cerr << "traced " << count << " events over "
            << cfg.sim_duration.value() / 86400.0 << " simulated day(s)\n";
  return 0;
} catch (const std::exception& e) {
  wrsn::obs::FlightRecorder::dump_all("graceful-failure");
  std::cerr << "wrsn_trace: " << e.what() << '\n';
  return 1;
} catch (...) {
  wrsn::obs::FlightRecorder::dump_all("graceful-failure");
  std::cerr << "wrsn_trace: unknown error\n";
  return 1;
}
