// wrsn_trace — dump the discrete-event stream of a simulation (one record
// per processed event), for debugging schedules and for teaching material.
// Use short horizons: a 120-day run emits hundreds of thousands of events.
// The config, observability, checkpoint and listing flags are shared with
// wrsn_sim and wrsn_sweep (tools/run_options.hpp).
//
//   wrsn_trace [shared flags] [--out FILE] [--format csv|jsonl]
//
// Formats (both carry the same fields; see obs/trace.hpp):
//   csv    t_seconds,t_hours,event,subject,epoch,queue_size   (default)
//   jsonl  schema-versioned JSON lines; line 1 is a meta record
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/atomic_file.hpp"
#include "core/error.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "run_options.hpp"
#include "sim/world.hpp"

namespace {

using namespace wrsn;

const char kUsage[] =
    "wrsn_trace — one record per processed event of a simulation (default\n"
    "horizon 1 day; keep it short)\n"
    "\n"
    "  --out FILE           write the trace to FILE (default stdout)\n"
    "  --format csv|jsonl   csv (default) or schema-versioned JSON lines\n";

int trace_main(const std::vector<std::string>& args) {
  RunOptions opts;
  opts.config = SimConfig::paper_defaults();
  opts.config.sim_duration = days(1.0);
  std::string out_path, format = "csv";
  const auto tool_flags = [&](const std::string& a, const auto& value) {
    if (a == "--out") {
      out_path = value();
    } else if (a == "--format") {
      format = value();
      WRSN_REQUIRE(format == "csv" || format == "jsonl",
                   "--format must be csv or jsonl");
    } else {
      return false;
    }
    return true;
  };
  if (!parse_run_options(args, kUsage, tool_flags, opts)) return 0;
  opts.config.validate();

  std::unique_ptr<AtomicFile> out_file;
  if (!out_path.empty()) out_file = std::make_unique<AtomicFile>(out_path);
  std::ostream& out = out_file != nullptr ? out_file->stream() : std::cout;
  std::unique_ptr<obs::TraceSink> sink;
  if (format == "jsonl") {
    sink = std::make_unique<obs::JsonlTraceSink>(out);
  } else {
    sink = std::make_unique<obs::CsvTraceSink>(out);
  }

  obs::TelemetryRegistry registry;
  obs::TelemetryRegistry* const telemetry = telemetry_target(opts, registry);
  SingleRun run("wrsn_trace", opts, telemetry);
  std::size_t count = 0;
  run.world().set_trace_sink(sink.get());
  run.world().set_tracer([&](const World::TraceEvent&) { ++count; });
  const bool finished = run.run();
  sink->finish();
  if (out_file != nullptr) out_file->commit();
  if (!finished) return kExitStopped;

  if (!opts.spans_path.empty()) std::cerr << "wrote spans to " << opts.spans_path << '\n';
  if (!opts.chrome_path.empty()) {
    std::cerr << "wrote Chrome trace to " << opts.chrome_path << '\n';
  }
  if (telemetry != nullptr) {
    obs::write_registry_file(opts.telemetry_path, registry);
    std::cerr << "wrote telemetry to " << opts.telemetry_path << '\n';
  }
  std::cerr << "traced " << count << " events over "
            << opts.config.sim_duration.value() / 86400.0 << " simulated day(s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return wrsn::run_main("wrsn_trace", [&] {
    return trace_main(std::vector<std::string>(argv + 1, argv + argc));
  });
}
