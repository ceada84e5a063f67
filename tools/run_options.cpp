#include "run_options.hpp"

#include <algorithm>
#include <csignal>
#include <iomanip>
#include <iostream>
#include <optional>
#include <utility>

#include "core/binio.hpp"
#include "core/config_io.hpp"
#include "net/routing.hpp"
#include "sched/policy.hpp"

namespace wrsn {

namespace {

// Set by the SIGINT/SIGTERM handler under --checkpoint-on-signal; the
// checkpoint hook polls it at event granularity, so the stop always lands
// at a quiescent event boundary where a snapshot is exact.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void checkpoint_signal_handler(int) { g_stop_requested = 1; }

const char kSharedHelp[] =
    "\n"
    "shared flags (wrsn_sim, wrsn_trace, wrsn_sweep):\n"
    "  --config FILE        load a key=value config file\n"
    "  --set KEY=VALUE      override one config key (repeatable)\n"
    "  --days N             shorthand for --set sim_days=N\n"
    "  --seed N             shorthand for --set seed=N\n"
    "  --scheduler NAME     a registered policy (see --list-schedulers)\n"
    "  --routing NAME       a registered routing policy (see --list-routers)\n"
    "  --threads N          shorthand for --set threads=N: worker threads\n"
    "                       for replicas (0 = hardware concurrency, the\n"
    "                       default; outputs do not depend on it)\n"
    "  --faults FILE|SPEC   enable fault injection: a config file of\n"
    "                       fault.* keys, or a comma list such as\n"
    "                       request_loss_prob=0.2,rv_breakdown_at_h=6\n"
    "  --telemetry FILE     write aggregated telemetry (event counts, queue\n"
    "                       high-water, scheduler timings) as JSON, or as\n"
    "                       Prometheus text when FILE ends in .prom\n"
    "  --spans PATH         lifecycle spans as JSONL (schema wrsn.spans v2)\n"
    "  --chrome-trace PATH  the same spans as Chrome trace-event JSON, for\n"
    "                       https://ui.perfetto.dev or chrome://tracing\n"
    "  --flight-recorder N  keep the last N events in memory; dumped to\n"
    "                       stderr on assert failure, simulation error or\n"
    "                       Ctrl-C\n"
    "  --checkpoint PREFIX  write world snapshots as PREFIX.NNNNNN.snap\n"
    "                       (atomic temp+rename) plus an fsync'd manifest\n"
    "                       journal PREFIX.manifest.jsonl (wrsn.snapshot);\n"
    "                       one world only (wrsn_sim, wrsn_trace)\n"
    "  --checkpoint-every S snapshot every S simulated seconds\n"
    "                       (requires --checkpoint)\n"
    "  --checkpoint-on-signal\n"
    "                       on SIGINT/SIGTERM, stop at the next event\n"
    "                       boundary, write a terminal snapshot and the\n"
    "                       flight-recorder dump, and exit 75; resume with\n"
    "                       --restore (requires --checkpoint)\n"
    "  --restore FILE       resume from a snapshot file; the configuration\n"
    "                       is the snapshot's own (config flags are\n"
    "                       rejected) and the completed run is\n"
    "                       byte-identical to an uninterrupted one\n"
    "  --list-keys          list recognized config keys and exit\n"
    "  --list-schedulers    list registered scheduler policies and exit\n"
    "  --list-routers       list registered routing policies and exit\n"
    "  --list               list every enum-like knob and its accepted\n"
    "                       values (one sweepable knob=v1,v2,... per line)\n"
    "  --help               this text\n";

// Shorthands for one config key each.
constexpr std::pair<const char*, const char*> kConfigShorthands[] = {
    {"--days", "sim_days"},       {"--seed", "seed"},
    {"--scheduler", "scheduler"}, {"--routing", "routing"},
    {"--threads", "threads"},
};

template <class Policy>
void print_registry(const Registry<Policy>& registry) {
  std::size_t width = 0;
  for (const std::string& name : registry.names()) {
    width = std::max(width, name.size());
  }
  for (const std::string& name : registry.names()) {
    std::cout << std::left << std::setw(static_cast<int>(width) + 2) << name
              << registry.summary(name) << '\n';
  }
}

// Every enum-like knob with its accepted values, in `key=v1,v2,...` form so
// a shell loop can split a line straight into `--set key=value` sweeps.
void print_knob_lists() {
  const std::pair<const char*, std::vector<std::string>> knobs[] = {
      {"scheduler", scheduler_names()},
      {"routing", routing_names()},
      {"activation", activation_policy_names()},
      {"target_motion", target_motion_names()},
      {"rv.charge_profile", charge_profile_names()},
  };
  for (const auto& [knob, values] : knobs) {
    std::cout << knob << '=';
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::cout << (i ? "," : "") << values[i];
    }
    std::cout << '\n';
  }
}

// Serves an informational flag; false when `flag` is not one.
bool print_info(const std::string& flag, const std::string& usage) {
  if (flag == "--help" || flag == "-h") {
    std::cout << usage << kSharedHelp;
  } else if (flag == "--list-keys") {
    for (const std::string& k : config_keys()) std::cout << k << '\n';
  } else if (flag == "--list-schedulers") {
    print_registry(SchedulerRegistry::instance());
  } else if (flag == "--list-routers") {
    print_registry(RoutingRegistry::instance());
  } else if (flag == "--list") {
    print_knob_lists();
  } else {
    return false;
  }
  return true;
}

// Applies a config flag; false when `flag` is not one.
bool apply_config_flag(const std::string& flag,
                       const std::function<const std::string&()>& value,
                       SimConfig& config) {
  if (flag == "--config") {
    config = load_config(value(), config);
  } else if (flag == "--set") {
    const std::string& kv = value();
    const auto eq = kv.find('=');
    WRSN_REQUIRE(eq != std::string::npos, "--set expects KEY=VALUE");
    config_set(config, kv.substr(0, eq), kv.substr(eq + 1));
  } else if (flag == "--faults") {
    apply_fault_arg(config, value());
  } else {
    const auto* shorthand =
        std::find_if(std::begin(kConfigShorthands), std::end(kConfigShorthands),
                     [&](const auto& s) { return flag == s.first; });
    if (shorthand == std::end(kConfigShorthands)) return false;
    config_set(config, shorthand->second, value());
  }
  return true;
}

}  // namespace

std::size_t parse_count(const std::string& flag, const std::string& value) {
  const std::optional<std::uint64_t> v = parse_decimal_u64(value);
  if (!v) {
    throw InvalidArgument(flag + " expects a non-negative integer below 2^64, got '" +
                          value + "'");
  }
  return static_cast<std::size_t>(*v);
}

double parse_finite(const std::string& flag, const std::string& value, Bound bound) {
  const std::optional<double> v = parse_finite_double(value);
  if (!v || !(bound == Bound::kPositive ? *v > 0.0 : *v >= 0.0)) {
    throw InvalidArgument(flag + " expects a finite number " +
                          (bound == Bound::kPositive ? "> 0" : ">= 0") + ", got '" +
                          value + "'");
  }
  return *v;
}

bool parse_run_options(const std::vector<std::string>& args, const std::string& usage,
                       const ToolFlags& tool_flags, RunOptions& opts) {
  std::string config_flag;  // the first config flag seen, for --restore
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const std::function<const std::string&()> value = [&]() -> const std::string& {
      WRSN_REQUIRE(i + 1 < args.size(), a + " needs a value");
      return args[++i];
    };
    if (print_info(a, usage)) return false;
    if (apply_config_flag(a, value, opts.config)) {
      if (config_flag.empty()) config_flag = a;
    } else if (a == "--telemetry") {
      opts.telemetry_path = value();
    } else if (a == "--spans") {
      opts.spans_path = value();
    } else if (a == "--chrome-trace") {
      opts.chrome_path = value();
    } else if (a == "--flight-recorder") {
      opts.flight_capacity = parse_count(a, value());
      WRSN_REQUIRE(opts.flight_capacity > 0, "--flight-recorder must be positive");
    } else if (a == "--checkpoint") {
      opts.checkpoint_prefix = value();
    } else if (a == "--checkpoint-every") {
      opts.checkpoint_every = parse_finite(a, value(), Bound::kPositive);
    } else if (a == "--checkpoint-on-signal") {
      opts.checkpoint_on_signal = true;
    } else if (a == "--restore") {
      opts.restore_path = value();
    } else if (!tool_flags(a, value)) {
      throw UsageError("unknown option '" + a + "'");
    }
  }
  if (!opts.restore_path.empty() && !config_flag.empty()) {
    throw InvalidArgument("--restore runs the snapshot's own configuration; " +
                          config_flag + " cannot change it");
  }
  WRSN_REQUIRE(!opts.checkpoint_prefix.empty() ||
                   (opts.checkpoint_every <= 0.0 && !opts.checkpoint_on_signal),
               "--checkpoint-every/--checkpoint-on-signal require --checkpoint PREFIX");
  return true;
}

obs::TelemetryRegistry* telemetry_target(const RunOptions& opts,
                                         obs::TelemetryRegistry& registry) {
  if (opts.telemetry_path.empty()) return nullptr;
  obs::require_writable(opts.telemetry_path);
  return &registry;
}

void arm_flight_hooks(const RunOptions& opts) {
  if (opts.flight_capacity == 0) return;
  obs::FlightRecorder::arm_failure_hook();
  if (!opts.checkpoint_on_signal) obs::FlightRecorder::arm_signal_handlers();
}

WorldSinks::WorldSinks(const std::string& spans_path, const std::string& chrome_path,
                       std::size_t flight_capacity, std::string flight_label) {
  if (!spans_path.empty()) {
    spans_file_ = std::make_unique<AtomicFile>(spans_path);
    spans_sink_ = std::make_unique<obs::JsonlSpanSink>(spans_file_->stream());
  }
  if (!chrome_path.empty()) {
    chrome_file_ = std::make_unique<AtomicFile>(chrome_path);
    chrome_sink_ = std::make_unique<obs::ChromeTraceSink>(chrome_file_->stream());
  }
  if (spans_sink_ != nullptr || chrome_sink_ != nullptr) {
    span_log_ = std::make_unique<obs::SpanLog>(spans_sink_.get(), chrome_sink_.get());
  }
  if (flight_capacity > 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(flight_capacity);
    flight_->set_label(std::move(flight_label));
  }
}

ReplicaInstruments WorldSinks::instruments(obs::TelemetryRegistry* telemetry) const {
  return {.telemetry = telemetry, .spans = span_log_.get(), .flight = flight_.get()};
}

void WorldSinks::continue_spans(const WorldSnapshot& snapshot) {
  if (span_log_ == nullptr || snapshot.span_state.empty()) return;
  BinReader reader(snapshot.span_state);
  span_log_->deserialize(reader);
  reader.expect_end();
}

void WorldSinks::finish(double t_end) {
  if (span_log_ != nullptr) span_log_->finish(t_end);
  commit();
}

void WorldSinks::commit() {
  if (spans_file_ != nullptr) spans_file_->commit();
  if (chrome_file_ != nullptr) chrome_file_->commit();
}

SingleRun::SingleRun(std::string tool, RunOptions& opts,
                     obs::TelemetryRegistry* telemetry)
    : tool_(std::move(tool)) {
  std::unique_ptr<WorldSnapshot> restored;
  if (!opts.restore_path.empty()) {
    restored = std::make_unique<WorldSnapshot>(load_snapshot_file(opts.restore_path));
    opts.config = config_from_text(restored->config_text);
  }
  sinks_ = std::make_unique<WorldSinks>(opts.spans_path, opts.chrome_path,
                                        opts.flight_capacity,
                                        tool_ + " seed " + std::to_string(opts.config.seed));
  if (restored != nullptr) sinks_->continue_spans(*restored);
  world_ = restored != nullptr ? std::make_unique<World>(*restored)
                               : std::make_unique<World>(opts.config);
  attach(*world_, sinks_->instruments(telemetry));
  if (obs::FlightRecorder* flight = sinks_->flight()) {
    flight->set_context_provider([w = world_.get()] { return to_json(w->report()); });
  }
  arm_flight_hooks(opts);

  if (opts.checkpoint_prefix.empty()) return;
  checkpointer_ = std::make_unique<CheckpointWriter>(opts.checkpoint_prefix);
  if (opts.checkpoint_on_signal) {
    std::signal(SIGINT, checkpoint_signal_handler);
    std::signal(SIGTERM, checkpoint_signal_handler);
  }
  world_->set_checkpoint_hook(
      [writer = checkpointer_.get(), every = opts.checkpoint_every,
       on_signal = opts.checkpoint_on_signal,
       next = opts.checkpoint_every](const World& w) mutable {
        if (on_signal && g_stop_requested != 0) return true;
        if (every > 0.0 && w.now().value() >= next) {
          writer->save(w, /*terminal=*/false);
          while (next <= w.now().value()) next += every;
        }
        return false;
      });
}

bool SingleRun::run() {
  (void)world_->run();
  if (world_->finished()) {
    sinks_->finish(world_->now().value());
    return true;
  }
  const std::string snap_path = checkpointer_->save(*world_, /*terminal=*/true);
  sinks_->commit();
  obs::FlightRecorder::dump_all("checkpoint-signal");
  std::cerr << tool_ << ": stopped by signal at t=" << world_->now().value()
            << "s after " << world_->events_processed()
            << " events; snapshot saved to " << snap_path << " (resume with --restore)\n";
  return false;
}

int run_main(const char* tool, const std::function<int()>& body) {
  try {
    return body();
  } catch (const UsageError& e) {
    std::cerr << tool << ": " << e.what() << " (try --help)\n";
    return 2;
  } catch (const std::exception& e) {
    obs::FlightRecorder::dump_all("graceful-failure");
    std::cerr << tool << ": " << e.what() << '\n';
    return 1;
  } catch (...) {
    obs::FlightRecorder::dump_all("graceful-failure");
    std::cerr << tool << ": unknown error\n";
    return 1;
  }
}

}  // namespace wrsn
