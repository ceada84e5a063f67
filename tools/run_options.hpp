#pragma once
// The command-line front end shared by wrsn_sim, wrsn_trace and wrsn_sweep:
// one parser for the flags the three tools have in common, one way to open
// the span / Chrome / flight sinks and attach them to a World, one
// checkpoint and signal-stop path, and one main() error wrapper. A tool
// adds only its own flags (through a ToolFlags callback) and its outputs.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/atomic_file.hpp"
#include "core/config.hpp"
#include "core/error.hpp"
#include "obs/flight.hpp"
#include "obs/spans.hpp"
#include "obs/telemetry.hpp"
#include "sim/runner.hpp"
#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace wrsn {

// Exit code of a run stopped by --checkpoint-on-signal: stopped but
// resumable with --restore (EX_TEMPFAIL).
inline constexpr int kExitStopped = 75;

// Strict numeric flag values. std::stoul accepts "-1" and wraps it to
// 2^64-1, and stops at the first non-digit ("1x" reads as 1); std::stod has
// the same trailing-junk hole and also accepts "inf" and "nan". Count flags
// accept plain decimal integers that fit in 64 bits and nothing else;
// real-valued flags accept one whole finite decimal number within their
// bound. Failure throws InvalidArgument naming the flag.
[[nodiscard]] std::size_t parse_count(const std::string& flag, const std::string& value);

// Lower bound of a real-valued flag: strictly positive (a period) or
// non-negative (a budget where 0 means "off" or "none").
enum class Bound { kPositive, kNonNegative };

[[nodiscard]] double parse_finite(const std::string& flag, const std::string& value,
                                  Bound bound);

// The shared flags, parsed.
struct RunOptions {
  SimConfig config;  // the tool's defaults, then the config flags in order
  std::string telemetry_path;
  std::string spans_path;
  std::string chrome_path;
  std::size_t flight_capacity = 0;
  std::string checkpoint_prefix;
  double checkpoint_every = 0.0;
  bool checkpoint_on_signal = false;
  std::string restore_path;
};

// A tool's own flags: returns false for a flag it does not know, and calls
// `value()` to take the flag's argument (which throws when there is none).
using ToolFlags = std::function<bool(const std::string& flag,
                                     const std::function<const std::string&()>& value)>;

// An unknown flag; run_main exits 2 for it instead of 1.
class UsageError : public InvalidArgument {
 public:
  using InvalidArgument::InvalidArgument;
};

// Parses `args` (argv without the program name) into `opts`, handing the
// flags the tools do not share to `tool_flags`. The config flags (--config,
// --set, --days, --seed, --scheduler, --routing, --threads, --faults) apply
// in command-line order on top of opts.config. --help prints `usage` and
// then the shared flags; --help and the --list* flags print to stdout and
// return false, after which the tool exits 0. Throws InvalidArgument for a
// missing or malformed value, for --checkpoint-every/--checkpoint-on-signal
// without --checkpoint, and for a config flag next to --restore (a restored
// run takes its configuration from the snapshot); UsageError for an unknown
// flag.
[[nodiscard]] bool parse_run_options(const std::vector<std::string>& args,
                                     const std::string& usage,
                                     const ToolFlags& tool_flags, RunOptions& opts);

// The registry a run records into: null without --telemetry, otherwise
// `registry` once the output path proved writable.
[[nodiscard]] obs::TelemetryRegistry* telemetry_target(const RunOptions& opts,
                                                       obs::TelemetryRegistry& registry);

// With --flight-recorder: arms the recorders' failure hook and, unless
// --checkpoint-on-signal owns SIGINT/SIGTERM, their signal handlers.
void arm_flight_hooks(const RunOptions& opts);

// The span, Chrome and flight sinks of one world (an empty path or a zero
// capacity leaves that sink off). Span and Chrome files are written through
// AtomicFile: they appear under their names only at finish() or commit(),
// so a failed run leaves no truncated file behind.
class WorldSinks {
 public:
  WorldSinks(const std::string& spans_path, const std::string& chrome_path,
             std::size_t flight_capacity, std::string flight_label);
  WorldSinks(const WorldSinks&) = delete;
  WorldSinks& operator=(const WorldSinks&) = delete;

  // The sinks plus `telemetry` (may be null), for attach().
  [[nodiscard]] ReplicaInstruments instruments(obs::TelemetryRegistry* telemetry) const;
  [[nodiscard]] obs::FlightRecorder* flight() const { return flight_.get(); }
  // Continues a restored snapshot's span numbering, so span files stitched
  // across an interruption stay consistent.
  void continue_spans(const WorldSnapshot& snapshot);
  // Closes the spans still open at `t_end`, then commit()s.
  void finish(double t_end);
  // Publishes the files as written so far.
  void commit();

 private:
  std::unique_ptr<AtomicFile> spans_file_;
  std::unique_ptr<AtomicFile> chrome_file_;
  std::unique_ptr<obs::JsonlSpanSink> spans_sink_;
  std::unique_ptr<obs::ChromeTraceSink> chrome_sink_;
  std::unique_ptr<obs::SpanLog> span_log_;
  std::unique_ptr<obs::FlightRecorder> flight_;
};

// The one world of wrsn_trace and of wrsn_sim's first replica: built from
// opts.config, or from the --restore snapshot (whose configuration then
// replaces opts.config), with `telemetry`, the shared sinks and the
// --checkpoint hook attached.
class SingleRun {
 public:
  SingleRun(std::string tool, RunOptions& opts, obs::TelemetryRegistry* telemetry);
  SingleRun(const SingleRun&) = delete;
  SingleRun& operator=(const SingleRun&) = delete;

  [[nodiscard]] World& world() { return *world_; }

  // Runs to the horizon, finishes the sinks and returns true. A
  // --checkpoint-on-signal stop instead writes the terminal snapshot,
  // commits the sinks as they stand (open spans continue after --restore),
  // dumps the flight recorder, reports the stop on stderr and returns
  // false; the tool then exits kExitStopped.
  [[nodiscard]] bool run();

 private:
  std::string tool_;
  std::unique_ptr<WorldSinks> sinks_;
  std::unique_ptr<World> world_;
  std::unique_ptr<CheckpointWriter> checkpointer_;
};

// Runs a tool's main body. An escaping exception dumps the armed flight
// recorders and becomes one "<tool>: <what>" line on stderr with exit 1
// (exit 2 for a UsageError).
int run_main(const char* tool, const std::function<int()>& body);

}  // namespace wrsn
