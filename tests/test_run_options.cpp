// The shared command-line front end of wrsn_sim, wrsn_trace and wrsn_sweep
// (tools/run_options.hpp): what it accepts, what it rejects, and that a
// restored run cannot be re-configured from the command line.
#include "run_options.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/error.hpp"

namespace wrsn {
namespace {

const std::string kTable2 = std::string(WRSN_SOURCE_DIR) + "/configs/paper_table2.cfg";

// A tool with one flag of its own, --tool-flag VALUE.
struct Parsed {
  RunOptions opts;
  std::string tool_value;
  bool run = false;
};

Parsed parse(const std::vector<std::string>& args) {
  Parsed p;
  p.opts.config = SimConfig::paper_defaults();
  const ToolFlags tool_flags = [&](const std::string& flag, const auto& value) {
    if (flag != "--tool-flag") return false;
    p.tool_value = value();
    return true;
  };
  p.run = parse_run_options(args, "usage\n", tool_flags, p.opts);
  return p;
}

// The message of the InvalidArgument `args` raise ("" when none).
std::string rejection(const std::vector<std::string>& args) {
  try {
    (void)parse(args);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(RunOptions, ParsesEverySharedFlag) {
  const Parsed p = parse({"--config", kTable2, "--set", "num_sensors=40", "--days", "2",
                          "--seed", "9", "--scheduler", "partition", "--routing",
                          "greedy_geo", "--threads", "3", "--faults",
                          "request_loss_prob=0.25", "--telemetry", "tel.json",
                          "--spans", "s.jsonl", "--chrome-trace", "c.json",
                          "--flight-recorder", "64", "--checkpoint", "ck",
                          "--checkpoint-every", "3600.5", "--checkpoint-on-signal",
                          "--tool-flag", "x"});
  EXPECT_TRUE(p.run);
  const SimConfig& c = p.opts.config;
  EXPECT_EQ(c.num_sensors, 40u);
  EXPECT_DOUBLE_EQ(c.sim_duration.value(), 2 * 86400.0);
  EXPECT_EQ(c.seed, 9u);
  EXPECT_EQ(c.scheduler, "partition");
  EXPECT_EQ(c.routing, "greedy_geo");
  EXPECT_EQ(c.threads, 3u);
  EXPECT_TRUE(c.fault.enabled);
  EXPECT_DOUBLE_EQ(c.fault.request_loss_prob, 0.25);
  EXPECT_EQ(p.opts.telemetry_path, "tel.json");
  EXPECT_EQ(p.opts.spans_path, "s.jsonl");
  EXPECT_EQ(p.opts.chrome_path, "c.json");
  EXPECT_EQ(p.opts.flight_capacity, 64u);
  EXPECT_EQ(p.opts.checkpoint_prefix, "ck");
  EXPECT_DOUBLE_EQ(p.opts.checkpoint_every, 3600.5);
  EXPECT_TRUE(p.opts.checkpoint_on_signal);
  EXPECT_EQ(p.tool_value, "x");
}

TEST(RunOptions, ConfigFlagsApplyInCommandLineOrder) {
  EXPECT_EQ(parse({"--set", "seed=5", "--seed", "7"}).opts.config.seed, 7u);
  EXPECT_EQ(parse({"--seed", "7", "--set", "seed=5"}).opts.config.seed, 5u);
  // A config file overlays what came before it, and later flags overlay it.
  EXPECT_EQ(parse({"--set", "num_sensors=40", "--config", kTable2}).opts.config.num_sensors,
            500u);
  EXPECT_EQ(parse({"--config", kTable2, "--set", "num_sensors=40"}).opts.config.num_sensors,
            40u);
}

TEST(RunOptions, RestoreAloneParsesWithoutReadingTheSnapshot) {
  const Parsed p = parse({"--restore", "no_such.snap", "--spans", "s.jsonl",
                          "--telemetry", "t.json", "--flight-recorder", "8",
                          "--checkpoint", "ck", "--tool-flag", "y"});
  EXPECT_TRUE(p.run);
  EXPECT_EQ(p.opts.restore_path, "no_such.snap");
}

TEST(RunOptions, InformationalFlagsPrintAndStop) {
  for (const char* flag : {"--help", "-h", "--list-keys", "--list-schedulers",
                           "--list-routers", "--list"}) {
    testing::internal::CaptureStdout();
    const Parsed p = parse({flag, "--bogus"});
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_FALSE(p.run) << flag;
    EXPECT_FALSE(out.empty()) << flag;
  }
  testing::internal::CaptureStdout();
  (void)parse({"--list-routers"});
  const std::string routers = testing::internal::GetCapturedStdout();
  EXPECT_NE(routers.find("shortest_path     Dijkstra tree"), std::string::npos) << routers;
  testing::internal::CaptureStdout();
  (void)parse({"--help"});
  const std::string help = testing::internal::GetCapturedStdout();
  EXPECT_EQ(help.rfind("usage\n", 0), 0u) << help;
  EXPECT_NE(help.find("--restore FILE"), std::string::npos) << help;
}

TEST(RunOptions, UnknownFlagIsAUsageError) {
  EXPECT_THROW((void)parse({"--bogus"}), UsageError);
  EXPECT_THROW((void)parse({"--days", "2", "bogus"}), UsageError);
  EXPECT_EQ(rejection({"--bogus"}), "unknown option '--bogus'");
}

struct Reject {
  std::vector<std::string> args;
  std::string message;  // a substring of the diagnostic
};

TEST(RunOptions, RejectsBadValues) {
  const std::vector<Reject> cases = {
      // Missing values, shared and tool flags alike.
      {{"--days"}, "--days needs a value"},
      {{"--set"}, "--set needs a value"},
      {{"--spans"}, "--spans needs a value"},
      {{"--restore"}, "--restore needs a value"},
      {{"--tool-flag"}, "--tool-flag needs a value"},
      {{"--set", "seed"}, "--set expects KEY=VALUE"},
      {{"--set", "no_such_key=1"}, "unknown config key 'no_such_key'"},
      {{"--scheduler", "quantum"}, "unknown scheduler 'quantum' (valid: greedy"},
      {{"--routing", "pigeon"}, "unknown routing policy 'pigeon' (valid: shortest_path"},
      {{"--seed", "-1"}, "config key 'seed' requires a non-negative integer"},
      {{"--config", "no_such.cfg"}, "cannot open 'no_such.cfg'"},
      // The count flag.
      {{"--flight-recorder", "-1"}, "--flight-recorder expects a non-negative integer"},
      {{"--flight-recorder", "1x"}, "--flight-recorder expects a non-negative integer"},
      {{"--flight-recorder", "18446744073709551616"},
       "--flight-recorder expects a non-negative integer"},
      {{"--flight-recorder", "0"}, "--flight-recorder must be positive"},
      // The real-valued flag.
      {{"--checkpoint", "ck", "--checkpoint-every", "1x"},
       "--checkpoint-every expects a finite number > 0, got '1x'"},
      {{"--checkpoint", "ck", "--checkpoint-every", "abc"}, "--checkpoint-every expects"},
      {{"--checkpoint", "ck", "--checkpoint-every", "nan"}, "--checkpoint-every expects"},
      {{"--checkpoint", "ck", "--checkpoint-every", "inf"}, "--checkpoint-every expects"},
      {{"--checkpoint", "ck", "--checkpoint-every", "-1"}, "--checkpoint-every expects"},
      {{"--checkpoint", "ck", "--checkpoint-every", "0"}, "--checkpoint-every expects"},
      {{"--checkpoint", "ck", "--checkpoint-every", "1e400"}, "--checkpoint-every expects"},
      // Checkpoint cadence without a place to write to.
      {{"--checkpoint-every", "60"}, "require --checkpoint PREFIX"},
      {{"--checkpoint-on-signal"}, "require --checkpoint PREFIX"},
  };
  for (const Reject& c : cases) {
    const std::string message = rejection(c.args);
    EXPECT_NE(message.find(c.message), std::string::npos)
        << c.args.front() << ": got '" << message << "'";
  }
}

TEST(RunOptions, EveryConfigFlagConflictsWithRestore) {
  const std::vector<std::vector<std::string>> config_flags = {
      {"--config", kTable2}, {"--set", "seed=99"},      {"--days", "50"},
      {"--seed", "99"},      {"--scheduler", "greedy"}, {"--routing", "mst_backbone"},
      {"--threads", "2"},    {"--faults", "request_loss_prob=0.1"},
  };
  for (const auto& flag : config_flags) {
    for (const bool restore_first : {true, false}) {
      std::vector<std::string> args = flag;
      const std::vector<std::string> restore = {"--restore", "ck.000001.snap"};
      args.insert(restore_first ? args.begin() : args.end(), restore.begin(),
                  restore.end());
      EXPECT_EQ(rejection(args), "--restore runs the snapshot's own configuration; " +
                                     flag.front() + " cannot change it");
    }
  }
}

TEST(RunOptions, NumberParsersAcceptExactValues) {
  EXPECT_EQ(parse_count("--n", "0"), 0u);
  EXPECT_EQ(parse_count("--n", "18446744073709551615"), 18446744073709551615u);
  EXPECT_DOUBLE_EQ(parse_finite("--s", "0", Bound::kNonNegative), 0.0);
  EXPECT_DOUBLE_EQ(parse_finite("--s", "2.5e3", Bound::kPositive), 2500.0);
  EXPECT_THROW((void)parse_count("--n", "007"), InvalidArgument);
  EXPECT_THROW((void)parse_count("--n", ""), InvalidArgument);
  EXPECT_THROW((void)parse_finite("--s", "", Bound::kNonNegative), InvalidArgument);
  EXPECT_THROW((void)parse_finite("--s", "-0.5", Bound::kNonNegative), InvalidArgument);
}

}  // namespace
}  // namespace wrsn
