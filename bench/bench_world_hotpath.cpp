// bench_world_hotpath — old-vs-new event-loop throughput for the World.
//
// Runs the same battery-stressed random-waypoint + round-robin scenario
// under ReferenceWorld (tests/support/: full O(N) rescans per event) and
// the production World (lazy settlement, O(1) coverage counters,
// dirty-marked drain refreshes, grid-scoped reclustering), both on the
// calendar event queue, at n in {500, 2000, 10000,
// 100000}, plus one row at the paper's own configuration (Table II: n=500,
// teleport motion every 3 h, so every target move is a global recluster)
// over a shortened horizon, and writes a machine-readable JSON report:
//
//   bench_world_hotpath [--quick] [--out FILE] [--sizes N,N,...] [--no-ref]
//
//   --quick      only n in {500, 2000} plus the paper row (the ctest smoke
//                target)
//   --out        output path (default BENCH_world.json in the cwd)
//   --sizes      comma-separated n list overriding the default ladder
//   --no-ref     probe mode: skip the reference run (and with it the
//                cross-check and speedup) and the JSON report
//
// The two runs must agree bit-for-bit: the metrics report JSON and the final
// per-sensor battery vector are cross-checked before any timing is reported,
// so the benchmark doubles as an engine-equivalence smoke test at scales the
// unit suite does not reach. Timing is whole-run wall clock (steady_clock, best of 2 fresh worlds per
// engine; a single rep at n=100000, where the reference engine's
// O(N)-per-event rescans already take minutes and rep noise is negligible
// next to the measured gap); the figure of merit is events/sec.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/json.hpp"
#include "reference_world.hpp"
#include "sim/world.hpp"

namespace {

using namespace wrsn;

using Clock = std::chrono::steady_clock;

// Constant sensor density (the paper's Table II instance is 500 sensors on a
// 200 m field); targets and RVs scale with n so per-event work, not idle
// time, dominates. Small batteries and a high listen duty cycle compress the
// full request/recharge/death/revival lifecycle into a few simulated hours.
SimConfig bench_config(std::size_t n) {
  SimConfig cfg;
  cfg.num_sensors = n;
  cfg.num_targets = std::max<std::size_t>(4, n / 100);
  cfg.num_rvs = 2;
  cfg.field_side = meters(200.0 * std::sqrt(static_cast<double>(n) / 500.0));
  cfg.sim_duration = hours(1.8);
  cfg.seed = 0xbe7c0000ULL + n;
  cfg.target_motion = TargetMotion::kRandomWaypoint;
  cfg.target_period = minutes(1.0);
  cfg.target_speed = MeterPerSecond{1.0};
  cfg.activation = ActivationPolicy::kRoundRobin;
  cfg.activation_slot = Second{30.0};
  cfg.battery.capacity = Joule{200.0};
  cfg.radio.listen_duty_cycle = 0.3;
  cfg.rv.speed = MeterPerSecond{5.0};
  cfg.rv.charge_power = watts(10.0);
  return cfg;
}

// The paper row: Table II defaults (configs/paper_table2.cfg) with the
// horizon cut from 120 to 20 days. Teleport motion re-runs Algorithm 1 over
// the whole network on every target move, the path the random-waypoint rows
// never take.
constexpr double kPaperDays = 20.0;

SimConfig paper_config() {
  SimConfig cfg = SimConfig::paper_defaults();
  cfg.sim_duration = days(kPaperDays);
  cfg.seed = 0xbe7c7ab2ULL;
  return cfg;
}

struct RunOutcome {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::string report_json;
  std::vector<double> battery_levels;
};

bool g_no_ref = false;

RunOutcome run_once(const SimConfig& cfg, Engine engine) {
  // Construction (clustering, seeding) is not timed.
  const std::unique_ptr<World> w = make_world(cfg, engine);
  const auto t0 = Clock::now();
  w->run_until(cfg.sim_duration);
  const auto t1 = Clock::now();
  RunOutcome out;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.events = w->events_processed();
  out.report_json = to_json(w->report());
  out.battery_levels.reserve(w->network().num_sensors());
  for (const Sensor& s : w->network().sensors()) {
    out.battery_levels.push_back(s.battery.level().value());
  }
  return out;
}

RunOutcome run_best(const SimConfig& cfg, Engine engine, int reps) {
  RunOutcome best = run_once(cfg, engine);
  for (int r = 1; r < reps; ++r) {
    RunOutcome next = run_once(cfg, engine);
    if (next.wall_s < best.wall_s) best = std::move(next);
  }
  return best;
}

struct Row {
  std::size_t n = 0;
  std::uint64_t events = 0;
  double ref_wall_s = 0.0;
  double inc_wall_s = 0.0;
};

// Times both engines on `cfg` and cross-checks them bit-for-bit before any
// timing is reported. Fills `row` (n taken from cfg).
bool run_row(const std::string& label, const SimConfig& cfg, Row& row) {
  const int reps = cfg.num_sensors >= 100000 ? 1 : 2;
  const RunOutcome inc = run_best(cfg, Engine::kIncremental, reps);
  const double inc_eps = static_cast<double>(inc.events) / inc.wall_s;
  row = {cfg.num_sensors, inc.events, 0.0, inc.wall_s};
  if (g_no_ref) {
    std::cerr << "  " << label << ": " << inc.events << " events, inc "
              << static_cast<std::uint64_t>(inc_eps) << " events/s\n";
    return true;
  }
  const RunOutcome ref = run_best(cfg, Engine::kReference, reps);

  if (inc.report_json != ref.report_json || inc.events != ref.events ||
      inc.battery_levels != ref.battery_levels) {
    std::cerr << "bench_world_hotpath: engine divergence at " << label << " (events "
              << inc.events << " vs " << ref.events << ")\n";
    return false;
  }

  row.ref_wall_s = ref.wall_s;
  const double ref_eps = static_cast<double>(ref.events) / ref.wall_s;
  std::cerr << "  " << label << ": " << inc.events << " events, "
            << static_cast<std::uint64_t>(ref_eps) << " -> "
            << static_cast<std::uint64_t>(inc_eps) << " events/s ("
            << ref.wall_s / inc.wall_s << "x)\n";
  return true;
}

void write_row(JsonWriter& w, const Row& r) {
  const double ref_eps = static_cast<double>(r.events) / r.ref_wall_s;
  const double inc_eps = static_cast<double>(r.events) / r.inc_wall_s;
  w.field("n", static_cast<std::uint64_t>(r.n))
      .field("events", r.events)
      .field("ref_wall_s", r.ref_wall_s)
      .field("inc_wall_s", r.inc_wall_s)
      .field("ref_events_per_sec", ref_eps)
      .field("inc_events_per_sec", inc_eps)
      .field("speedup", r.ref_wall_s / r.inc_wall_s);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_world.json";
  std::vector<std::size_t> size_override;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--sizes" && i + 1 < argc) {
      std::string list = argv[++i];
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        size_override.push_back(std::stoull(list.substr(pos, comma - pos)));
        pos = comma + 1;
      }
    } else if (a == "--no-ref") {
      g_no_ref = true;
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: bench_world_hotpath [--quick] [--out FILE] "
                   "[--sizes N,N,...] [--no-ref]\n";
      return 0;
    } else {
      std::cerr << "unknown option '" << a << "' (try --help)\n";
      return 2;
    }
  }

  std::vector<std::size_t> sizes = {500, 2000, 10000, 100000};
  if (quick) sizes = {500, 2000};
  if (!size_override.empty()) sizes = size_override;

  std::vector<Row> rows;
  for (const std::size_t n : sizes) {
    std::cerr << "n=" << n << '\n';
    Row row;
    if (!run_row("n=" + std::to_string(n), bench_config(n), row)) return 1;
    rows.push_back(row);
  }
  std::cerr << "paper teleport\n";
  Row paper;
  if (!run_row("paper n=500", paper_config(), paper)) return 1;

  if (g_no_ref) return 0;  // probe mode: stderr only, no JSON report

  JsonWriter w;
  w.begin_object()
      .field("schema", "wrsn.bench_world.v1")
      .field("quick", quick)
      .field("cores",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .key("results")
      .begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    write_row(w, r);
    w.end_object();
  }
  w.end_array();
  // Kept out of "results" so the random-waypoint ladder's speedup gate
  // (largest n) never reads it.
  w.key("paper_teleport").begin_object().field("days", kPaperDays);
  write_row(w, paper);
  w.end_object();
  w.end_object();

  std::ofstream out(out_path);
  if (!out.good()) {
    std::cerr << "cannot open '" << out_path << "'\n";
    return 1;
  }
  out << w.str() << '\n';
  std::cout << "wrote " << out_path << '\n';
  return 0;
}
