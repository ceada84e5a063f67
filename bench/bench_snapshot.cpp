// bench_snapshot — cost of the snapshot layer: checkpoint, serialize,
// deserialize and restore, next to the cost of building the World.
//
// The world is the battery-stressed random-waypoint scenario of
// perfbench's scale_rwp workload (paper density, round-robin activation,
// 200 J batteries), run to mid-horizon so the event queue, the clusters,
// the flows and the request list are populated. At each size it times,
// as the median of --repeats passes:
//   build_ms        World(config): the deployment, comm graph, grids and
//                   the fresh-run start-up
//   checkpoint_ms   World::checkpoint()
//   serialize_ms    serialize_snapshot (header, body, checksum trailer)
//   deserialize_ms  deserialize_snapshot (checksum check, body copy)
//   restore_ms      World(snapshot)
// and records the file size and the FNV-1a of the snapshot body, which
// runs of different builds must agree on while the body format stands.
//
//   bench_snapshot [--quick] [--label NAME] [--out FILE] [--append]
//
//   --quick   n = 5000 only (the ctest smoke target)
//   --label   name of this run in the report (default "this-build")
//   --out     output path (default BENCH_snapshot.json in the cwd)
//   --append  add this run to an existing report at --out instead of
//             replacing it
//
// A before/after report is this file built in each tree and run with
// `--label parent` and then `--label change --append`. Every restored world
// must re-serialize to the bytes it was restored from; the bench exits 1
// otherwise.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.hpp"
#include "core/binio.hpp"
#include "core/config.hpp"
#include "core/json.hpp"
#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace {

using namespace wrsn;

using Clock = std::chrono::steady_clock;

// perfbench's scale_rwp workload config (perfbench/campaign.cpp,
// scale_rwp_config) with the size as a parameter and seed 1. A copy, since
// perfbench is a separate harness: change both together.
SimConfig scale_rwp_config(std::size_t n) {
  SimConfig cfg;
  cfg.num_sensors = n;
  cfg.num_targets = n / 100;
  cfg.num_rvs = 2;
  cfg.field_side = meters(200.0 * std::sqrt(static_cast<double>(n) / 500.0));
  cfg.sim_duration = hours(1.8);
  cfg.target_motion = TargetMotion::kRandomWaypoint;
  cfg.target_period = minutes(1.0);
  cfg.target_speed = MeterPerSecond{1.0};
  cfg.activation = ActivationPolicy::kRoundRobin;
  cfg.activation_slot = Second{30.0};
  cfg.battery.capacity = Joule{200.0};
  cfg.radio.listen_duty_cycle = 0.3;
  cfg.rv.speed = MeterPerSecond{5.0};
  cfg.rv.charge_power = watts(10.0);
  cfg.seed = 1;
  return cfg;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Row {
  std::size_t n = 0;
  std::size_t bytes = 0;
  std::uint64_t body_fnv = 0;
  double build_ms = 0.0;
  double checkpoint_ms = 0.0;
  double serialize_ms = 0.0;
  double deserialize_ms = 0.0;
  double restore_ms = 0.0;
};

bool run_size(std::size_t n, int repeats, Row& row) {
  const SimConfig cfg = scale_rwp_config(n);
  row.n = n;
  std::vector<double> build, checkpoint, serialize, deserialize, restore;
  std::unique_ptr<World> world;
  for (int k = 0; k < repeats; ++k) {
    world.reset();
    const auto t0 = Clock::now();
    world = std::make_unique<World>(cfg);
    build.push_back(ms_since(t0));
  }
  world->run_until(Second{cfg.sim_duration.value() / 2.0});

  std::string bytes;
  for (int k = 0; k < repeats; ++k) {
    auto t0 = Clock::now();
    const WorldSnapshot snap = world->checkpoint();
    checkpoint.push_back(ms_since(t0));
    t0 = Clock::now();
    bytes = serialize_snapshot(snap);
    serialize.push_back(ms_since(t0));
    row.body_fnv = fnv1a64(snap.state);
  }
  row.bytes = bytes.size();
  for (int k = 0; k < repeats; ++k) {
    auto t0 = Clock::now();
    const WorldSnapshot snap = deserialize_snapshot(bytes);
    deserialize.push_back(ms_since(t0));
    t0 = Clock::now();
    const World restored(snap);
    restore.push_back(ms_since(t0));
    if (serialize_snapshot(restored.checkpoint()) != bytes) {
      std::cerr << "n=" << n << ": restored world does not re-serialize byte-identical\n";
      return false;
    }
  }
  row.build_ms = median(build);
  row.checkpoint_ms = median(checkpoint);
  row.serialize_ms = median(serialize);
  row.deserialize_ms = median(deserialize);
  row.restore_ms = median(restore);
  return true;
}

std::string run_json(const std::string& label, bool quick, int repeats,
                     const std::vector<Row>& rows) {
  JsonWriter w;
  w.begin_object()
      .field("label", label)
      .field("cores", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("quick", quick)
      .field("repeats", static_cast<std::uint64_t>(repeats))
      .key("results")
      .begin_array();
  for (const Row& r : rows) {
    std::ostringstream fnv;
    fnv << std::hex << r.body_fnv;
    w.begin_object()
        .field("num_sensors", static_cast<std::uint64_t>(r.n))
        .field("snapshot_bytes", static_cast<std::uint64_t>(r.bytes))
        .field("snapshot_fnv", fnv.str())
        .field("build_ms", r.build_ms)
        .field("checkpoint_ms", r.checkpoint_ms)
        .field("serialize_ms", r.serialize_ms)
        .field("deserialize_ms", r.deserialize_ms)
        .field("restore_ms", r.restore_ms)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool append = false;
  std::string label = "this-build";
  std::string out_path = "BENCH_snapshot.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--append") {
      append = true;
    } else if (a == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: bench_snapshot [--quick] [--label NAME] [--out FILE] "
                   "[--append]\n";
      return 0;
    } else {
      std::cerr << "unknown option '" << a << "' (try --help)\n";
      return 2;
    }
  }

  const int repeats = quick ? 3 : 7;
  std::vector<std::size_t> sizes = {5000, 50000};
  if (quick) sizes = {5000};

  std::vector<Row> rows;
  for (const std::size_t n : sizes) {
    Row row;
    if (!run_size(n, repeats, row)) return 1;
    std::cerr << "  n=" << n << ": build " << row.build_ms << " ms, checkpoint "
              << row.checkpoint_ms << " ms, serialize " << row.serialize_ms
              << " ms, deserialize " << row.deserialize_ms << " ms, restore "
              << row.restore_ms << " ms, " << row.bytes << " B\n";
    rows.push_back(row);
  }

  const std::string run = run_json(label, quick, repeats, rows);
  return bench::write_report(out_path, "wrsn.bench_snapshot.v1", run, append) ? 0 : 1;
}
