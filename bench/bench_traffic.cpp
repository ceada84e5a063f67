// bench_traffic — cost of one monitor swap in TrafficModel.
//
// The paper's round-robin activation keeps one monitor per cluster and
// rotates it every slot, handing the old monitor's flow to the new one.
// This bench replays that hand-off on a built shortest-path forest with a
// touch log attached (the world marks every touched relay's drain dirty),
// and reports ns per swap, where one swap = TrafficModel::swap_source (or,
// built against a tree without it, remove_source + add_source) + clearing
// the touch log.
//
// Deployment density is held constant across sizes (the field grows with
// sqrt(n), 14 m range), so paths lengthen with n: ~10 hops at n=500, ~100
// at n=50000. One monitor is kept per block, in two layouts:
//   id-block  a block is 25 consecutive sensor ids, scattered over the
//             field, so old and new routes rarely share more than the trunk
//   spatial   a block is the sensors within 8 m (the paper's sensing range)
//             of every 25th sensor, like a cluster around its target, so
//             the routes meet a few hops up
// Each swap moves a random block's monitor to another sensor of the block.
//
//   bench_traffic [--quick] [--label NAME] [--out FILE] [--append]
//
//   --quick   smallest size only, fewer swaps (the ctest smoke target)
//   --label   name of this run in the report (default "this-build")
//   --out     output path (default BENCH_traffic.json in the cwd)
//   --append  add this run to an existing report at --out instead of
//             replacing it
//
// The Flows shim below picks swap_source and the one-rate model when the
// tree has them, and remove_source + add_source with a per-source rate when
// it does not, so the same source builds against older trees: a
// before/after report is this file built in each tree and run with
// `--label parent` and then `--label change --append`. The final tx-rate sum
// is recorded bit for bit; runs of different builds must agree on it.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_report.hpp"
#include "core/config.hpp"
#include "core/dirty_set.hpp"
#include "core/json.hpp"
#include "core/rng.hpp"
#include "net/deployment.hpp"
#include "net/graph.hpp"
#include "net/routing.hpp"
#include "net/traffic.hpp"

namespace {

using namespace wrsn;

using Clock = std::chrono::steady_clock;

constexpr std::size_t kBlock = 25;
constexpr double kClusterRadius = 8.0;
constexpr int kRepeats = 5;

struct Forest {
  std::vector<Vec2> positions;  // sensors, then the base station
  RouteTable table;
};

Forest shortest_path_forest(std::size_t n, std::uint64_t seed) {
  const double side = std::sqrt(static_cast<double>(n) * 100.0);
  const Vec2 bs{side / 2.0, side / 2.0};
  Xoshiro256 rng(seed);
  Forest f;
  f.positions = deploy_uniform(n, side, rng);
  const CommGraph graph(f.positions, bs, 14.0);
  f.positions.push_back(bs);
  const std::vector<bool> usable(n, true);
  const RoutingBuildInput in{&graph, &f.positions, &usable};
  RoutingRegistry::instance().create("shortest_path")->build(in, f.table);
  return f;
}

// The traffic calls of either API generation.
template <typename Model>
struct Flows {
  Model model;
  double rate;

  Flows(std::size_t n, double pps) : model(make(n, pps)), rate(pps) {}

  static Model make(std::size_t n, double pps) {
    if constexpr (std::is_constructible_v<Model, std::size_t, double>) {
      return Model(n, pps);
    } else {
      return Model(n);
    }
  }
  void add(const RouteTable& table, SensorId s) {
    if constexpr (requires(Model& m) { m.add_source(table, s); }) {
      model.add_source(table, s);
    } else {
      model.add_source(table, s, rate);
    }
  }
  void swap(const RouteTable& table, SensorId old, SensorId next) {
    if constexpr (requires(Model& m) { m.swap_source(table, old, next); }) {
      model.swap_source(table, old, next);
    } else {
      model.remove_source(old);
      model.add_source(table, next, rate);
    }
  }
};

struct Row {
  std::size_t n = 0;
  std::string layout;
  std::size_t sources = 0;
  double mean_path_hops = 0.0;
  double mean_block = 0.0;  // sensors a monitor rotates among
  std::size_t swaps = 0;
  double ns_per_swap = 0.0;  // median of kRepeats timed passes
  std::uint64_t tx_sum_bits = 0;
};

Row run_size(const Forest& forest, std::size_t n, bool spatial, std::size_t swaps) {
  Row row;
  row.n = n;
  row.layout = spatial ? "spatial" : "id-block";
  row.swaps = swaps;
  const RouteTable& table = forest.table;
  const double rate = SimConfig{}.data_rate_pkt_per_min / 60.0;  // pkt/s

  // The blocks, each anchored at every 25th sensor, which monitors first.
  std::vector<std::vector<SensorId>> blocks;
  for (SensorId anchor = 0; anchor < n; anchor += kBlock) {
    std::vector<SensorId> block;
    if (spatial) {
      const double r2 = kClusterRadius * kClusterRadius;
      for (SensorId s = 0; s < n; ++s) {
        if (squared_distance(forest.positions[s], forest.positions[anchor]) <= r2) {
          block.push_back(s);
        }
      }
    } else {
      for (SensorId s = anchor; s < std::min(n, anchor + kBlock); ++s) block.push_back(s);
    }
    blocks.push_back(std::move(block));
  }

  Flows<TrafficModel> traffic(n, rate);
  DirtySet touched(n);
  traffic.model.set_touch_log(&touched);
  std::vector<SensorId> monitors;
  std::vector<bool> monitoring(n, false);
  std::size_t hops = 0;
  std::size_t members = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const SensorId first = static_cast<SensorId>(b * kBlock);
    monitors.push_back(first);
    monitoring[first] = true;
    traffic.add(table, first);
    if (const auto h = table.hops_to_base(first)) hops += *h;
    members += blocks[b].size();
  }
  touched.clear();
  row.sources = monitors.size();
  row.mean_path_hops = static_cast<double>(hops) / static_cast<double>(monitors.size());
  row.mean_block = static_cast<double>(members) / static_cast<double>(blocks.size());

  // The swap schedule: (block, new member) pairs, drawn once so every pass
  // and every build replays the same sequence. Spatial blocks overlap, so a
  // member already monitoring elsewhere is skipped when the swap runs.
  Xoshiro256 rng(0x5a9u ^ n ^ (spatial ? 0x5ba71a1u : 0u));
  std::vector<std::pair<std::size_t, SensorId>> schedule;
  schedule.reserve(swaps);
  while (schedule.size() < swaps) {
    const std::size_t block = rng.uniform_int(blocks.size());
    schedule.emplace_back(block, blocks[block][rng.uniform_int(blocks[block].size())]);
  }

  std::vector<double> ns;
  for (int pass = 0; pass < kRepeats; ++pass) {
    const auto t0 = Clock::now();
    for (const auto& [block, next] : schedule) {
      const SensorId old = monitors[block];
      if (monitoring[next]) continue;
      traffic.swap(table, old, next);
      touched.clear();
      monitoring[old] = false;
      monitoring[next] = true;
      monitors[block] = next;
    }
    const auto t1 = Clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(swaps));
  }
  std::sort(ns.begin(), ns.end());
  row.ns_per_swap = ns[ns.size() / 2];

  double tx_sum = 0.0;
  for (SensorId s = 0; s < n; ++s) tx_sum += traffic.model.tx_rate(s);
  row.tx_sum_bits = std::bit_cast<std::uint64_t>(tx_sum);
  return row;
}

std::string run_json(const std::string& label, bool quick,
                     const std::vector<Row>& rows) {
  JsonWriter w;
  w.begin_object()
      .field("label", label)
      .field("cores", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("quick", quick)
      .field("repeats", static_cast<std::uint64_t>(kRepeats))
      .key("results")
      .begin_array();
  for (const Row& r : rows) {
    std::ostringstream bits;
    bits << std::hex << r.tx_sum_bits;
    w.begin_object()
        .field("num_sensors", static_cast<std::uint64_t>(r.n))
        .field("layout", r.layout)
        .field("sources", static_cast<std::uint64_t>(r.sources))
        .field("mean_block", r.mean_block)
        .field("mean_path_hops", r.mean_path_hops)
        .field("swaps", static_cast<std::uint64_t>(r.swaps))
        .field("ns_per_swap", r.ns_per_swap)
        .field("tx_sum_bits", bits.str())
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
  std::string out_path = "BENCH_traffic.json";
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
      std::cout << "usage: bench_traffic [--quick] [--label NAME] [--out FILE] "
                   "[--append]\n";
      return 0;
    } else {
      std::cerr << "unknown option '" << a << "' (try --help)\n";
      return 2;
    }
  }

  std::vector<std::pair<std::size_t, std::size_t>> plan = {
      {500, 400000}, {2000, 200000}, {50000, 20000}};
  if (quick) plan = {{500, 20000}};

  std::vector<Row> rows;
  for (const auto& [n, swaps] : plan) {
    const Forest forest = shortest_path_forest(n, 0x7aff1cu ^ n);
    for (const bool spatial : {false, true}) {
      const Row row = run_size(forest, n, spatial, swaps);
      std::cerr << "  n=" << n << " " << row.layout << ": " << row.ns_per_swap
                << " ns/swap (" << row.sources << " sources, " << row.mean_path_hops
                << " hops, blocks of " << row.mean_block << ")\n";
      rows.push_back(row);
    }
  }

  const std::string run = run_json(label, quick, rows);
  return bench::write_report(out_path, "wrsn.bench_traffic.v2", run, append) ? 0 : 1;
}
