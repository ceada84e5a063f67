// bench_traffic — cost of one monitor swap in TrafficModel.
//
// The paper's round-robin activation keeps one monitor per cluster and
// rotates it every slot: the old monitor's flow is removed and the new
// one's added along its current route. This bench replays that swap on a
// built shortest-path forest with a touch log attached (the world marks
// every touched relay's drain dirty), and reports ns per swap, where one
// swap = remove_source + add_source + clearing the touch log.
//
// Deployment density is held constant across sizes (the field grows with
// sqrt(n), 14 m range), so paths lengthen with n: ~10 hops at n=500, ~100
// at n=50000. One monitor is kept per block of 25 consecutive sensor ids;
// each swap moves a random block's monitor to another sensor of the block.
//
//   bench_traffic [--quick] [--label NAME] [--out FILE] [--append]
//
//   --quick   smallest size only, fewer swaps (the ctest smoke target)
//   --label   name of this run in the report (default "this-build")
//   --out     output path (default BENCH_traffic.json in the cwd)
//   --append  add this run to an existing report at --out instead of
//             replacing it
//
// The bench uses only TrafficModel::add_source/remove_source/set_touch_log
// and DirtySet::clear, so the same source builds against older trees: a
// before/after report is this file built in each tree and run with
// `--label parent` and then `--label change --append`. The final tx-rate sum
// is recorded bit for bit; runs of different builds must agree on it.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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
constexpr int kRepeats = 5;
constexpr const char* kHead = "{\"schema\":\"wrsn.bench_traffic.v1\",\"runs\":[\n";
constexpr const char* kTail = "\n]}\n";

RouteTable shortest_path_forest(std::size_t n, std::uint64_t seed) {
  const double side = std::sqrt(static_cast<double>(n) * 100.0);
  const Vec2 bs{side / 2.0, side / 2.0};
  Xoshiro256 rng(seed);
  std::vector<Vec2> positions = deploy_uniform(n, side, rng);
  const CommGraph graph(positions, bs, 14.0);
  positions.push_back(bs);
  const std::vector<bool> usable(n, true);
  RouteTable table;
  const RoutingBuildInput in{&graph, &positions, &usable};
  RoutingRegistry::instance().create("shortest_path")->build(in, table);
  return table;
}

struct Row {
  std::size_t n = 0;
  std::size_t sources = 0;
  double mean_path_hops = 0.0;
  std::size_t swaps = 0;
  double ns_per_swap = 0.0;  // median of kRepeats timed passes
  std::uint64_t tx_sum_bits = 0;
};

Row run_size(std::size_t n, std::size_t swaps) {
  Row row;
  row.n = n;
  row.swaps = swaps;
  const RouteTable table = shortest_path_forest(n, 0x7aff1cu ^ n);
  const double rate = SimConfig{}.data_rate_pkt_per_min / 60.0;  // pkt/s

  TrafficModel traffic(n);
  DirtySet touched(n);
  traffic.set_touch_log(&touched);
  std::vector<SensorId> monitors;
  std::size_t hops = 0;
  for (SensorId first = 0; first < n; first += kBlock) {
    monitors.push_back(first);
    traffic.add_source(table, first, rate);
    if (const auto h = table.hops_to_base(first)) hops += *h;
  }
  touched.clear();
  row.sources = monitors.size();
  row.mean_path_hops = static_cast<double>(hops) / static_cast<double>(monitors.size());

  // The swap schedule: (block, new member) pairs, drawn once so every pass
  // and every build replays the same sequence.
  Xoshiro256 rng(0x5a9u ^ n);
  std::vector<std::pair<std::size_t, SensorId>> schedule;
  schedule.reserve(swaps);
  while (schedule.size() < swaps) {
    const std::size_t block = rng.uniform_int(monitors.size());
    const std::size_t size = std::min(kBlock, n - block * kBlock);
    schedule.emplace_back(block, block * kBlock + rng.uniform_int(size));
  }

  std::vector<double> ns;
  for (int pass = 0; pass < kRepeats; ++pass) {
    const auto t0 = Clock::now();
    for (const auto& [block, next] : schedule) {
      const SensorId old = monitors[block];
      if (next == old) continue;
      traffic.remove_source(old);
      traffic.add_source(table, next, rate);
      touched.clear();
      monitors[block] = next;
    }
    const auto t1 = Clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(swaps));
  }
  std::sort(ns.begin(), ns.end());
  row.ns_per_swap = ns[ns.size() / 2];

  double tx_sum = 0.0;
  for (SensorId s = 0; s < n; ++s) tx_sum += traffic.tx_rate(s);
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
        .field("sources", static_cast<std::uint64_t>(r.sources))
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
    const Row row = run_size(n, swaps);
    std::cerr << "  n=" << n << ": " << row.ns_per_swap << " ns/swap ("
              << row.sources << " sources, " << row.mean_path_hops
              << " hops)\n";
    rows.push_back(row);
  }

  std::string doc = std::string(kHead) + run_json(label, quick, rows) + kTail;
  if (append) {
    std::ifstream in(out_path);
    std::stringstream old;
    old << in.rdbuf();
    const std::string prev = old.str();
    const std::string head = kHead;
    const std::string tail = kTail;
    if (prev.size() < head.size() + tail.size() || prev.rfind(head, 0) != 0 ||
        prev.compare(prev.size() - tail.size(), tail.size(), tail) != 0) {
      std::cerr << "'" << out_path << "' is not a bench_traffic report\n";
      return 1;
    }
    doc = prev.substr(0, prev.size() - tail.size()) + ",\n" +
          run_json(label, quick, rows) + tail;
  }
  std::ofstream out(out_path);
  if (!out.good()) {
    std::cerr << "cannot open '" << out_path << "'\n";
    return 1;
  }
  out << doc;
  std::cout << "wrote " << out_path << '\n';
  return 0;
}
