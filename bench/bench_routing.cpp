// bench_routing — forest build and reroute cost of every registered routing
// policy.
//
// For each policy x network size, times two hot paths:
//
//   build    RoutingPolicy::build() over a fresh RouteTable — what every
//            topology change (death / revival) pays to rebuild the forest.
//   reroute  TrafficModel::reroute() from the built table onto itself with
//            one source per ten nodes — the retraction and re-application
//            of every flow that follows every rebuild.
//
// Deployment density is held constant across sizes (the field grows with
// sqrt(n)), so per-node neighbourhood work stays comparable and the scaling
// column isolates the policy's own complexity.
//
//   bench_routing [--quick] [--out FILE]
//
//   --quick   smallest size and fewer repetitions (the ctest smoke target)
//   --out     output path (default BENCH_routing.json in the cwd)
//
// Every timed build feeds a reachable-count / total-distance checksum; a
// policy whose repetitions disagree fails the run (nondeterminism would
// break snapshot restore, not just this benchmark).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/rng.hpp"
#include "net/deployment.hpp"
#include "net/graph.hpp"
#include "net/routing.hpp"
#include "net/traffic.hpp"

namespace {

using namespace wrsn;

using Clock = std::chrono::steady_clock;

struct Instance {
  CommGraph graph;
  std::vector<Vec2> positions;  // BS last
  std::vector<bool> usable;
};

// ~1 node / 100 m^2 at 14 m range: ~6 neighbours per node at any size.
Instance make_instance(std::size_t n, std::uint64_t seed) {
  const double side = std::sqrt(static_cast<double>(n) * 100.0);
  const Vec2 bs{side / 2.0, side / 2.0};
  Xoshiro256 rng(seed);
  Instance inst;
  std::vector<Vec2> sensors = deploy_uniform(n, side, rng);
  inst.graph = CommGraph(sensors, bs, 14.0);
  inst.positions = std::move(sensors);
  inst.positions.push_back(bs);
  inst.usable.assign(n, true);
  // A sprinkling of dead nodes keeps the usable-mask branch hot.
  for (std::size_t i = 0; i < n; i += 17) inst.usable[i] = false;
  return inst;
}

double table_checksum(const RouteTable& table) {
  double sum = 0.0;
  for (std::size_t v = 0; v < table.num_nodes(); ++v) {
    if (!table.reachable(v)) continue;
    sum += 1.0 + table.distance_to_base(v);
  }
  return sum;
}

struct Timing {
  double build_ms = 0.0;
  double reroute_ms = 0.0;
  double checksum = 0.0;
  std::size_t sources = 0;
};

Timing run_policy(const std::string& name, const Instance& inst,
                  std::size_t reps) {
  const auto policy = RoutingRegistry::instance().create(name);
  const RoutingBuildInput in{&inst.graph, &inst.positions, &inst.usable};
  const std::size_t n = inst.usable.size();

  Timing t;
  RouteTable table;
  policy->build(in, table);  // warm-up, and the table reroute() runs against
  t.checksum = table_checksum(table);

  const auto b0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    RouteTable rebuilt;
    policy->build(in, rebuilt);
    if (table_checksum(rebuilt) != t.checksum) {
      std::cerr << "bench_routing: nondeterministic build for '" << name
                << "'\n";
      std::exit(1);
    }
  }
  const auto b1 = Clock::now();
  t.build_ms = std::chrono::duration<double, std::milli>(b1 - b0).count() /
               static_cast<double>(reps);

  TrafficModel traffic(n, 0.2);
  for (std::size_t s = 1; s < n; s += 10) {
    traffic.add_source(table, s);
    ++t.sources;
  }
  const auto r0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) traffic.reroute(table, table);
  const auto r1 = Clock::now();
  t.reroute_ms = std::chrono::duration<double, std::milli>(r1 - r0).count() /
                 static_cast<double>(reps);
  return t;
}

struct Row {
  std::string policy;
  std::size_t n = 0;
  Timing timing;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_routing.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: bench_routing [--quick] [--out FILE]\n";
      return 0;
    } else {
      std::cerr << "unknown option '" << a << "' (try --help)\n";
      return 2;
    }
  }

  std::vector<std::size_t> sizes = {1000, 10000, 100000};
  std::size_t reps = 5;
  if (quick) {
    sizes = {1000};
    reps = 2;
  }

  std::vector<Row> rows;
  for (const std::size_t n : sizes) {
    const Instance inst = make_instance(n, 0x90071u ^ n);
    for (const std::string& name : routing_names()) {
      Row row{name, n, run_policy(name, inst, reps)};
      std::cerr << "  " << name << " n=" << n << ": build "
                << row.timing.build_ms << " ms, reroute "
                << row.timing.reroute_ms << " ms (" << row.timing.sources
                << " sources)\n";
      rows.push_back(std::move(row));
    }
  }

  JsonWriter w;
  w.begin_object()
      .field("schema", "wrsn.bench_routing.v1")
      .field("quick", quick)
      .field("reps", static_cast<std::uint64_t>(reps))
      .key("results")
      .begin_array();
  for (const Row& r : rows) {
    w.begin_object()
        .field("policy", r.policy)
        .field("num_sensors", static_cast<std::uint64_t>(r.n))
        .field("build_ms", r.timing.build_ms)
        .field("reroute_ms", r.timing.reroute_ms)
        .field("sources", static_cast<std::uint64_t>(r.timing.sources))
        .field("checksum", r.timing.checksum)
        .end_object();
  }
  w.end_array().end_object();

  std::ofstream out(out_path);
  if (!out.good()) {
    std::cerr << "cannot open '" << out_path << "'\n";
    return 1;
  }
  out << w.str() << '\n';
  std::cout << "wrote " << out_path << '\n';
  return 0;
}
