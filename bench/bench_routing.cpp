// bench_routing — forest build, repair and reroute cost of every registered
// routing policy.
//
// For each policy x network size, times two hot paths:
//
//   build    RoutingPolicy::build() over a fresh RouteTable — the start-up
//            build, a restore, and every death / revival of a policy that
//            cannot repair its forest.
//   reroute  TrafficModel::retract_all() then readd_all() on the built table
//            with one source per ten nodes — the retraction and
//            re-application of every flow that follows every forest change.
//
// and, per size, one repair row for the policy that repairs in place
// (shortest_path): a random relay (a usable node with children) dies, then
// revives, each flip repaired with RoutingPolicy::repair(). The row reports
// the mean microseconds per repair next to the full build's milliseconds,
// and the run fails if any repaired forest differs from a full build.
//
// Deployment density is held constant across sizes (the field grows with
// sqrt(n)), so per-node neighbourhood work stays comparable and the scaling
// column isolates the policy's own complexity.
//
//   bench_routing [--quick] [--label NAME] [--out FILE] [--append]
//
//   --quick   smallest size and fewer repetitions (the ctest smoke target)
//   --label   the run's label (default this-build)
//   --out     output path (default BENCH_routing.json in the cwd)
//   --append  add this run to the report already at --out
//
// Every timed build feeds a reachable-count / total-distance checksum; a
// policy whose repetitions disagree fails the run (nondeterminism would
// break snapshot restore, not just this benchmark).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.hpp"
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

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
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
  policy->build(in, table);  // warm-up, and the table the reroute runs on
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
  t.build_ms = ms_since(b0) / static_cast<double>(reps);

  TrafficModel traffic(n, 0.2);
  for (std::size_t s = 1; s < n; s += 10) {
    traffic.add_source(table, s);
    ++t.sources;
  }
  const auto r0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    traffic.retract_all(table);
    traffic.readd_all(table);
  }
  t.reroute_ms = ms_since(r0) / static_cast<double>(reps);
  return t;
}

struct RepairTiming {
  std::size_t repairs = 0;
  double repair_us = 0.0;       // mean per repair (deaths and revivals)
  double mean_rewritten = 0.0;  // nodes each repair rewrote
};

// `relays` random relays die and revive one at a time; every flip is one
// timed repair, checked (untimed) against a full build.
RepairTiming run_repairs(const Instance& inst, std::size_t relays,
                         std::uint64_t seed) {
  const auto policy = RoutingRegistry::instance().create("shortest_path");
  std::vector<bool> usable = inst.usable;
  const RoutingBuildInput in{&inst.graph, &inst.positions, &usable};
  RouteTable table;
  policy->build(in, table);
  Xoshiro256 rng(seed);
  RepairTiming t;
  double total_ms = 0.0;
  std::size_t rewritten = 0;
  const std::size_t sensors = usable.size();
  for (std::size_t k = 0; k < relays; ++k) {
    std::vector<std::size_t> has_child(sensors + 1, 0);
    for (std::size_t v = 0; v < sensors; ++v) {
      if (table.next_hop(v) != kInvalidId) has_child[table.next_hop(v)] = 1;
    }
    std::size_t relay = kInvalidId;
    while (relay == kInvalidId) {
      const auto v = static_cast<std::size_t>(rng.uniform_int(sensors));
      if (usable[v] && has_child[v] != 0) relay = v;
    }
    const std::size_t flipped[] = {relay};
    for (const bool alive : {false, true}) {
      usable[relay] = alive;
      const auto t0 = Clock::now();
      const bool repaired = policy->repair(in, flipped, table);
      total_ms += ms_since(t0);
      RouteTable fresh;
      policy->build(in, fresh);
      if (!repaired || !fresh.same_forest(table) || !table.links_consistent()) {
        std::cerr << "bench_routing: repair of relay " << relay
                  << (alive ? " (revival)" : " (death)")
                  << " differs from a full build\n";
        std::exit(1);
      }
      rewritten += table.repaired_nodes();
      ++t.repairs;
    }
  }
  t.repair_us = 1000.0 * total_ms / static_cast<double>(t.repairs);
  t.mean_rewritten = static_cast<double>(rewritten) / static_cast<double>(t.repairs);
  return t;
}

struct Row {
  std::string policy;
  std::size_t n = 0;
  Timing timing;
};

struct RepairRow {
  std::size_t n = 0;
  double build_ms = 0.0;
  RepairTiming timing;
};

std::string run_json(const std::string& label, bool quick, std::size_t reps,
                     const std::vector<Row>& rows,
                     const std::vector<RepairRow>& repairs) {
  JsonWriter w;
  w.begin_object()
      .field("label", label)
      .field("cores", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
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
  w.end_array().key("repairs").begin_array();
  for (const RepairRow& r : repairs) {
    w.begin_object()
        .field("policy", "shortest_path")
        .field("num_sensors", static_cast<std::uint64_t>(r.n))
        .field("repairs", static_cast<std::uint64_t>(r.timing.repairs))
        .field("repair_us", r.timing.repair_us)
        .field("mean_rewritten_nodes", r.timing.mean_rewritten)
        .field("build_ms", r.build_ms)
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
  std::string out_path = "BENCH_routing.json";
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
      std::cout << "usage: bench_routing [--quick] [--label NAME] [--out FILE] "
                   "[--append]\n";
      return 0;
    } else {
      std::cerr << "unknown option '" << a << "' (try --help)\n";
      return 2;
    }
  }

  std::vector<std::size_t> sizes = {1000, 10000, 100000};
  std::size_t reps = 5;
  std::size_t relays = 50;
  if (quick) {
    sizes = {1000};
    reps = 2;
    relays = 10;
  }

  std::vector<Row> rows;
  std::vector<RepairRow> repairs;
  for (const std::size_t n : sizes) {
    const Instance inst = make_instance(n, 0x90071u ^ n);
    for (const std::string& name : routing_names()) {
      Row row{name, n, run_policy(name, inst, reps)};
      std::cerr << "  " << name << " n=" << n << ": build "
                << row.timing.build_ms << " ms, reroute "
                << row.timing.reroute_ms << " ms (" << row.timing.sources
                << " sources)\n";
      if (name == "shortest_path") {
        RepairRow rep{n, row.timing.build_ms, run_repairs(inst, relays, 0x2e9a1u ^ n)};
        std::cerr << "  shortest_path n=" << n << ": repair " << rep.timing.repair_us
                  << " us (" << rep.timing.mean_rewritten << " nodes rewritten)\n";
        repairs.push_back(rep);
      }
      rows.push_back(std::move(row));
    }
  }

  const std::string run = run_json(label, quick, reps, rows, repairs);
  return bench::write_report(out_path, "wrsn.bench_routing.v2", run, append) ? 0 : 1;
}
