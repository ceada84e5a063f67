// perfbench — the repository's campaign benchmark (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --config-dir DIR [--out-dir DIR] [--horizon-scale F] [--units K]
//
// Runs one workload as a campaign of "units" on a single thread. A unit is
// one replica per scheduling scheme of the workload, all sharing one
// sub-seed derived from --seed and the unit index. --seconds fixes how many
// units run, through each workload's nominal unit cost and nothing else, so
// a given (seed, seconds) pair always simulates the same inputs: a faster
// simulator does the same work sooner, and a slower box takes longer. One
// warm-up unit at a short horizon runs first so registries, allocator arenas
// and code pages are in place before anything is timed.
//
// --trace 0 runs every unit in kRounds rounds, keeps the fastest round of
// each segment and prints the end-to-end metrics (medians over units).
// --trace 1 runs every unit twice, untraced then traced, and prints the per-layer
// metrics: per-event-kind host time from World::set_tracer deltas, the
// TelemetryRegistry counters and scheduler timers, replays of public layer
// functions at the segment boundaries, snapshot costs, and the tracing
// overhead. Its spans and counters stay in memory and are written to
// --out-dir when the run ends.
//
// Every replica is checked with invariants that hold for any legitimate
// physics change (horizon reached, finite report, sensor energy
// conservation, byte-identical snapshot round trip); the last stdout line
// is the JSON result {"correct","attempted","failed","metrics"}.
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "activity/clustering.hpp"
#include "core/binio.hpp"
#include "core/config_io.hpp"
#include "net/routing.hpp"
#include "obs/telemetry.hpp"
#include "sched/planner.hpp"
#include "sched/request.hpp"
#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace {

using namespace wrsn;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Peak resident memory of this program, from VmHWM. getrusage's ru_maxrss is
// not used: Linux carries it across execve, so it would report the launching
// interpreter's peak whenever that is the larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return 0.5 * (hi + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)));
}

// The host time of a median unit, built segment by segment: the median
// across units of each segment position, summed. A slowdown from a
// neighbouring job is filtered wherever it hits fewer than half the units,
// even when it touches every unit somewhere.
double sum_of_segment_medians(const std::vector<std::vector<double>>& per_unit) {
  double total = 0.0;
  for (std::size_t j = 0; j < per_unit.front().size(); ++j) {
    std::vector<double> column;
    for (const std::vector<double>& unit : per_unit) column.push_back(unit[j]);
    total += median(std::move(column));
  }
  return total;
}

// Every untraced unit runs kRounds times, round after round, so the repeats
// of one unit lie several seconds apart. Contention from other jobs only ever
// adds time, so each segment and each World construction keeps its fastest
// round.
constexpr std::size_t kRounds = 3;

void keep_min(std::vector<double>& best, const std::vector<double>& v) {
  for (std::size_t j = 0; j < best.size(); ++j) best[j] = std::min(best[j], v[j]);
}

// Nearest-rank percentile q in [0, 100].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

// The highest of a fixed ladder of percentiles that still has at least ten
// samples beyond it; the median when the sample is too small for any.
double tail_percentile_level(std::size_t n) {
  for (double q : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0) return q;
  }
  return 50.0;
}

// ---------------------------------------------------------------------------
// Workloads. Why each exists and which layer it isolates is documented in
// perfbench/README.md; the sizes below are what those shares were taken at.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string config_dir;
  std::string out_dir;
  double horizon_scale = 1.0;
  std::size_t units = 0;  // 0 = derived from --seconds
};

struct Workload {
  std::string name;
  std::vector<std::string> schemes;  // one replica each per unit
  std::size_t segments = 16;         // run_until steps = layer sample points
  bool snapshots = false;            // checkpoint per segment, mid-run restore
  double unit_seconds = 1.0;         // host cost of one unit, calm 4-vCPU box
  std::size_t setup_builds = 1;      // World constructions timed per replica
  SimConfig (*base_config)(const std::string& config_dir) = nullptr;
};

// The paper's Table II campaign, read from the repository's config file.
SimConfig paper_table2_config(const std::string& config_dir) {
  return load_config(config_dir + "/paper_table2.cfg");
}

// Many RVs and a large, steady request stream with no deaths: the planner
// (K-means partition, group matching, insertion) dominates, and fault
// injection adds retry and failover re-planning.
SimConfig dispatch_heavy_config(const std::string& /*config_dir*/) {
  SimConfig cfg;
  cfg.num_sensors = 2000;
  cfg.num_targets = 40;
  cfg.num_rvs = 16;
  cfg.field_side = meters(400.0);  // the paper's sensor density
  cfg.sim_duration = days(30.0);
  cfg.target_motion = TargetMotion::kRandomWaypoint;
  cfg.energy_request_control = false;
  cfg.battery.capacity = Joule{3000.0};
  cfg.radio.listen_duty_cycle = 0.12;
  cfg.rv.speed = MeterPerSecond{5.0};
  cfg.rv.charge_power = watts(10.0);
  cfg.fault.enabled = true;
  cfg.fault.request_loss_prob = 0.15;
  cfg.fault.rv_mtbf_hours = 72.0;
  cfg.fault.rv_repair_duration = hours(6.0);
  return cfg;
}

// bench/bench_world_hotpath's battery-stressed random-waypoint scenario at
// n=50000 and the paper's density: the incremental event loop at scale.
SimConfig scale_rwp_config(const std::string& /*config_dir*/) {
  constexpr std::size_t n = 50000;
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
  return cfg;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper_table2", {"greedy", "partition", "combined"}, 16, false, 2.7, 10,
       paper_table2_config},
      {"dispatch_heavy", {"partition", "combined"}, 16, false, 1.2, 10,
       dispatch_heavy_config},
      {"scale_rwp", {"combined"}, 10, true, 2.3, 2, scale_rwp_config},
  };
  return all;
}

// ---------------------------------------------------------------------------
// Traced-run state: spans, counters and layer samples, all in memory until
// the run ends.

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  double t0_us = 0.0;
  double t1_us = 0.0;
};

constexpr std::array<EventKind, 7> kTracedKinds = {
    EventKind::kTargetMove,    EventKind::kSensorCrossing,
    EventKind::kSlotRotation,  EventKind::kRvArrival,
    EventKind::kRvChargeDone,  EventKind::kMetricsSample,
    EventKind::kRequestUplink};

struct Trace {
  Clock::time_point origin = Clock::now();
  std::vector<Span> spans;
  obs::TelemetryRegistry registry;

  // Host time between successive tracer callbacks, by the kind that ran.
  std::array<std::vector<double>, kNumEventKinds> kind_us;
  Clock::time_point last_event;
  double traced_run_s = 0.0;  // run_until time of the traced replicas
  std::uint64_t traced_events = 0;

  std::vector<double> cluster_ms, route_ms, partition_ms;
  std::vector<double> checkpoint_ms, serialize_ms, restore_ms, snapshot_bytes;
  std::vector<double> overhead_ratio;  // traced / untraced unit wall
  double parallel_speedup_t2 = 0.0;
  std::uint64_t sink = 0;  // keeps replay results observable

  double us_at(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  }
  double now_us() const { return us_at(Clock::now()); }
  std::uint64_t open(std::string name, std::uint64_t parent) {
    spans.push_back({spans.size() + 1, parent, std::move(name), now_us(), 0.0});
    return spans.size();
  }
  void close(std::uint64_t id) { spans[id - 1].t1_us = now_us(); }
  // A leaf span whose interval the caller measured.
  void add(std::string name, std::uint64_t parent, Clock::time_point t0,
           Clock::time_point t1) {
    spans.push_back({spans.size() + 1, parent, std::move(name), us_at(t0), us_at(t1)});
  }
};

// ---------------------------------------------------------------------------
// One replica.

struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

// Host time of each segment (run_until plus that boundary's snapshot work),
// so the campaign figures can take a median per segment across units.
struct ReplicaOutcome {
  double setup_s = 0.0;
  std::vector<double> seg_wall;
  std::vector<double> seg_cpu;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
};

double total_sensor_energy(const World& w) {
  double sum = 0.0;
  for (const Sensor& s : w.network().sensors()) sum += s.battery.level().value();
  return sum;
}

bool report_is_finite(const MetricsReport& r) {
  // The JSON writer prints every non-finite double as null.
  return to_json(r).find("null") == std::string::npos;
}

void attach(World& w, Trace* tr) {
  if (tr == nullptr) return;
  w.set_telemetry(&tr->registry);
  w.set_tracer([tr](const World::TraceEvent& ev) {
    const auto now = Clock::now();
    tr->kind_us[static_cast<std::size_t>(ev.kind)].push_back(
        std::chrono::duration<double, std::micro>(now - tr->last_event).count());
    tr->last_event = now;
  });
}

double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

template <typename F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return ms_between(t0, Clock::now());
}

// Replays public layer functions on the world's current state. Untimed as
// far as the end-to-end figures go; each call is its own sample.
void replay_layers(const World& w, Trace& tr, std::uint64_t parent,
                   Xoshiro256& rng) {
  const std::uint64_t span = tr.open("replay", parent);
  const Network& net = w.network();
  const SimConfig& cfg = w.config();
  std::vector<Vec2> nodes;
  std::vector<bool> alive;
  nodes.reserve(net.num_sensors() + 1);
  alive.reserve(net.num_sensors());
  for (const Sensor& s : net.sensors()) {
    nodes.push_back(s.pos);
    alive.push_back(s.alive());
  }
  std::vector<Vec2> targets;
  for (const Target& t : net.targets()) targets.push_back(t.pos);

  std::uint64_t id = tr.open("activity.balanced_clustering", span);
  tr.cluster_ms.push_back(time_ms([&] {
    const ClusterSet cs =
        balanced_clustering(nodes, targets, cfg.sensing_range.value(), alive);
    tr.sink += cs.imbalance();
  }));
  tr.close(id);

  nodes.push_back(net.base_station());
  const std::unique_ptr<RoutingPolicy> router =
      RoutingRegistry::instance().create(cfg.routing);
  id = tr.open("net.route_build", span);
  tr.route_ms.push_back(time_ms([&] {
    RouteTable table;
    router->build({&net.graph(), &nodes, &alive}, table);
    tr.sink += table.num_nodes();
  }));
  tr.close(id);

  const std::vector<RechargeItem> items =
      aggregate_requests(w.recharge_list().requests());
  if (!items.empty()) {
    std::vector<Vec2> fleet;
    for (const Rv& rv : w.rvs()) fleet.push_back(rv.pos);
    id = tr.open("sched.partition", span);
    tr.partition_ms.push_back(time_ms([&] {
      const auto groups = partition_items(items, cfg.num_rvs, rng);
      std::vector<Vec2> centroids;
      for (const auto& g : groups) {
        if (g.empty()) continue;
        Vec2 c{};
        for (std::size_t i : g) c += items[i].pos;
        centroids.push_back(c / static_cast<double>(g.size()));
      }
      tr.sink += match_groups_to_rvs(centroids, fleet).size();
    }));
    tr.close(id);
  }
  tr.close(span);
}

ReplicaOutcome run_replica(const Workload& wl, const SimConfig& cfg,
                           Trace* tr, std::uint64_t parent, Checks& checks,
                           const std::string& label) {
  ReplicaOutcome out;
  const std::uint64_t span = tr ? tr->open("replica " + label, parent) : 0;

  // Construction is timed setup_builds times and the fastest kept; the last
  // World built runs. Each is destroyed before the next is timed.
  std::unique_ptr<World> world;
  out.setup_s = std::numeric_limits<double>::infinity();
  for (std::size_t b = 0; b < wl.setup_builds; ++b) {
    world.reset();
    const auto t_setup = Clock::now();
    world = std::make_unique<World>(cfg);
    out.setup_s = std::min(out.setup_s, seconds_since(t_setup));
  }
  const double initial_energy = total_sensor_energy(*world);
  attach(*world, tr);
  Xoshiro256 replay_rng(cfg.seed ^ 0x7265706c6179ULL);

  const double horizon = cfg.sim_duration.value();
  const std::size_t mid = wl.segments / 2;
  for (std::size_t k = 1; k <= wl.segments; ++k) {
    const double t = k == wl.segments
                         ? horizon
                         : horizon * static_cast<double>(k) /
                               static_cast<double>(wl.segments);
    const std::uint64_t seg = tr ? tr->open("segment", span) : 0;
    if (tr) tr->last_event = Clock::now();
    const auto t_run = Clock::now();
    const double cpu0 = cpu_now();
    world->run_until(Second{t});
    const auto t_ran = Clock::now();

    // Periodic in-memory checkpoint, and at mid-run a restore into a fresh
    // World that carries the run to its horizon.
    std::string bytes;
    std::unique_ptr<World> restored;
    auto t_ser = t_ran, t_done = t_ran, t_restored = t_ran;
    if (wl.snapshots && k < wl.segments) {
      const WorldSnapshot snap = world->checkpoint();
      t_ser = Clock::now();
      bytes = serialize_snapshot(snap);
      t_done = t_restored = Clock::now();
      if (k == mid) {
        restored = std::make_unique<World>(deserialize_snapshot(bytes));
        t_restored = Clock::now();
      }
    }
    out.seg_wall.push_back(seconds_since(t_run));
    out.seg_cpu.push_back(cpu_now() - cpu0);

    if (tr) {
      tr->traced_run_s += std::chrono::duration<double>(t_ran - t_run).count();
      if (!bytes.empty()) {
        tr->add("snapshot.checkpoint", seg, t_ran, t_ser);
        tr->add("snapshot.serialize", seg, t_ser, t_done);
        tr->checkpoint_ms.push_back(ms_between(t_ran, t_ser));
        tr->serialize_ms.push_back(ms_between(t_ser, t_done));
        tr->snapshot_bytes.push_back(static_cast<double>(bytes.size()));
        if (restored) {
          tr->add("snapshot.restore", seg, t_done, t_restored);
          tr->restore_ms.push_back(ms_between(t_done, t_restored));
        }
      }
      tr->close(seg);
      replay_layers(*world, *tr, span, replay_rng);
      if (!bytes.empty() && !restored) {
        // Restore replay: the cost the mid-run restore pays, sampled at
        // every other checkpoint too; the replayed world is discarded.
        const auto t0 = Clock::now();
        const World replayed(deserialize_snapshot(bytes));
        const auto t1 = Clock::now();
        tr->sink += replayed.events_processed();
        tr->add("snapshot.restore-replay", span, t0, t1);
        tr->restore_ms.push_back(ms_between(t0, t1));
      }
    }
    if (restored) {
      checks.expect(serialize_snapshot(restored->checkpoint()) == bytes,
                    label + ": restored world re-serializes byte-identical");
      world = std::move(restored);
      attach(*world, tr);
    }
  }

  out.events = world->events_processed();
  const MetricsReport report = world->report();
  out.digest = fnv1a64(to_json(report));

  checks.expect(world->finished(), label + ": run reached its horizon");
  checks.expect(report_is_finite(report), label + ": every report field is finite");
  // World::sensor_energy_consumed(): initial + recharged == levels + consumed.
  const double lhs = initial_energy + report.energy_recharged.value();
  const double rhs = total_sensor_energy(*world) +
                     world->sensor_energy_consumed().value();
  checks.expect(std::abs(lhs - rhs) <= 1e-9 * std::max(1.0, std::abs(lhs)),
                label + ": sensor energy conservation");
  if (tr) {
    tr->traced_events += out.events;
    tr->close(span);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Units and the campaign.

// A unit's times: World construction per replica, and segment times
// concatenated over its replicas, both in scheme order.
struct UnitOutcome {
  std::vector<double> setup;
  std::vector<double> seg_wall;
  std::vector<double> seg_cpu;
  std::uint64_t events = 0;
};

SimConfig replica_config(const Workload& wl, const Options& opt,
                         const std::string& scheme, std::uint64_t sub_seed) {
  SimConfig cfg = wl.base_config(opt.config_dir);
  cfg.scheduler = scheme;
  cfg.seed = sub_seed;
  cfg.threads = 1;
  cfg.sim_duration = Second{cfg.sim_duration.value() * opt.horizon_scale};
  return cfg;
}

UnitOutcome run_unit(const Workload& wl, const Options& opt,
                     std::uint64_t sub_seed, Trace* tr, Checks& checks,
                     bool print_digest) {
  UnitOutcome u;
  const std::uint64_t span =
      tr ? tr->open("unit seed=" + std::to_string(sub_seed), 0) : 0;
  for (const std::string& scheme : wl.schemes) {
    const std::string label = wl.name + "/" + scheme + "/" + std::to_string(sub_seed);
    const ReplicaOutcome r = run_replica(
        wl, replica_config(wl, opt, scheme, sub_seed), tr, span, checks, label);
    u.setup.push_back(r.setup_s);
    u.seg_wall.insert(u.seg_wall.end(), r.seg_wall.begin(), r.seg_wall.end());
    u.seg_cpu.insert(u.seg_cpu.end(), r.seg_cpu.begin(), r.seg_cpu.end());
    u.events += r.events;
    if (print_digest) {
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(r.digest));
      std::cout << "digest " << label << " events=" << r.events
                << " wall_s=" << sum(r.seg_wall) << " report_fnv1a=" << hex << '\n';
    }
  }
  if (tr) tr->close(span);
  return u;
}

// Wall time of one untraced replica at the given thread count (no
// checkpoints), for the parallel-speedup row.
double plain_replica_wall(const Workload& wl, const Options& opt,
                          std::uint64_t sub_seed, std::size_t threads) {
  SimConfig cfg = replica_config(wl, opt, wl.schemes.front(), sub_seed);
  cfg.threads = threads;
  World w(cfg);
  const auto t0 = Clock::now();
  w.run_until(cfg.sim_duration);
  return seconds_since(t0);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": "
       << format_double(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void add_timing(std::vector<Metric>& out, const std::string& prefix,
                const std::string& samples_name, const std::vector<double>& ms) {
  const double level = tail_percentile_level(ms.size());
  out.push_back({prefix + "_p50", percentile(ms, 50.0), "ms"});
  out.push_back({prefix + "_tail", percentile(ms, level), "ms"});
  out.push_back({prefix + "_tail_pct", ms.empty() ? 0.0 : level, "%"});
  out.push_back({samples_name, static_cast<double>(ms.size()), "count"});
}

double timer_sum(obs::TelemetryRegistry& reg, const std::string& prefix,
                 const std::vector<std::string>& names) {
  double s = 0.0;
  for (const std::string& n : names) s += reg.timer(prefix + n).sum();
  return s;
}

std::vector<Metric> layer_metrics(Trace& tr, std::size_t units) {
  std::vector<Metric> m;
  const double per_unit = 1.0 / static_cast<double>(std::max<std::size_t>(1, units));
  obs::TelemetryRegistry& reg = tr.registry;

  for (EventKind k : kTracedKinds) {
    const std::string kind = kind_name(k);
    const std::vector<double>& us = tr.kind_us[static_cast<std::size_t>(k)];
    double total_us = 0.0;
    for (double v : us) total_us += v;
    m.push_back({"sim.kind_count." + kind, static_cast<double>(us.size()) * per_unit, "count"});
    m.push_back({"sim.kind_share." + kind,
                 tr.traced_run_s > 0.0 ? 1e-6 * total_us / tr.traced_run_s : 0.0,
                 "ratio"});
    m.push_back({"sim.kind_us_p50." + kind, percentile(us, 50.0), "us"});
    m.push_back({"sim.kind_us_p99." + kind, percentile(us, 99.0), "us"});
  }
  std::uint64_t popped = 0;
  for (const auto& us : tr.kind_us) popped += us.size();
  const double stale = static_cast<double>(reg.counter("events/stale-discarded").value());
  const double events = static_cast<double>(std::max<std::uint64_t>(1, tr.traced_events));
  m.push_back({"sim.stale_ratio", stale / std::max(1.0, stale + static_cast<double>(popped)), "ratio"});
  m.push_back({"sim.queue_high_water", reg.gauge("events/queue-high-water").value(), "count"});
  m.push_back({"sim.settlements_per_event",
               static_cast<double>(reg.counter("world/battery-settlements").value()) / events,
               "ratio"});
  m.push_back({"sim.drain_updates_per_event",
               static_cast<double>(reg.counter("world/drain-updates").value()) / events,
               "ratio"});

  add_timing(m, "activity.cluster_ms", "activity.cluster_samples", tr.cluster_ms);
  add_timing(m, "net.route_build_ms", "net.route_build_samples", tr.route_ms);

  // Entry scopes of the built-in policies only: planner/ctx_greedy nests in
  // planner/ctx_insertion and kmeans/lloyd in planner/partition, so adding
  // them would count the same host time twice.
  const double planner_s = timer_sum(
      reg, "planner/", {"greedy", "partition", "ctx_insertion", "ctx_nearest"});
  m.push_back({"sched.planner_s", planner_s * per_unit, "s"});
  m.push_back({"sched.kmeans_s", timer_sum(reg, "kmeans/", {"lloyd"}) * per_unit, "s"});
  m.push_back({"sched.tsp_s",
               timer_sum(reg, "tsp/", {"nearest-neighbor", "two-opt"}) * per_unit, "s"});
  m.push_back({"sched.share", tr.traced_run_s > 0.0 ? planner_s / tr.traced_run_s : 0.0,
               "ratio"});
  add_timing(m, "sched.partition_ms", "sched.partition_samples", tr.partition_ms);

  add_timing(m, "snapshot.checkpoint_ms", "snapshot.checkpoint_samples", tr.checkpoint_ms);
  add_timing(m, "snapshot.serialize_ms", "snapshot.serialize_samples", tr.serialize_ms);
  add_timing(m, "snapshot.restore_ms", "snapshot.restore_samples", tr.restore_ms);
  m.push_back({"snapshot.bytes", median(tr.snapshot_bytes), "B"});

  m.push_back({"fault.retries",
               static_cast<double>(reg.counter("fault/requests-retried").value()) * per_unit,
               "count"});
  m.push_back({"fault.breakdowns",
               static_cast<double>(reg.counter("fault/rv-breakdowns").value()) * per_unit,
               "count"});
  m.push_back({"fault.failover_reinjected",
               static_cast<double>(reg.counter("fault/failover-reinjected").value()) * per_unit,
               "count"});

  m.push_back({"obs.trace_overhead_frac",
               tr.overhead_ratio.empty() ? 0.0 : median(tr.overhead_ratio) - 1.0, "ratio"});
  m.push_back({"core.parallel_speedup_t2", tr.parallel_speedup_t2, "ratio"});
  m.push_back({"core.cores", static_cast<double>(std::thread::hardware_concurrency()),
               "count"});
  return m;
}

void write_trace_files(const Trace& tr, const Options& opt) {
  if (opt.out_dir.empty()) return;
  std::filesystem::create_directories(opt.out_dir);
  const std::string stem =
      opt.out_dir + "/" + opt.workload + ".seed" + std::to_string(opt.seed);
  std::ofstream spans(stem + ".spans.jsonl");
  spans.precision(17);
  spans << "{\"record\":\"meta\",\"workload\":\"" << opt.workload
        << "\",\"seed\":" << opt.seed << ",\"replay_checksum\":" << tr.sink
        << "}\n";
  for (const Span& s : tr.spans) {
    spans << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
          << s.name << "\",\"t0_us\":" << s.t0_us << ",\"t1_us\":" << s.t1_us
          << "}\n";
  }
  spans.close();
  if (!spans) throw std::runtime_error("cannot write " + stem + ".spans.jsonl");
  obs::write_registry_file(stem + ".telemetry.json", tr.registry);
}

// ---------------------------------------------------------------------------

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(flag + " needs a non-negative integer, got '" + v + "'");
  }
  return std::stoull(v);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") opt.workload = need(i);
    else if (a == "--seed") opt.seed = parse_u64(a, need(i));
    else if (a == "--seconds") opt.seconds = std::stod(need(i));
    else if (a == "--trace") {
      const std::uint64_t t = parse_u64(a, need(i));
      if (t > 1) throw std::invalid_argument("--trace takes 0 or 1");
      opt.trace = t == 1;
    }
    else if (a == "--config-dir") opt.config_dir = need(i);
    else if (a == "--out-dir") opt.out_dir = need(i);
    else if (a == "--horizon-scale") opt.horizon_scale = std::stod(need(i));
    else if (a == "--units") opt.units = parse_u64(a, need(i));
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (!(opt.seconds > 0.0) || !(opt.horizon_scale > 0.0)) {
    throw std::invalid_argument("--seconds and --horizon-scale must be positive");
  }
  return opt;
}

int run(const Options& opt) {
  const Workload* wl = nullptr;
  for (const Workload& w : workloads()) {
    if (w.name == opt.workload) wl = &w;
  }
  if (wl == nullptr) throw std::invalid_argument("unknown workload '" + opt.workload + "'");

  // A traced run executes every unit twice and adds the layer replays, so
  // it gets fewer units for the same --seconds, and one round.
  const std::size_t rounds = opt.trace ? 1 : kRounds;
  std::size_t units = opt.units;
  if (units == 0) {
    const double budget = opt.trace ? 0.3 * opt.seconds : opt.seconds / rounds;
    units = std::max<std::size_t>(
        1, static_cast<std::size_t>(budget / wl->unit_seconds));
  }
  // Consecutive sub-seeds, as run_replicas numbers its replicas.
  const std::uint64_t base = opt.seed * 1000;

  Checks checks;
  {
    Options warm = opt;
    warm.horizon_scale = opt.horizon_scale / 8.0;
    run_unit(*wl, warm, base + 999, nullptr, checks, false);
  }

  // best[u] keeps, per segment and per World construction, the fastest of
  // the rounds of unit u.
  std::vector<UnitOutcome> best(units);
  auto trace = opt.trace ? std::make_unique<Trace>() : nullptr;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t u = 0; u < units; ++u) {
      const std::uint64_t sub_seed = base + u;
      UnitOutcome plain =
          run_unit(*wl, opt, sub_seed, nullptr, checks, r == 0 && !opt.trace);
      if (trace) {
        const UnitOutcome traced = run_unit(*wl, opt, sub_seed, trace.get(), checks, true);
        trace->overhead_ratio.push_back(sum(traced.seg_wall) / sum(plain.seg_wall));
      }
      if (r == 0) {
        best[u] = std::move(plain);
      } else {
        keep_min(best[u].setup, plain.setup);
        keep_min(best[u].seg_wall, plain.seg_wall);
        keep_min(best[u].seg_cpu, plain.seg_cpu);
      }
    }
  }
  std::vector<std::vector<double>> seg_wall, seg_cpu;
  std::vector<double> setup, events;
  for (UnitOutcome& b : best) {
    seg_wall.push_back(std::move(b.seg_wall));
    seg_cpu.push_back(std::move(b.seg_cpu));
    setup.push_back(sum(b.setup));
    events.push_back(static_cast<double>(b.events));
  }
  if (trace && wl->snapshots) {
    // Half-horizon replicas without checkpoints, alternating thread counts.
    Options half = opt;
    half.horizon_scale = opt.horizon_scale / 2.0;
    double t1 = 0.0, t2 = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
      t1 += plain_replica_wall(*wl, half, base + 998, 1);
      t2 += plain_replica_wall(*wl, half, base + 998, 2);
    }
    trace->parallel_speedup_t2 = t1 / t2;
  }

  for (const std::string& f : checks.failures) std::cerr << "FAILED " << f << '\n';

  std::vector<Metric> metrics;
  if (trace) {
    metrics = layer_metrics(*trace, setup.size());
    write_trace_files(*trace, opt);
  } else {
    const double wall = sum_of_segment_medians(seg_wall);
    metrics = {
        {"wall_s", wall, "s"},
        {"cpu_s", sum_of_segment_medians(seg_cpu), "s"},
        {"events_per_s", median(events) / wall, "1/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::cout << "units " << setup.size() << " fail_ratio "
              << format_double(static_cast<double>(checks.failed) /
                               static_cast<double>(checks.attempted))
              << '\n';
  }
  print_result(checks.failed == 0, checks.attempted, checks.failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
