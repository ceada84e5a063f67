// wrsn_sweep — cross-product experiment driver.
//
// Sweeps any set of config keys over value lists, runs the requested number
// of replicas per grid point, and writes one CSV row per point with means
// and 95% CIs for the headline metrics. This is the generic engine behind
// "reproduce figure X with different parameters".
//
//   wrsn_sweep --sweep KEY=V1,V2,... [--sweep KEY=...]... [shared flags]
//              [--seeds N] [--csv FILE] [--journal DIR] [--resume DIR]
//              [--watchdog-s S] [--retries N] [--retry-backoff-ms MS]
//              [--inject-fail POINT,REPLICA]
//
// The config, observability and listing flags are shared with wrsn_sim and
// wrsn_trace (tools/run_options.hpp); `wrsn_sweep --help` lists them all.
// --threads N (shorthand for --set threads=N) is the number of worker
// threads, each running one replica at a time; 0, the default, means
// hardware concurrency. The CSV is byte-identical at any thread count.
//
// --telemetry FILE aggregates telemetry (event-loop counters, scheduler
// timing histograms) over every replica of every grid point and writes it
// as JSON (Prometheus text when FILE ends in .prom).
//
// --spans / --chrome-trace take a filename PREFIX, not a single file: every
// replica writes its own PREFIX.point<P>.rep<R>.jsonl / .json (replicas run
// concurrently, so they cannot share a sink). --flight-recorder N attaches a
// per-replica recorder of the last N events, labelled point/rep, dumped to
// stderr on assert failure or Ctrl-C.
//
// Crash safety. Every output file (CSV, telemetry, per-replica span/chrome
// files) is written to a temp name and atomically renamed into place, so an
// interrupted sweep never leaves a truncated file under a final name.
// --journal DIR additionally records each finished (point, replica) cell in
// an fsync'd append-only journal (DIR/journal.jsonl, schema
// wrsn.sweep-journal, validated by wrsn_jsonl_check) next to a manifest
// (DIR/manifest.json) hashing the config x grid; after a crash or kill,
//   wrsn_sweep ... --resume DIR
// re-reads the journal, skips every finished cell, and produces output
// byte-identical to an uninterrupted sweep. Cells that quarantined (below)
// are not journaled, so a resume retries them.
//
// Supervision. Each replica runs under a supervisor (sim/supervisor.hpp):
// --watchdog-s bounds its wall-clock time (cooperative, event-granular),
// failures retry with exponential backoff (--retries, --retry-backoff-ms),
// and a replica that keeps failing is QUARANTINED instead of aborting the
// sweep: the run completes, prints a `failed_points` section to stderr, and
// exits 3 (distinct from 1 = hard error). --inject-fail POINT,REPLICA makes
// that one cell throw on every attempt — the test hook for this machinery.
//
// Example (Fig. 6 grid):
//   wrsn_sweep --sweep scheduler=greedy,partition,combined
//              --sweep energy_request_percentage=0,0.2,0.4,0.6,0.8,1
//              --days 120 --seeds 3 --csv fig6.csv
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/atomic_file.hpp"
#include "core/binio.hpp"
#include "core/config_io.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "obs/telemetry.hpp"
#include "run_options.hpp"
#include "sim/supervisor.hpp"

namespace {

using namespace wrsn;

struct Sweep {
  std::string key;
  std::vector<std::string> values;
};

struct Metric {
  const char* name;
  double (*get)(const MetricsReport&);
};

const Metric kMetrics[] = {
    {"travel_km",
     [](const MetricsReport& r) { return r.rv_travel_distance.value() / 1e3; }},
    {"travel_mj",
     [](const MetricsReport& r) { return r.rv_travel_energy.value() / 1e6; }},
    {"recharged_mj",
     [](const MetricsReport& r) { return r.energy_recharged.value() / 1e6; }},
    {"objective_mj",
     [](const MetricsReport& r) { return r.objective_score().value() / 1e6; }},
    {"coverage_pct",
     [](const MetricsReport& r) { return 100.0 * r.coverage_ratio; }},
    {"nonfunctional_pct",
     [](const MetricsReport& r) { return r.nonfunctional_pct; }},
    {"cost_m_per_sensor",
     [](const MetricsReport& r) { return r.recharging_cost_m_per_sensor(); }},
    {"latency_min",
     [](const MetricsReport& r) { return r.avg_request_latency.value() / 60.0; }},
};
constexpr std::size_t kNumMetrics = std::size(kMetrics);
using MetricValues = std::array<double, kNumMetrics>;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, sep)) out.push_back(item);
  return out;
}

// --- sweep journal (JSONL, schema "wrsn.sweep-journal") -------------------
// One meta line, then one `cell` record per finished (point, replica) with
// the metric values the CSV aggregation needs (full 17-digit precision, so
// a resumed sweep reproduces the uninterrupted CSV byte for byte), then at
// most one terminal `done` record once every cell succeeded. Each cell
// record ends in a `sum` field (json_with_checksum, core/json.hpp), so a
// resume refuses a record damaged after it was written. Version 2 added it.

std::string journal_meta_line() {
  JsonWriter w;
  w.begin_object()
      .field("record", "meta")
      .field("schema", "wrsn.sweep-journal")
      .field("version", std::int64_t{2});
  w.key("fields").begin_array();
  for (const char* f : {"id", "point", "replica", "seed", "m", "sum"}) w.value(f);
  w.end_array().end_object();
  return w.str();
}

std::string journal_cell_line(std::uint64_t id, std::size_t point,
                              std::size_t replica, std::uint64_t seed,
                              const MetricValues& m) {
  JsonWriter w;
  w.begin_object()
      .field("record", "cell")
      .field("id", id)
      .field("point", static_cast<std::uint64_t>(point))
      .field("replica", static_cast<std::uint64_t>(replica))
      .field("seed", seed);
  w.key("m").begin_array();
  for (const double v : m) w.value(v);
  w.end_array().end_object();
  return json_with_checksum(w.str());
}

std::string journal_done_line(std::uint64_t cells) {
  JsonWriter w;
  w.begin_object().field("record", "done").field("cells", cells).end_object();
  return w.str();
}

// Identity of a sweep for resume purposes: base config text + grid spec +
// replica count. A journal can only resume the exact campaign it recorded.
// `threads` is normalized out: reports are byte-identical at any thread
// count, so a resume may use a different count than the original run.
std::uint64_t campaign_hash(const SimConfig& base,
                            const std::vector<Sweep>& sweeps,
                            std::size_t seeds) {
  SimConfig ident = base;
  ident.threads = 0;
  std::string blob = config_to_text(ident);
  for (const Sweep& s : sweeps) {
    blob += '\n' + s.key + '=';
    for (const std::string& v : s.values) blob += v + ',';
  }
  blob += "\nseeds=" + std::to_string(seeds);
  return fnv1a64(blob);
}

// Minimal field extraction from already-json_validate'd journal lines (the
// same validate-then-scan idiom as wrsn_jsonl_check). Integers must be exact
// tokens: "-1" or "0.9" are corruption, not values to wrap or truncate.
std::optional<std::uint64_t> find_json_u64(const std::string& line,
                                           const std::string& key) {
  const auto pos = line.find('"' + key + "\":");
  if (pos == std::string::npos) return std::nullopt;
  const std::size_t begin = pos + key.size() + 3;
  const std::size_t end = line.find_first_of(",}", begin);
  return parse_decimal_u64(std::string_view(line).substr(begin, end - begin));
}

bool find_json_doubles(const std::string& line, const std::string& key,
                       MetricValues* out) {
  const auto pos = line.find('"' + key + "\":[");
  if (pos == std::string::npos) return false;
  const char* p = line.c_str() + pos + key.size() + 4;
  for (double& v : *out) {
    char* end = nullptr;
    v = std::strtod(p, &end);
    if (end == p) return false;
    p = end;
    if (*p == ',') ++p;
  }
  return *p == ']';
}

const char kUsage[] =
    "wrsn_sweep — cross-product experiment driver: runs every point of a\n"
    "config grid, --seeds replicas each, and writes one CSV row per point\n"
    "with means and 95% CIs of the headline metrics\n"
    "\n"
    "  --sweep KEY=V1,V2,...  sweep one config key over values; repeatable,\n"
    "                         once per key, at least one required (`--list`\n"
    "                         prints every enum-like knob as such a line)\n"
    "  --seeds N              replicas per grid point (default 2)\n"
    "  --csv FILE             write the CSV to FILE (default stdout)\n"
    "  --journal DIR          record every finished cell in an fsync'd\n"
    "                         DIR/journal.jsonl next to DIR/manifest.json\n"
    "  --resume DIR           continue a journaled sweep, skipping finished\n"
    "                         cells; the CSV is byte-identical\n"
    "  --watchdog-s S         wall-clock budget per replica attempt (0 = off)\n"
    "  --retries N            retries before quarantine (default 2)\n"
    "  --retry-backoff-ms MS  first retry delay, doubling (default 100)\n"
    "  --inject-fail P,R      test hook: cell (point P, replica R) fails on\n"
    "                         every attempt\n"
    "  --spans/--chrome-trace take a PREFIX: every replica writes\n"
    "  PREFIX.point<P>.rep<R>.jsonl/.json. A sweep with quarantined cells\n"
    "  completes, lists them under failed_points on stderr and exits 3.\n";

int sweep_main(const std::vector<std::string>& args) {
  RunOptions opts;
  opts.config = SimConfig::paper_defaults();
  std::vector<Sweep> sweeps;
  std::size_t seeds = 2;
  std::string csv_path;
  std::string journal_dir;
  bool resume = false;
  SupervisorOptions sup_options;  // watchdog off, 2 retries, 100 ms backoff
  bool inject_fail = false;
  std::size_t inject_point = 0, inject_replica = 0;
  const auto tool_flags = [&](const std::string& a, const auto& value) {
    if (a == "--sweep") {
      const std::string& spec = value();
      const auto eq = spec.find('=');
      WRSN_REQUIRE(eq != std::string::npos, "--sweep expects KEY=V1,V2,...");
      Sweep sweep;
      sweep.key = spec.substr(0, eq);
      sweep.values = split(spec.substr(eq + 1), ',');
      WRSN_REQUIRE(!sweep.values.empty(), "--sweep needs at least one value");
      for (const Sweep& s : sweeps) {
        if (s.key == sweep.key) {
          throw InvalidArgument("--sweep " + sweep.key + " given twice");
        }
      }
      sweeps.push_back(std::move(sweep));
    } else if (a == "--seeds") {
      seeds = parse_count(a, value());
    } else if (a == "--csv") {
      csv_path = value();
    } else if (a == "--journal") {
      journal_dir = value();
    } else if (a == "--resume") {
      journal_dir = value();
      resume = true;
    } else if (a == "--watchdog-s") {
      sup_options.watchdog_s = parse_finite(a, value(), Bound::kNonNegative);
    } else if (a == "--retries") {
      sup_options.max_retries = parse_count(a, value());
    } else if (a == "--retry-backoff-ms") {
      sup_options.backoff_ms = parse_finite(a, value(), Bound::kNonNegative);
    } else if (a == "--inject-fail") {
      const std::vector<std::string> pr = split(value(), ',');
      WRSN_REQUIRE(pr.size() == 2, "--inject-fail expects POINT,REPLICA");
      inject_fail = true;
      inject_point = parse_count(a, pr[0]);
      inject_replica = parse_count(a, pr[1]);
    } else {
      return false;
    }
    return true;
  };
  if (!parse_run_options(args, kUsage, tool_flags, opts)) return 0;
  if (!opts.checkpoint_prefix.empty() || !opts.restore_path.empty()) {
    throw InvalidArgument(
        "--checkpoint/--restore need a single world (wrsn_sim, wrsn_trace); "
        "a sweep resumes with --journal/--resume");
  }
  WRSN_REQUIRE(!sweeps.empty(), "at least one --sweep is required");
  WRSN_REQUIRE(seeds > 0, "--seeds must be positive");
  const SimConfig& base = opts.config;

  std::size_t total_points = 1;
  for (const Sweep& s : sweeps) total_points *= s.values.size();
  std::cout << "sweeping " << total_points << " grid point(s) x " << seeds
            << " replica(s), " << base.sim_duration.value() / 86400.0
            << " simulated days each\n";

  // Materialize the grid up front (mixed-radix counter over the sweeps), so
  // the (point x replica) product flattens into one task list and a single
  // parallel_for keeps every worker busy across point boundaries instead of
  // draining the pool once per point.
  std::vector<SimConfig> point_cfgs;
  std::vector<std::vector<std::string>> point_values;
  point_cfgs.reserve(total_points);
  point_values.reserve(total_points);
  std::vector<std::size_t> idx(sweeps.size(), 0);
  for (std::size_t point = 0; point < total_points; ++point) {
    SimConfig cfg = base;
    std::vector<std::string> values;
    values.reserve(sweeps.size());
    for (std::size_t k = 0; k < sweeps.size(); ++k) {
      config_set(cfg, sweeps[k].key, sweeps[k].values[idx[k]]);
      values.push_back(sweeps[k].values[idx[k]]);
    }
    cfg.validate();
    point_cfgs.push_back(std::move(cfg));
    point_values.push_back(std::move(values));
    for (std::size_t k = sweeps.size(); k-- > 0;) {
      if (++idx[k] < sweeps[k].values.size()) break;
      idx[k] = 0;
    }
  }

  const std::size_t total_tasks = total_points * seeds;

  // --- journal / resume ---------------------------------------------------
  std::vector<MetricValues> values(total_tasks, MetricValues{});
  std::vector<char> done(total_tasks, 0);
  std::vector<std::string> failures(total_tasks);
  std::unique_ptr<JournalWriter> journal;
  std::uint64_t journal_next_id = 1;
  bool journal_has_done = false;
  if (!journal_dir.empty()) {
    const std::uint64_t hash = campaign_hash(base, sweeps, seeds);
    const std::string manifest_path = journal_dir + "/manifest.json";
    const std::string journal_path = journal_dir + "/journal.jsonl";
    std::filesystem::create_directories(journal_dir);
    std::ifstream manifest_in(manifest_path);
    if (manifest_in.is_open()) {
      // Existing campaign: only --resume may append to it, and only when
      // the config x grid identity matches exactly.
      WRSN_REQUIRE(resume, "journal '" + journal_dir +
                               "' already exists; use --resume to continue it");
      std::ostringstream buf;
      buf << manifest_in.rdbuf();
      WRSN_REQUIRE(find_json_u64(buf.str(), "campaign_hash") == hash,
                   "journal '" + journal_dir +
                       "' belongs to another campaign (its config, grid or seeds "
                       "differ)");
    } else {
      WRSN_REQUIRE(!resume, "nothing to resume: no manifest in '" + journal_dir + "'");
      JsonWriter w;
      w.begin_object()
          .field("record", "manifest")
          .field("schema", "wrsn.sweep-journal")
          .field("version", std::int64_t{2})
          .field("campaign_hash", hash)
          .field("points", static_cast<std::uint64_t>(total_points))
          .field("seeds", static_cast<std::uint64_t>(seeds))
          .end_object();
      write_file_atomic(manifest_path, w.str() + "\n");
    }
    std::ifstream journal_in(journal_path);
    std::size_t restored_cells = 0;
    std::size_t journal_lines = 0;
    std::uint64_t last_id = 0;
    std::string line;
    for (std::size_t line_no = 1; std::getline(journal_in, line); ++line_no) {
      if (line.empty()) continue;
      ++journal_lines;
      // Any damage fails the resume with one line naming the journal line.
      const auto corrupt = [&](const std::string& what) {
        return InvalidArgument(journal_path + ":" + std::to_string(line_no) + ": " + what);
      };
      std::string err;
      if (!json_validate(line, &err)) throw corrupt("corrupt journal line: " + err);
      if (line.find("\"record\":\"done\"") != std::string::npos) {
        journal_has_done = true;
        continue;
      }
      if (line.find("\"record\":\"cell\"") == std::string::npos) continue;
      const auto id = find_json_u64(line, "id");
      const auto point = find_json_u64(line, "point");
      const auto replica = find_json_u64(line, "replica");
      const auto seed = find_json_u64(line, "seed");
      MetricValues m{};
      const std::optional<bool> sum_ok = json_checksum_ok(line);
      if (!id || !point || !replica || !seed || !find_json_doubles(line, "m", &m) ||
          !sum_ok) {
        throw corrupt("malformed cell record");
      }
      if (*id <= last_id) {
        throw corrupt("cell id " + std::to_string(*id) +
                      " not greater than previous id " + std::to_string(last_id));
      }
      if (*point >= total_points || *replica >= seeds) {
        throw corrupt("cell outside the campaign grid");
      }
      const std::size_t task = *point * seeds + *replica;
      if (done[task]) throw corrupt("cell recorded twice");
      if (*seed != point_cfgs[*point].seed + *replica) {
        throw corrupt("cell seed " + std::to_string(*seed) + " is not point seed + replica");
      }
      // Last: a record that passed every check above can still carry a
      // damaged metric value.
      if (!*sum_ok) throw corrupt("cell record checksum mismatch");
      values[task] = m;
      done[task] = 1;
      ++restored_cells;
      last_id = *id;
    }
    journal_next_id = last_id + 1;
    journal = std::make_unique<JournalWriter>(journal_path);
    if (journal_lines == 0) journal->append(journal_meta_line());
    if (resume) {
      std::cout << "resuming from " << journal_dir << ": " << restored_cells
                << '/' << total_tasks << " cell(s) already finished\n";
    }
  }

  obs::TelemetryRegistry telemetry;
  obs::TelemetryRegistry* const telemetry_ptr = telemetry_target(opts, telemetry);
  // Replica-private registries, merged in task order after the parallel
  // phase so the aggregate is independent of completion order. The
  // supervisor's own counters (supervisor/retries, ...) land here too.
  std::vector<obs::TelemetryRegistry> local_telemetry(
      telemetry_ptr != nullptr ? total_tasks : 0);

  // Progress/ETA bookkeeping: replicas completed so far (updated under the
  // write mutex) against the wall clock since the sweep started. The ETA is
  // a straight linear extrapolation — good enough to answer "lunch or
  // overnight?" for a homogeneous grid.
  std::mutex write_mutex;
  std::vector<std::size_t> remaining(total_points, seeds);
  for (std::size_t task = 0; task < total_tasks; ++task) {
    if (done[task]) --remaining[task / seeds];
  }
  const auto sweep_began = std::chrono::steady_clock::now();
  std::size_t tasks_done = 0, tasks_todo = 0;
  for (std::size_t task = 0; task < total_tasks; ++task) {
    if (!done[task]) ++tasks_todo;
  }
  auto format_eta = [](double s) {
    std::ostringstream os;
    if (s >= 3600.0) {
      os << s / 3600.0 << 'h';
    } else if (s >= 60.0) {
      os << s / 60.0 << 'm';
    } else {
      os << s << 's';
    }
    return os.str();
  };

  arm_flight_hooks(opts);

  const std::size_t workers =
      base.threads != 0 ? base.threads
                        : std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  ThreadPool pool(std::min(workers, total_tasks));
  pool.parallel_for(total_tasks, [&](std::size_t task) {
    if (done[task]) return;  // journaled by a previous (interrupted) run
    const std::size_t point = task / seeds;
    const std::size_t replica = task % seeds;
    SimConfig cfg = point_cfgs[point];
    // Same per-replica seed derivation as run_replicas, so the flattened
    // grid reproduces the sequential driver's reports byte for byte.
    cfg.seed = point_cfgs[point].seed + replica;
    const std::string tag =
        ".point" + std::to_string(point) + ".rep" + std::to_string(replica);

    ReplicaSupervisor supervisor(
        sup_options, telemetry_ptr != nullptr ? &local_telemetry[task] : nullptr);
    const auto prefixed = [&](const std::string& prefix, const char* ext) {
      return prefix.empty() ? prefix : prefix + tag + ext;
    };
    // Each attempt opens its own sinks and commits them only on success, so
    // retried attempts never leave partial or duplicated span files.
    const ReplicaResult result = supervisor.supervise([&]() {
      WRSN_REQUIRE(!(inject_fail && point == inject_point && replica == inject_replica),
                   "injected failure (--inject-fail)");
      WorldSinks sinks(prefixed(opts.spans_path, ".jsonl"),
                       prefixed(opts.chrome_path, ".json"), opts.flight_capacity,
                       "wrsn_sweep" + tag + " seed " + std::to_string(cfg.seed));
      const AttemptOutcome out = supervisor.attempt(
          cfg, sinks.instruments(telemetry_ptr != nullptr ? &local_telemetry[task]
                                                          : nullptr));
      if (out.status == AttemptOutcome::Status::kOk) {
        sinks.finish(cfg.sim_duration.value());
      }
      return out;
    });

    const std::lock_guard lock(write_mutex);
    ++tasks_done;
    if (result.ok) {
      for (std::size_t m = 0; m < kNumMetrics; ++m) {
        values[task][m] = kMetrics[m].get(result.report);
      }
      done[task] = 1;
      if (journal != nullptr) {
        journal->append(journal_cell_line(journal_next_id++, point, replica,
                                          cfg.seed, values[task]));
      }
    } else {
      failures[task] = result.error + " (" + std::to_string(result.attempts) +
                       " attempt(s)" + (result.timed_out ? ", timed out" : "") +
                       ")";
    }
    if (--remaining[point] == 0 || !result.ok) {
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - sweep_began)
                                 .count();
      std::cerr << "point " << point + 1 << '/' << total_points
                << (result.ok ? " done (" : " FAILED a replica (") << tasks_done
                << '/' << tasks_todo << " replicas";
      if (tasks_done > 0 && tasks_done < tasks_todo) {
        const double eta = elapsed *
                           static_cast<double>(tasks_todo - tasks_done) /
                           static_cast<double>(tasks_done);
        std::cerr << ", ETA " << format_eta(eta);
      }
      std::cerr << ")\n";
    }
  });

  if (telemetry_ptr != nullptr) {
    for (const obs::TelemetryRegistry& local : local_telemetry) {
      telemetry.merge_from(local);
    }
  }

  // --- output -------------------------------------------------------------
  // The CSV is assembled in memory and published with one atomic rename: an
  // interrupted sweep leaves either the previous file or the complete new
  // one, never a truncated half-row. (Recovery of partial progress is the
  // journal's job, not the CSV's.)
  std::ostringstream csv_text;
  for (const Sweep& s : sweeps) csv_text << s.key << ',';
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    csv_text << kMetrics[m].name << ',' << kMetrics[m].name << "_ci95"
             << (m + 1 < kNumMetrics ? "," : "\n");
  }
  for (std::size_t point = 0; point < total_points; ++point) {
    for (const std::string& v : point_values[point]) csv_text << v << ',';
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
      RunningStats stats;
      for (std::size_t i = 0; i < seeds; ++i) {
        if (done[point * seeds + i]) stats.add(values[point * seeds + i][m]);
      }
      if (stats.count() > 0) {
        csv_text << stats.mean() << ',' << stats.ci95_halfwidth();
      } else {
        csv_text << "nan,nan";  // every replica of this point quarantined
      }
      csv_text << (m + 1 < kNumMetrics ? "," : "\n");
    }
  }
  if (!csv_path.empty()) {
    AtomicFile csv(csv_path);
    csv.stream() << csv_text.str();
    csv.commit();
    std::cout << "\nwrote " << total_points << " row(s) to " << csv_path << '\n';
  } else {
    std::cout << csv_text.str();
  }
  if (telemetry_ptr != nullptr) {
    obs::write_registry_file(opts.telemetry_path, telemetry);
    std::cout << "wrote telemetry to " << opts.telemetry_path << '\n';
  }

  std::size_t failed_cells = 0;
  for (std::size_t task = 0; task < total_tasks; ++task) {
    if (!done[task]) ++failed_cells;
  }
  if (journal != nullptr && failed_cells == 0 && !journal_has_done) {
    journal->append(journal_done_line(static_cast<std::uint64_t>(total_tasks)));
  }
  if (failed_cells > 0) {
    // Quarantined cells: the sweep still completed (exit 3, not 1), the CSV
    // holds every healthy point, and a --resume retries exactly these cells.
    std::cerr << "failed_points:\n";
    for (std::size_t task = 0; task < total_tasks; ++task) {
      if (done[task]) continue;
      const std::size_t point = task / seeds;
      const std::size_t replica = task % seeds;
      std::cerr << "  point " << point << " replica " << replica << " seed "
                << point_cfgs[point].seed + replica << ": " << failures[task]
                << '\n';
    }
    std::cerr << failed_cells << " cell(s) quarantined"
              << (journal != nullptr ? "; rerun with --resume to retry them\n"
                                     : "\n");
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return wrsn::run_main("wrsn_sweep", [&] {
    return sweep_main(std::vector<std::string>(argv + 1, argv + argc));
  });
}
