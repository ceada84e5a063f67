// The paper's claims as tests.
//
// One process runs every grid behind EXPERIMENTS.md once, at the paper's
// 120-day horizon with 3 seeds per point: Fig. 4, Fig. 5, Fig. 6/7, the
// extension baselines, the charge-profile ablation, the sensitivity sweeps
// over M and m, and the Section III-B single-cluster K sweep. Identical
// configs across grids run once, and every (config, seed) pair is one task
// of a single ThreadPool::parallel_for, the way wrsn_sweep flattens
// point x replica. Each test case below is one row of the verdict table and
// asserts it with a stated margin; the two open deviations (F6a, F7b) are
// asserted as deviations, so a change that fixes one must edit its test.
//
// The same results render the verdict table and the headline tables as
// markdown. They are written to WRSN_CLAIMS_OUT, and the block between
// `<!-- claims:begin -->` and `<!-- claims:end -->` in EXPERIMENTS.md must
// be byte-equal to that file. After a deliberate change to a number, splice
// the file into the doc with the command in EXPERIMENTS.md "Reproducing".
//
// Table II itself is pinned field by field by Config.PaperDefaultsMatchTableII
// (test_config.cpp), Eq. (1) by Coverage.Eq1MatchesPaperFormula (test_geom.cpp).
//
// Registered with a plain add_test (one process, ctest label `claims`):
// gtest_discover_tests would re-run the grids once per case.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "activity/clustering.hpp"
#include "activity/erp.hpp"
#include "core/config.hpp"
#include "core/config_io.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "geom/coverage.hpp"
#include "net/deployment.hpp"
#include "sim/runner.hpp"

namespace wrsn {
namespace {

constexpr std::size_t kSeeds = 3;
constexpr std::array<const char*, 3> kSchemes = {"greedy", "partition", "combined"};
constexpr std::size_t kGreedy = 0, kPartition = 1, kCombined = 2;  // into kSchemes
constexpr std::array<double, 6> kErps = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
constexpr std::size_t kErp06 = 3;  // index of the Table II ERP in kErps

// Fig. 4's four activity-management cases, worst first.
struct ActivityCase {
  const char* name;
  bool erc;
  ActivationPolicy activation;
};
constexpr std::array<ActivityCase, 4> kActivityCases = {{
    {"NoERC-Full", false, ActivationPolicy::kFullTime},
    {"NoERC-RR", false, ActivationPolicy::kRoundRobin},
    {"ERC-Full", true, ActivationPolicy::kFullTime},
    {"ERC-RR", true, ActivationPolicy::kRoundRobin},
}};

struct Baseline {
  const char* label;
  const char* scheduler;
  bool two_opt;
};
constexpr std::array<Baseline, 7> kBaselines = {{
    {"greedy (Alg. 2)", "greedy", false},
    {"partition", "partition", false},
    {"combined", "combined", false},
    {"combined + 2-opt", "combined", true},
    {"nearest-first", "nearest-first", false},
    {"fcfs", "fcfs", false},
    {"edf", "edf", false},
}};
constexpr std::size_t kCombinedPlain = 2, kCombinedTwoOpt = 3, kFcfs = 5;

constexpr std::array<std::size_t, 5> kTargetCounts = {5, 8, 10, 15, 20};
constexpr std::array<std::size_t, 5> kFleetSizes = {1, 2, 3, 5, 8};
constexpr std::array<ChargeProfileKind, 2> kProfiles = {
    ChargeProfileKind::kConstantPower, ChargeProfileKind::kTaperedCcCv};
constexpr std::array<const char*, 2> kProfileSchemes = {"greedy", "combined"};
constexpr std::array<double, 3> kClusterErps = {0.0, 0.5, 1.0};
constexpr std::array<std::size_t, 4> kClusteringTargets = {5, 10, 15, 25};
constexpr int kClusteringTrials = 30;

SimConfig table2(const std::string& scheduler) {
  SimConfig cfg = SimConfig::paper_defaults();
  cfg.scheduler = scheduler;
  return cfg;
}

SimConfig with_activity(SimConfig cfg, const ActivityCase& c) {
  cfg.energy_request_control = c.erc;
  cfg.activation = c.activation;
  return cfg;
}

// Section III-B: one target, one RV, 60 sensors on a 120 m field, half the
// paper's horizon.
SimConfig single_cluster(double erp) {
  SimConfig cfg;
  cfg.num_sensors = 60;
  cfg.num_targets = 1;
  cfg.num_rvs = 1;
  cfg.field_side = meters(120.0);
  cfg.sim_duration = days(60.0);
  cfg.energy_request_percentage = erp;
  return cfg;
}

// Distinct configs, each run for kSeeds replicas (seeds seed, seed+1, ...,
// as run_replicas derives them) and averaged with mean_report.
class Grid {
 public:
  // Index of `cfg`'s point, registering it on first sight.
  std::size_t add(const SimConfig& cfg) {
    const auto [it, fresh] = index_.emplace(config_to_text(cfg), configs_.size());
    if (fresh) configs_.push_back(cfg);
    return it->second;
  }

  void run(ThreadPool& pool) {
    std::vector<MetricsReport> runs(configs_.size() * kSeeds);
    pool.parallel_for(runs.size(), [&](std::size_t task) {
      SimConfig cfg = configs_[task / kSeeds];
      cfg.seed += task % kSeeds;
      runs[task] = run_replica(cfg);
    });
    means_.reserve(configs_.size());
    for (std::size_t p = 0; p < configs_.size(); ++p) {
      means_.push_back(mean_report({runs.begin() + p * kSeeds,
                                    runs.begin() + (p + 1) * kSeeds}));
    }
  }

  [[nodiscard]] std::size_t size() const { return configs_.size(); }
  [[nodiscard]] const MetricsReport& operator[](std::size_t point) const {
    return means_.at(point);
  }

 private:
  std::map<std::string, std::size_t> index_;
  std::vector<SimConfig> configs_;
  std::vector<MetricsReport> means_;
};

// Section III-B closed form for one cluster of n_c sensors at `dist`.
constexpr std::size_t kClusterSize = 6;
constexpr Meter kClusterDist{80.0};
constexpr JoulePerMeter kMoveCost{5.6};
double analytic_travel(double erp) {
  return travel_energy_with_erc(kClusterSize, erp, kClusterDist, kMoveCost).value();
}

double mj(Joule e) { return e.value() / 1e6; }
double travel(const MetricsReport& r) { return mj(r.rv_travel_energy); }
double recharged(const MetricsReport& r) { return mj(r.energy_recharged); }
double objective(const MetricsReport& r) { return mj(r.objective_score()); }
double cost(const MetricsReport& r) { return r.recharging_cost_m_per_sensor(); }
double nonfunc(const MetricsReport& r) { return r.nonfunctional_pct; }
double coverage(const MetricsReport& r) { return 100.0 * r.coverage_ratio; }
double missing(const MetricsReport& r) { return 100.0 * r.missing_rate; }
double latency_min(const MetricsReport& r) {
  return r.avg_request_latency.value() / 60.0;
}
double km_per_mj(const MetricsReport& r) {
  return (r.rv_travel_distance.value() / 1e3) / recharged(r);
}

// Relative change of `x` against `base`, in percent (negative = below).
double pct_vs(double base, double x) { return 100.0 * (x - base) / base; }
// Saving of `x` against `base`, in percent (positive = below).
double saving(double base, double x) { return -pct_vs(base, x); }

struct ImbalanceRow {
  std::size_t targets;
  double balanced;
  double naive;
};

// Every result the verdict rows and tables read, indexed into the grid.
struct Claims {
  Grid grid;
  std::array<std::array<std::size_t, 4>, 3> f4{};       // [scheme][case]
  std::array<std::array<std::size_t, 6>, 3> erp{};      // [scheme][ERP]
  std::array<std::size_t, 7> baselines{};
  std::array<std::array<std::size_t, 2>, 5> targets{};  // [M][NoERC-Full, ERC-RR]
  std::array<std::size_t, 5> fleet{};
  std::array<std::array<std::size_t, 2>, 2> charge{};   // [profile][scheme]
  std::array<std::size_t, 3> cluster{};
  std::vector<ImbalanceRow> clustering;

  [[nodiscard]] const MetricsReport& at(std::size_t point) const { return grid[point]; }

  // ERP-averaged metric of scheme `s` (the Fig. 6/7 summary rows).
  template <typename F>
  [[nodiscard]] double erp_avg(std::size_t s, F metric) const {
    double sum = 0.0;
    for (std::size_t point : erp[s]) sum += metric(at(point));
    return sum / static_cast<double>(erp[s].size());
  }

  [[nodiscard]] double f4_saving(std::size_t s) const {
    return saving(travel(at(f4[s][0])), travel(at(f4[s][3])));
  }
  [[nodiscard]] double targets_saving(std::size_t m) const {
    return saving(travel(at(targets[m][0])), travel(at(targets[m][1])));
  }
};

// Balanced (Algorithm 1) vs naive first-come clustering, imbalance averaged
// over random Table II-sized instances.
std::vector<ImbalanceRow> clustering_ablation() {
  std::vector<ImbalanceRow> rows;
  Xoshiro256 rng(4096);
  for (std::size_t m : kClusteringTargets) {
    double bal = 0.0, nai = 0.0;
    for (int i = 0; i < kClusteringTrials; ++i) {
      const auto sensors = deploy_uniform(500, 200.0, rng);
      const auto targets = deploy_uniform(m, 200.0, rng);
      bal += static_cast<double>(balanced_clustering(sensors, targets, 8.0).imbalance());
      nai += static_cast<double>(naive_clustering(sensors, targets, 8.0).imbalance());
    }
    rows.push_back({m, bal / kClusteringTrials, nai / kClusteringTrials});
  }
  return rows;
}

Claims run_claims() {
  Claims c;
  Grid& g = c.grid;
  for (std::size_t s = 0; s < kSchemes.size(); ++s) {
    for (std::size_t k = 0; k < kActivityCases.size(); ++k) {
      c.f4[s][k] = g.add(with_activity(table2(kSchemes[s]), kActivityCases[k]));
    }
    for (std::size_t e = 0; e < kErps.size(); ++e) {
      SimConfig cfg = table2(kSchemes[s]);
      cfg.energy_request_percentage = kErps[e];
      c.erp[s][e] = g.add(cfg);
    }
  }
  for (std::size_t b = 0; b < kBaselines.size(); ++b) {
    SimConfig cfg = table2(kBaselines[b].scheduler);
    cfg.two_opt_tours = kBaselines[b].two_opt;
    c.baselines[b] = g.add(cfg);
  }
  for (std::size_t m = 0; m < kTargetCounts.size(); ++m) {
    SimConfig cfg = table2("combined");
    cfg.num_targets = kTargetCounts[m];
    c.targets[m][0] = g.add(with_activity(cfg, kActivityCases.front()));
    c.targets[m][1] = g.add(with_activity(cfg, kActivityCases.back()));
  }
  for (std::size_t m = 0; m < kFleetSizes.size(); ++m) {
    SimConfig cfg = SimConfig::paper_defaults();
    cfg.num_rvs = kFleetSizes[m];
    c.fleet[m] = g.add(cfg);
  }
  for (std::size_t p = 0; p < kProfiles.size(); ++p) {
    for (std::size_t s = 0; s < kProfileSchemes.size(); ++s) {
      SimConfig cfg = table2(kProfileSchemes[s]);
      cfg.rv.charge_profile = kProfiles[p];
      c.charge[p][s] = g.add(cfg);
    }
  }
  for (std::size_t k = 0; k < kClusterErps.size(); ++k) {
    c.cluster[k] = g.add(single_cluster(kClusterErps[k]));
  }

  const auto start = std::chrono::steady_clock::now();
  ThreadPool pool;
  g.run(pool);
  c.clustering = clustering_ablation();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  std::cout << "claims: " << g.size() << " configs x " << kSeeds << " seeds in "
            << elapsed.count() << " s on " << pool.size() << " threads\n";
  return c;
}

// Runs the grids on first use; every case shares the one result.
const Claims& claims() {
  static const Claims c = run_claims();
  return c;
}

// --- markdown --------------------------------------------------------------

std::string fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string signed_pct(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+.1f %%", v);
  return buf;
}

// Appends one markdown table row.
void row(std::ostringstream& os, const std::vector<std::string>& cells) {
  os << '|';
  for (const std::string& cell : cells) os << ' ' << cell << " |";
  os << '\n';
}

void header(std::ostringstream& os, const std::vector<std::string>& cells) {
  row(os, cells);
  os << '|';
  for (std::size_t i = 0; i < cells.size(); ++i) os << "---|";
  os << '\n';
}

std::string verdict_table(const Claims& c) {
  const MetricsReport& f5_0 = c.at(c.erp[kGreedy][0]);
  const MetricsReport& f5_4 = c.at(c.erp[kGreedy][2]);
  const MetricsReport& f5_6 = c.at(c.erp[kGreedy][kErp06]);
  const MetricsReport& f5_1 = c.at(c.erp[kGreedy].back());
  const double g_travel = c.erp_avg(kGreedy, travel);
  const double g_nonfunc = c.erp_avg(kGreedy, nonfunc);

  std::ostringstream os;
  header(os, {"Exp", "Paper claim", "Reproduced?", "Notes (`test_claims` case)"});
  row(os, {"T2", "Table II parameter settings", "✅ exact",
           "`Config.PaperDefaultsMatchTableII` (test_config)"});
  row(os, {"E1", "Eq. (1) minimum-coverage density",
           "✅ exact formula (" +
               std::to_string(min_sensors_for_coverage(200.0 * 200.0, 8.0)) +
               " sensors at L=200, r=8) + Monte-Carlo check",
           "`Coverage.Eq1MatchesPaperFormula`; `bench_eq1_coverage`"});
  row(os, {"F4",
           "activity management saves RV travel (~16 %), ordering NoERC-Full > "
           "NoERC-RR > ERC-Full > ERC-RR",
           "✅ ordering exact for all 3 schedulers; savings " +
               fixed(c.f4_saving(kGreedy), 1) + " % / " +
               fixed(c.f4_saving(kPartition), 1) + " % / " +
               fixed(c.f4_saving(kCombined), 1) + " % (greedy/partition/combined)",
           "stronger than paper's 16 % (`F4ActivityManagement`)"});
  row(os, {"F5", "travel declines with ERP; missing rate jumps above ~0.6",
           "✅ travel " + fixed(travel(f5_0), 2) + "→" + fixed(travel(f5_1), 2) +
               " MJ; missing " + fixed(missing(f5_0), 2) + " % (floor) until 0.4 (" +
               fixed(missing(f5_4), 2) + " %), jumps at 0.6 (" +
               fixed(missing(f5_6), 2) + " %)",
           "floor = structural holes of random deployment (`F5TradeOff`)"});
  row(os, {"F6a", "Partition lowest travel (−41 % vs greedy), Combined −13 %",
           "✅ Partition " +
               signed_pct(pct_vs(g_travel, c.erp_avg(kPartition, travel))) +
               "; ⚠️ Combined " +
               signed_pct(pct_vs(g_travel, c.erp_avg(kCombined, travel))) +
               " (ERP-averaged)",
           "deviation 1 below (`F6aPartitionTravelsLeast`, "
           "`F6aDeviationCombinedTracksGreedy`)"});
  row(os, {"F6b", "coverage high for all, declining with ERP",
           "✅ greedy " + fixed(coverage(f5_0), 1) + " % → " +
               fixed(coverage(f5_1), 1) + " %",
           "`F6bCoverage`"});
  row(os, {"F6c",
           "Combined fewest nonfunctional (−52 % vs greedy), Partition −23 %",
           "✅ ordering (Combined " + fixed(c.erp_avg(kCombined, nonfunc), 2) +
               " % < Partition " + fixed(c.erp_avg(kPartition, nonfunc), 2) +
               " % < Greedy " + fixed(g_nonfunc, 2) +
               " % ERP-averaged); ⚠️ factors " +
               signed_pct(pct_vs(g_nonfunc, c.erp_avg(kCombined, nonfunc))) + " / " +
               signed_pct(pct_vs(g_nonfunc, c.erp_avg(kPartition, nonfunc))),
           "deviation 2 below (`F6cNonfunctionalOrdering`)"});
  row(os, {"F6d", "recharging cost: Partition lowest",
           "✅ Partition " +
               signed_pct(pct_vs(c.erp_avg(kGreedy, cost), c.erp_avg(kPartition, cost))) +
               " vs greedy; cost declines with ERP",
           "`F6dPartitionCheapest`"});
  row(os, {"F7a", "energy recharged declines with ERP; Combined highest",
           "✅ greedy " + fixed(recharged(f5_0), 1) + " → " +
               fixed(recharged(f5_1), 1) + " MJ; Combined highest (" +
               fixed(c.erp_avg(kCombined, recharged), 2) +
               " vs " + fixed(c.erp_avg(kGreedy, recharged), 2) + " / " +
               fixed(c.erp_avg(kPartition, recharged), 2) + " MJ avg)",
           "margins small (`F7aRecharged`)"});
  row(os, {"F7b", "objective score: Combined highest",
           "❌ Partition highest here (" + fixed(c.erp_avg(kPartition, objective), 3) +
               " vs " + fixed(c.erp_avg(kGreedy, objective), 3) + " / " +
               fixed(c.erp_avg(kCombined, objective), 3) + " MJ)",
           "consequence of the F6a deviation "
           "(`F7bDeviationPartitionHighestObjective`)"});
  row(os, {"§IV-E",
           "complexity: greedy ~O(n²) per list, insertion superlinear, K-means ~O(nmk)",
           "✅ google-benchmark `Complexity()` fits", "`bench_algo_scaling`"});
  row(os, {"§III-B",
           "ERC saving 2n_c/max(n_cK,1)·dist·e_m; K=1 ⇒ 1/n_c of unmanaged travel",
           "✅ analytic table; measured travel per recharged MJ at K=1 below K=0 (" +
               fixed(km_per_mj(c.at(c.cluster.back())), 3) + " vs " +
               fixed(km_per_mj(c.at(c.cluster.front())), 3) +
               " km/MJ); ⚠️ not monotone in K",
           "`SecIIIBAnalyticErcSaving`, `SecIIIBMeasuredTravelPerJoule`"});
  const ImbalanceRow& m10 = c.clustering[1];
  row(os, {"Alg. 1",
           "balanced clustering keeps cluster sizes closer to equal than naive",
           "⚠️ within 0.1 of naive at every M; at M=10 naive scores lower (" +
               fixed(m10.naive, 2) + " vs " + fixed(m10.balanced, 2) +
               ") because `imbalance()` skips memberless clusters",
           "`Alg1ClusteringImbalance`"});
  const MetricsReport& fcfs = c.at(c.baselines[kFcfs]);
  row(os, {"X-base", "(extension) profit-driven schemes travel less than FCFS",
           "✅ FCFS " + fixed(travel(fcfs), 3) + " MJ, the most of all 7; 2-opt lowers "
               "Combined's travel",
           "`BaselinesFcfsTravelsMost`"});
  row(os, {"X-chg",
           "(extension) tapered CC-CV charging inflates dwell without changing "
           "the winner",
           "⚠️ taper lowers greedy nonfunctional " +
               fixed(nonfunc(c.at(c.charge[0][0])), 2) + " → " +
               fixed(nonfunc(c.at(c.charge[1][0])), 2) +
               " % and flips the objective order (greedy wins under the taper)",
           "`XchgTaperFlipsObjectiveOrder`"});
  row(os, {"S-M", "(§V-A remark) activity-management saving grows with M",
           "✅ " + fixed(c.targets_saving(0), 1) + " % at M=" +
               std::to_string(kTargetCounts.front()) + " → " +
               fixed(c.targets_saving(kTargetCounts.size() - 1), 1) + " % at M=" +
               std::to_string(kTargetCounts.back()) + " (combined)",
           "`SensitivitySavingGrowsWithTargets`"});
  std::string fleet_nonfunc;
  for (std::size_t point : c.fleet) {
    if (!fleet_nonfunc.empty()) fleet_nonfunc += " / ";
    fleet_nonfunc += fixed(nonfunc(c.at(point)), 2);
  }
  row(os, {"S-m", "(fleet sizing) latency and nonfunctional fall with m and saturate",
           "✅ latency falls at every step; ⚠️ nonfunctional reads " + fleet_nonfunc +
               " % at m = 1/2/3/5/8: it drops after m=1, then creeps up",
           "`SensitivityFleetSize`"});
  return os.str();
}

std::string headline_tables(const Claims& c) {
  std::ostringstream os;
  os << "### Fig. 4 — RV traveling energy (MJ)\n\n";
  header(os, {"scheduler", "NoERC-Full", "NoERC-RR", "ERC-Full", "ERC-RR", "saving",
              "coverage ERC-Full / ERC-RR (%)"});
  for (std::size_t s = 0; s < kSchemes.size(); ++s) {
    std::vector<std::string> cells = {kSchemes[s]};
    for (std::size_t point : c.f4[s]) {
      cells.push_back(fixed(travel(c.at(point)), 3));
    }
    cells.push_back(fixed(c.f4_saving(s), 1) + " %");
    cells.push_back(fixed(coverage(c.at(c.f4[s][2])), 2) + " / " +
                    fixed(coverage(c.at(c.f4[s][3])), 2));
    row(os, cells);
  }

  os << "\n### Fig. 5 — greedy trade-off vs ERP\n\n";
  header(os,
         {"ERP", "travel (MJ)", "missing (%)", "coverage (%)", "nonfunctional (%)"});
  for (std::size_t e = 0; e < kErps.size(); ++e) {
    const MetricsReport& r = c.at(c.erp[0][e]);
    row(os, {fixed(kErps[e], 1), fixed(travel(r), 3), fixed(missing(r), 3),
             fixed(coverage(r), 2), fixed(nonfunc(r), 2)});
  }

  os << "\n### Fig. 6 / Fig. 7 — scheme comparison per ERP\n\n";
  header(os, {"scheme", "ERP", "travel (MJ)", "coverage (%)", "nonfunc (%)",
              "cost (m/sensor)", "recharged (MJ)", "objective (MJ)"});
  for (std::size_t s = 0; s < kSchemes.size(); ++s) {
    for (std::size_t e = 0; e < kErps.size(); ++e) {
      const MetricsReport& r = c.at(c.erp[s][e]);
      row(os, {kSchemes[s], fixed(kErps[e], 1), fixed(travel(r), 3),
               fixed(coverage(r), 2), fixed(nonfunc(r), 2), fixed(cost(r), 0),
               fixed(recharged(r), 3), fixed(objective(r), 3)});
    }
  }

  os << "\n### Fig. 6 / Fig. 7 — ERP-averaged scheme comparison\n\n";
  header(os, {"scheme", "travel (MJ)", "nonfunc (%)", "cost (m/sensor)",
              "recharged (MJ)", "objective (MJ)"});
  for (std::size_t s = 0; s < kSchemes.size(); ++s) {
    row(os, {kSchemes[s], fixed(c.erp_avg(s, travel), 3),
             fixed(c.erp_avg(s, nonfunc), 3), fixed(c.erp_avg(s, cost), 0),
             fixed(c.erp_avg(s, recharged), 3), fixed(c.erp_avg(s, objective), 3)});
  }

  os << "\n### Extension baselines (ERP = 0.6)\n\n";
  header(os,
         {"scheduler", "travel (MJ)", "nonfunc (%)", "objective (MJ)", "latency (min)"});
  for (std::size_t b = 0; b < kBaselines.size(); ++b) {
    const MetricsReport& r = c.at(c.baselines[b]);
    row(os, {kBaselines[b].label, fixed(travel(r), 3), fixed(nonfunc(r), 3),
             fixed(objective(r), 3), fixed(latency_min(r), 1)});
  }

  os << "\n### Charge-acceptance profile (X-chg)\n\n";
  header(os, {"profile", "scheduler", "latency (min)", "nonfunc (%)", "travel (MJ)",
              "objective (MJ)"});
  for (std::size_t p = 0; p < kProfiles.size(); ++p) {
    for (std::size_t s = 0; s < kProfileSchemes.size(); ++s) {
      const MetricsReport& r = c.at(c.charge[p][s]);
      row(os, {to_string(kProfiles[p]), kProfileSchemes[s], fixed(latency_min(r), 1),
               fixed(nonfunc(r), 3), fixed(travel(r), 3), fixed(objective(r), 3)});
    }
  }

  os << "\n### Sensitivity — number of targets M (combined)\n\n";
  header(os, {"targets M", "travel NoERC-Full (MJ)", "travel ERC-RR (MJ)", "saving"});
  for (std::size_t m = 0; m < kTargetCounts.size(); ++m) {
    row(os, {std::to_string(kTargetCounts[m]), fixed(travel(c.at(c.targets[m][0])), 3),
             fixed(travel(c.at(c.targets[m][1])), 3),
             fixed(c.targets_saving(m), 1) + " %"});
  }

  os << "\n### Sensitivity — fleet size m (combined)\n\n";
  header(os,
         {"RVs m", "coverage (%)", "nonfunc (%)", "latency (min)", "cost (m/sensor)"});
  for (std::size_t m = 0; m < kFleetSizes.size(); ++m) {
    const MetricsReport& r = c.at(c.fleet[m]);
    row(os, {std::to_string(kFleetSizes[m]), fixed(coverage(r), 2),
             fixed(nonfunc(r), 2), fixed(latency_min(r), 1), fixed(cost(r), 0)});
  }

  os << "\n### §III-B — analytic ERC travel (n_c=" << kClusterSize << ", dist="
     << kClusterDist.value() << " m)\n\n";
  header(os, {"K (ERP)", "travel (kJ)", "relative to K=0"});
  for (double k : kErps) {
    const double e = analytic_travel(k);
    row(os, {fixed(k, 1), fixed(e / 1e3, 3), fixed(e / analytic_travel(0.0), 3)});
  }

  os << "\n### §III-B — single cluster (n=60, M=1, m=1, 60 days)\n\n";
  header(os, {"K (ERP)", "travel per recharged MJ (km/MJ)"});
  for (std::size_t k = 0; k < kClusterErps.size(); ++k) {
    row(os, {fixed(kClusterErps[k], 1), fixed(km_per_mj(c.at(c.cluster[k])), 3)});
  }

  os << "\n### Algorithm 1 — balanced vs naive clustering (n=500, L=200, r=8, "
     << kClusteringTrials << " instances)\n\n";
  header(os, {"targets M", "avg imbalance (balanced)", "avg imbalance (naive)"});
  for (const ImbalanceRow& r : c.clustering) {
    row(os, {std::to_string(r.targets), fixed(r.balanced, 2), fixed(r.naive, 2)});
  }
  return os.str();
}

// The generated EXPERIMENTS.md block (the text between the markers).
std::string claims_block(const Claims& c) {
  return "\n## Verdict summary\n\n" + verdict_table(c) +
         "\n## Measured headline tables (120 d × 3 seeds)\n\n" + headline_tables(c) +
         "\n";
}

// --- verdict rows ------------------------------------------------------------

TEST(Claims, F4ActivityManagement) {
  const Claims& c = claims();
  for (std::size_t s = 0; s < kSchemes.size(); ++s) {
    for (std::size_t k = 0; k + 1 < kActivityCases.size(); ++k) {
      EXPECT_GT(travel(c.at(c.f4[s][k])), travel(c.at(c.f4[s][k + 1])))
          << "F4 " << kSchemes[s] << ": " << kActivityCases[k].name
          << " should travel more than " << kActivityCases[k + 1].name;
    }
    // The paper reports ~16 %; every scheduler saves more here.
    EXPECT_GE(c.f4_saving(s), 16.0) << "F4 " << kSchemes[s] << " saving";
    // Round robin keeps detection reliable under ERC.
    EXPECT_GT(coverage(c.at(c.f4[s][3])), coverage(c.at(c.f4[s][2])))
        << "F4 " << kSchemes[s] << ": ERC-RR coverage should beat ERC-Full";
  }
}

TEST(Claims, F5TradeOff) {
  const Claims& c = claims();
  const auto& g = c.erp[kGreedy];
  // Travel falls by at least 10 % from ERP 0 to 1, and no step rises by more
  // than 1 % (the curve is flat at both ends).
  EXPECT_LE(travel(c.at(g.back())), 0.9 * travel(c.at(g.front()))) << "F5: travel vs ERP";
  for (std::size_t e = 0; e + 1 < g.size(); ++e) {
    EXPECT_LE(travel(c.at(g[e + 1])), 1.01 * travel(c.at(g[e])))
        << "F5: travel rises from ERP " << fixed(kErps[e], 1) << " to "
        << fixed(kErps[e + 1], 1);
  }
  // The missing rate sits within 10 % of its ERP-0 floor up to ERP 0.4 and at
  // least doubles at 0.6.
  const double floor_pct = missing(c.at(g.front()));
  for (std::size_t e = 0; e < kErp06; ++e) {
    EXPECT_LE(missing(c.at(g[e])), 1.1 * floor_pct)
        << "F5: missing rate at ERP " << fixed(kErps[e], 1);
  }
  EXPECT_GE(missing(c.at(g[kErp06])), 2.0 * missing(c.at(g[kErp06 - 1])))
      << "F5: missing rate should jump at ERP 0.6";
}

TEST(Claims, F6aPartitionTravelsLeast) {
  const Claims& c = claims();
  for (std::size_t e = 0; e < kErps.size(); ++e) {
    for (std::size_t s : {kGreedy, kCombined}) {
      EXPECT_LT(travel(c.at(c.erp[kPartition][e])), travel(c.at(c.erp[s][e])))
          << "F6a: partition should travel less than " << kSchemes[s] << " at ERP "
          << fixed(kErps[e], 1);
    }
  }
  // The paper reports -41 %; at least -10 % ERP-averaged here.
  EXPECT_LE(pct_vs(c.erp_avg(kGreedy, travel), c.erp_avg(kPartition, travel)), -10.0)
      << "F6a: partition's ERP-averaged travel vs greedy";
}

// Open deviation: the paper has Combined 13 % below greedy. Here the two stay
// within 5 % ERP-averaged (EXPERIMENTS.md deviation 1); a change that
// reproduces the paper's gap must update this test and the doc.
TEST(Claims, F6aDeviationCombinedTracksGreedy) {
  const Claims& c = claims();
  const double delta = pct_vs(c.erp_avg(kGreedy, travel), c.erp_avg(kCombined, travel));
  EXPECT_LT(std::abs(delta), 5.0) << "F6a deviation: combined vs greedy travel is now "
                                  << signed_pct(delta);
}

TEST(Claims, F6bCoverage) {
  const Claims& c = claims();
  for (std::size_t s = 0; s < kSchemes.size(); ++s) {
    for (std::size_t e = 0; e < kErps.size(); ++e) {
      EXPECT_GE(coverage(c.at(c.erp[s][e])), 98.0)
          << "F6b: " << kSchemes[s] << " coverage at ERP " << fixed(kErps[e], 1);
    }
    EXPECT_GE(coverage(c.at(c.erp[s].front())) - coverage(c.at(c.erp[s].back())), 0.5)
        << "F6b: " << kSchemes[s] << " coverage should decline with ERP";
  }
}

TEST(Claims, F6cNonfunctionalOrdering) {
  const Claims& c = claims();
  EXPECT_LT(c.erp_avg(kCombined, nonfunc), c.erp_avg(kPartition, nonfunc))
      << "F6c: combined should have the fewest nonfunctional sensors";
  EXPECT_LT(c.erp_avg(kPartition, nonfunc), c.erp_avg(kGreedy, nonfunc))
      << "F6c: partition should have fewer nonfunctional sensors than greedy";
}

TEST(Claims, F6dPartitionCheapest) {
  const Claims& c = claims();
  EXPECT_LE(pct_vs(c.erp_avg(kGreedy, cost), c.erp_avg(kPartition, cost)), -10.0)
      << "F6d: partition's recharging cost vs greedy";
  EXPECT_LT(c.erp_avg(kPartition, cost), c.erp_avg(kCombined, cost))
      << "F6d: partition's recharging cost vs combined";
  for (std::size_t s = 0; s < kSchemes.size(); ++s) {
    EXPECT_LE(cost(c.at(c.erp[s].back())), 0.95 * cost(c.at(c.erp[s].front())))
        << "F6d: " << kSchemes[s] << " cost should decline with ERP";
  }
}

TEST(Claims, F7aRecharged) {
  const Claims& c = claims();
  for (std::size_t s = 0; s < kSchemes.size(); ++s) {
    EXPECT_LE(recharged(c.at(c.erp[s].back())), 0.95 * recharged(c.at(c.erp[s].front())))
        << "F7a: " << kSchemes[s] << " energy recharged should decline with ERP";
  }
  for (std::size_t s : {kGreedy, kPartition}) {
    EXPECT_GT(c.erp_avg(kCombined, recharged), c.erp_avg(s, recharged))
        << "F7a: combined should recharge more than " << kSchemes[s];
  }
}

// Open deviation: the paper has Combined with the best objective; here
// Partition leads by at least 2 %, a consequence of the F6a deviation.
TEST(Claims, F7bDeviationPartitionHighestObjective) {
  const Claims& c = claims();
  for (std::size_t s : {kGreedy, kCombined}) {
    EXPECT_GE(c.erp_avg(kPartition, objective), 1.02 * c.erp_avg(s, objective))
        << "F7b deviation: partition's objective no longer leads " << kSchemes[s];
  }
}

TEST(Claims, SecIIIBAnalyticErcSaving) {
  const double unmanaged =
      travel_energy_without_erc(kClusterSize, kClusterDist, kMoveCost).value();
  EXPECT_DOUBLE_EQ(analytic_travel(0.0), unmanaged)
      << "§III-B: K=0 is the unmanaged travel";
  EXPECT_DOUBLE_EQ(analytic_travel(1.0), unmanaged / kClusterSize)
      << "§III-B: K=1 should cost 1/n_c of the unmanaged travel";
  for (std::size_t e = 0; e + 1 < kErps.size(); ++e) {
    EXPECT_LE(analytic_travel(kErps[e + 1]), analytic_travel(kErps[e]))
        << "§III-B: analytic travel rises from K=" << fixed(kErps[e], 1);
  }
}

// Measured on a single cluster, travel per recharged joule is lowest at K=1,
// at least 0.5 % below K=0 and K=0.5; it is not monotone in K (K=0.5 reads
// about the same as K=0).
TEST(Claims, SecIIIBMeasuredTravelPerJoule) {
  const Claims& c = claims();
  const double k1 = km_per_mj(c.at(c.cluster.back()));
  for (std::size_t k = 0; k + 1 < kClusterErps.size(); ++k) {
    EXPECT_LE(k1, 0.995 * km_per_mj(c.at(c.cluster[k])))
        << "§III-B: travel per recharged MJ at K=1 vs K=" << fixed(kClusterErps[k], 1);
  }
}

// Algorithm 1 does not measurably beat naive first-come assignment on
// ClusterSet::imbalance(): the metric skips memberless clusters, so naive can
// score lower by starving coverable targets (test_clustering pins one such
// instance). The averages stay within 0.1 of each other at every M.
TEST(Claims, Alg1ClusteringImbalance) {
  for (const ImbalanceRow& r : claims().clustering) {
    EXPECT_LE(std::abs(r.balanced - r.naive), 0.1)
        << "Alg. 1: balanced " << fixed(r.balanced, 2) << " vs naive "
        << fixed(r.naive, 2) << " at M=" << r.targets;
  }
}

TEST(Claims, BaselinesFcfsTravelsMost) {
  const Claims& c = claims();
  const double fcfs = travel(c.at(c.baselines[kFcfs]));
  for (std::size_t b = 0; b < kBaselines.size(); ++b) {
    if (b == kFcfs) continue;
    EXPECT_LT(travel(c.at(c.baselines[b])), fcfs)
        << "X-base: " << kBaselines[b].label << " should travel less than fcfs";
  }
  // The 2-opt polish does not hurt the Combined-Scheme.
  const MetricsReport& plain = c.at(c.baselines[kCombinedPlain]);
  const MetricsReport& polished = c.at(c.baselines[kCombinedTwoOpt]);
  EXPECT_LE(travel(polished), travel(plain)) << "X-base: 2-opt travel";
  EXPECT_GE(objective(polished), objective(plain)) << "X-base: 2-opt objective";
}

// The tapered CC-CV profile at least doubles the request latency, yet it
// lowers the nonfunctional share for both schedulers and flips the objective
// order: combined leads under constant power, greedy under the taper.
TEST(Claims, XchgTaperFlipsObjectiveOrder) {
  const Claims& c = claims();
  for (std::size_t s = 0; s < kProfileSchemes.size(); ++s) {
    const MetricsReport& flat = c.at(c.charge[0][s]);
    const MetricsReport& taper = c.at(c.charge[1][s]);
    EXPECT_GE(latency_min(taper), 2.0 * latency_min(flat))
        << "X-chg: " << kProfileSchemes[s] << " latency under the taper";
    EXPECT_LT(nonfunc(taper), nonfunc(flat))
        << "X-chg: " << kProfileSchemes[s] << " nonfunctional under the taper";
  }
  EXPECT_GT(objective(c.at(c.charge[0][1])), objective(c.at(c.charge[0][0])))
      << "X-chg: combined should lead greedy under constant power";
  EXPECT_GT(objective(c.at(c.charge[1][0])), objective(c.at(c.charge[1][1])))
      << "X-chg: greedy should lead combined under the taper";
}

// Section V-A's closing remark: the activity-management saving grows with the
// number of targets, by at least 10 points from M=5 to M=20.
TEST(Claims, SensitivitySavingGrowsWithTargets) {
  const Claims& c = claims();
  for (std::size_t m = 0; m + 1 < kTargetCounts.size(); ++m) {
    EXPECT_GE(c.targets_saving(m + 1), c.targets_saving(m))
        << "S-M: saving falls from M=" << kTargetCounts[m] << " to M="
        << kTargetCounts[m + 1];
  }
  EXPECT_GE(c.targets_saving(kTargetCounts.size() - 1), c.targets_saving(0) + 10.0)
      << "S-M: saving gain from M=5 to M=20";
}

// Latency falls with every added RV. Nonfunctional drops at least fivefold
// from m=1 to m=2, then does not fall further.
TEST(Claims, SensitivityFleetSize) {
  const Claims& c = claims();
  for (std::size_t m = 0; m + 1 < kFleetSizes.size(); ++m) {
    EXPECT_LT(latency_min(c.at(c.fleet[m + 1])), latency_min(c.at(c.fleet[m])))
        << "S-m: latency from m=" << kFleetSizes[m] << " to m=" << kFleetSizes[m + 1];
  }
  const double two = nonfunc(c.at(c.fleet[1]));
  EXPECT_GE(nonfunc(c.at(c.fleet[0])), 5.0 * two) << "S-m: nonfunctional from m=1 to m=2";
  for (std::size_t m = 2; m < kFleetSizes.size(); ++m) {
    EXPECT_GE(nonfunc(c.at(c.fleet[m])), two)
        << "S-m: nonfunctional at m=" << kFleetSizes[m] << " fell below m=2";
  }
}

// EXPERIMENTS.md's generated block must match this run byte for byte.
TEST(Claims, ExperimentsBlockMatchesRun) {
  const std::string block = claims_block(claims());
  {
    std::ofstream out(WRSN_CLAIMS_OUT, std::ios::binary);
    out << block;
    ASSERT_TRUE(out.good()) << "cannot write " << WRSN_CLAIMS_OUT;
  }
  std::ifstream in(std::string(WRSN_SOURCE_DIR) + "/EXPERIMENTS.md", std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot read EXPERIMENTS.md";
  std::ostringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();
  // Whole-line markers: the block starts after the begin line and ends with
  // the newline before the end line.
  const std::string begin = "\n<!-- claims:begin -->\n", end = "\n<!-- claims:end -->\n";
  const std::size_t b = doc.find(begin);
  ASSERT_NE(b, std::string::npos) << "EXPERIMENTS.md has no claims:begin line";
  const std::size_t from = b + begin.size();
  const std::size_t e = doc.find(end, from);
  ASSERT_NE(e, std::string::npos)
      << "EXPERIMENTS.md has no claims:end line after claims:begin";
  const std::string current = doc.substr(from, e + 1 - from);
  EXPECT_EQ(current, block) << "EXPERIMENTS.md's claims block differs from this run; "
                               "the regenerated block is in "
                            << WRSN_CLAIMS_OUT;
}

}  // namespace
}  // namespace wrsn
