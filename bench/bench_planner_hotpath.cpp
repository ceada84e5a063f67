// bench_planner_hotpath — old-vs-new timing for the grid-pruned planners.
//
// Measures ns/op for the reference linear scans against their pruned
// replacements — PlanContext's greedy_next and insertion_sequence — at n in
// {100, 500, 2000, 10000} (constant item density: the field side grows with
// sqrt(n)), plus one dispatch round of the partition policy
// (`partition_round`), and writes a machine-readable JSON report:
//
//   bench_planner_hotpath [--quick] [--out FILE]
//
//   --quick   only n in {100, 500} (the ctest smoke target)
//   --out     output path (default BENCH_planner.json in the cwd)
//
// Timing is hand-rolled (steady_clock, best-of-reps over calibrated inner
// loops) so the JSON schema stays under our control and the binary has no
// benchmark-library dependency. Kernels produce a checksum that is written
// into the report, which both defeats dead-code elimination and doubles as
// an equivalence check: reference and optimized checksums must match.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/json.hpp"
#include "core/rng.hpp"
#include "sched/plan_context.hpp"
#include "sched/planner.hpp"
#include "sched/policy.hpp"

namespace {

using namespace wrsn;

using Clock = std::chrono::steady_clock;

// One kernel's best time per call, and the checksum of one call.
struct Timing {
  double ns_per_op = 0.0;
  double checksum = 0.0;
};

// Keeps the timed loops' results observable so they cannot be elided.
volatile double g_sink = 0.0;

// Runs each of `ref_fn` and `opt_fn` (which return a double checksum) enough
// times to fill ~`budget_ns`, repeated `reps` times, and reports the fastest
// rep of each. Reps alternate ref,opt,ref,opt,... so slow clock-frequency /
// thermal drift biases both sides equally instead of penalising whichever
// side ran second. Without this, two timings of the IDENTICAL code path (a
// kernel below its small-n cutoff, where the optimized entry point
// delegates to the reference) can report a consistent few-percent
// "slowdown".
template <typename RefFn, typename OptFn>
std::pair<Timing, Timing> time_kernel_pair(RefFn&& ref_fn, OptFn&& opt_fn,
                                           double budget_ns = 5e7,
                                           int reps = 3) {
  Timing ref, opt;
  auto calibrate = [](auto& fn, Timing& t) {
    const auto t0 = Clock::now();
    t.checksum = fn();
    const auto t1 = Clock::now();
    return std::max(
        1.0, std::chrono::duration<double, std::nano>(t1 - t0).count());
  };
  const double ref_once = calibrate(ref_fn, ref);
  const double opt_once = calibrate(opt_fn, opt);
  auto iters_for = [budget_ns](double once) {
    return static_cast<std::size_t>(std::clamp(budget_ns / once, 1.0, 1e6));
  };
  const std::size_t ref_iters = iters_for(ref_once);
  const std::size_t opt_iters = iters_for(opt_once);
  auto run_rep = [](auto& fn, std::size_t iters) {
    const auto t0 = Clock::now();
    double sink = 0.0;
    for (std::size_t i = 0; i < iters; ++i) sink += fn();
    const auto t1 = Clock::now();
    g_sink = sink;
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(iters);
  };
  double ref_best = ref_once;
  double opt_best = opt_once;
  for (int rep = 0; rep < reps; ++rep) {
    ref_best = std::min(ref_best, run_rep(ref_fn, ref_iters));
    opt_best = std::min(opt_best, run_rep(opt_fn, opt_iters));
  }
  ref.ns_per_op = ref_best;
  opt.ns_per_op = opt_best;
  return {ref, opt};
}

std::vector<RechargeItem> random_items(std::size_t n, double side,
                                       Xoshiro256& rng) {
  std::vector<RechargeItem> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RechargeItem it;
    it.pos = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
    it.demand = Joule{rng.uniform(500.0, 3500.0)};
    it.critical = rng.uniform(0.0, 1.0) < 0.05;
    it.min_fraction = rng.uniform(0.05, 0.95);
    it.sensors = {i};
    items.push_back(std::move(it));
  }
  return items;
}

struct Row {
  std::string kernel;
  std::size_t n = 0;
  double ref_ns = 0.0;
  double opt_ns = 0.0;
};

void run_size(std::size_t n, std::vector<Row>& rows) {
  // Constant density: the 500-item instance lives on a 200 m field, the
  // paper's Table II scale; everything else keeps items/m^2 fixed.
  const double side = 200.0 * std::sqrt(static_cast<double>(n) / 500.0);
  Xoshiro256 rng(0x9e3779b97f4a7c15ULL + n);
  const auto items = random_items(n, side, rng);
  const PlannerParams params{JoulePerMeter{5.6}, Vec2{side / 2.0, side / 2.0}};
  const RvPlanState rv{{side * 0.25, side * 0.75}, Joule{1e9}};
  const std::vector<bool> untaken(n, false);
  const PlanContext ctx(items, params);

  auto add = [&](const char* kernel, Timing ref, Timing opt) {
    if (ref.checksum != opt.checksum) {
      std::cerr << "bench_planner_hotpath: checksum mismatch on " << kernel
                << " at n=" << n << " (" << ref.checksum << " vs "
                << opt.checksum << ")\n";
      std::exit(1);
    }
    rows.push_back({kernel, n, ref.ns_per_op, opt.ns_per_op});
    std::cerr << "  " << kernel << " n=" << n << ": " << ref.ns_per_op << " -> "
              << opt.ns_per_op << " ns/op (" << ref.ns_per_op / opt.ns_per_op
              << "x)\n";
  };

  {
    const auto [ref, opt] = time_kernel_pair(
        [&] {
          const auto pick = greedy_next(rv, items, untaken, params);
          return pick ? static_cast<double>(*pick) : -1.0;
        },
        [&] {
          const auto pick = ctx.greedy_next(rv, untaken);
          return pick ? static_cast<double>(*pick) : -1.0;
        });
    add("greedy_next", ref, opt);
  }

  {
    // Bounded budget so the planned sequence has realistic (tour-sized)
    // length rather than swallowing the whole list.
    const RvPlanState tour_rv{rv.pos, Joule{2e5}};
    const auto [ref, opt] = time_kernel_pair(
        [&] {
          std::vector<bool> taken(n, false);
          const auto seq = insertion_sequence(tour_rv, items, taken, params);
          double sum = 0.0;
          for (const std::size_t i : seq) sum += static_cast<double>(i) + 1.0;
          return sum;
        },
        [&] {
          std::vector<bool> taken(n, false);
          const auto seq = ctx.insertion_sequence(tour_rv, taken);
          double sum = 0.0;
          for (const std::size_t i : seq) sum += static_cast<double>(i) + 1.0;
          return sum;
        });
    add("insertion_sequence", ref, opt);
  }
}

// One dispatch round of the partition policy: 16 RVs (four at the base,
// the rest spread over a 400 m field) decide in turn on one unchanged
// context of 12 single-sensor items, so four of them find no group and
// return to base. The reference creates a fresh policy per decision and
// regroups every time; the optimized side creates one policy per round,
// which groups once and reuses the grouping for the other 15 RVs (no more
// items than groups: K-means draws nothing). ns/op is one whole round; the
// row's n is the fleet size.
void run_partition_round(std::vector<Row>& rows) {
  constexpr std::size_t kRvs = 16;
  constexpr std::size_t kItems = 12;
  constexpr double kSide = 400.0;
  Xoshiro256 rng(0x5eed);
  const auto items = random_items(kItems, kSide, rng);
  std::vector<SensorView> views;
  for (const RechargeItem& it : items) views.push_back({it.pos, it.demand, it.critical});
  const PlannerParams params{JoulePerMeter{5.6}, Vec2{kSide / 2.0, kSide / 2.0}};
  std::vector<Vec2> fleet(kRvs, params.base);
  for (std::size_t r = 4; r < kRvs; ++r) {
    fleet[r] = {rng.uniform(0.0, kSide), rng.uniform(0.0, kSide)};
  }
  std::vector<SensorId> arrival(kItems);
  std::iota(arrival.begin(), arrival.end(), SensorId{0});

  auto round = [&](bool fresh_per_decision) {
    Xoshiro256 sched_rng(42);
    auto policy = SchedulerRegistry::instance().create("partition");
    double sum = 0.0;
    for (std::size_t r = 0; r < kRvs; ++r) {
      if (fresh_per_decision && r > 0) {
        policy = SchedulerRegistry::instance().create("partition");
      }
      const RvPlanState state{fleet[r], Joule{2e5}};
      const DispatchContext ctx(items, state, params, r, fleet, kRvs, sched_rng,
                                arrival, [&](SensorId s) { return views[s]; });
      const DispatchDecision d = policy->decide(ctx);
      sum += 1000.0 * static_cast<double>(d.kind);
      for (const std::size_t i : d.sequence) sum += static_cast<double>(i) + 1.0;
    }
    return sum;
  };
  const auto [ref, opt] =
      time_kernel_pair([&] { return round(true); }, [&] { return round(false); });
  if (ref.checksum != opt.checksum) {
    std::cerr << "bench_planner_hotpath: checksum mismatch on partition_round ("
              << ref.checksum << " vs " << opt.checksum << ")\n";
    std::exit(1);
  }
  rows.push_back({"partition_round", kRvs, ref.ns_per_op, opt.ns_per_op});
  std::cerr << "  partition_round rvs=" << kRvs << ": " << ref.ns_per_op << " -> "
            << opt.ns_per_op << " ns/op (" << ref.ns_per_op / opt.ns_per_op << "x)\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_planner.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: bench_planner_hotpath [--quick] [--out FILE]\n";
      return 0;
    } else {
      std::cerr << "unknown option '" << a << "' (try --help)\n";
      return 2;
    }
  }

  std::vector<std::size_t> sizes = {100, 500, 2000, 10000};
  if (quick) sizes = {100, 500};

  std::vector<Row> rows;
  for (const std::size_t n : sizes) {
    std::cerr << "n=" << n << '\n';
    run_size(n, rows);
  }
  run_partition_round(rows);

  JsonWriter w;
  w.begin_object()
      .field("schema", "wrsn.bench_planner.v1")
      .field("quick", quick)
      .field("cores", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .key("results")
      .begin_array();
  for (const Row& r : rows) {
    w.begin_object()
        .field("kernel", r.kernel)
        .field("n", static_cast<std::uint64_t>(r.n))
        .field("ref_ns_per_op", r.ref_ns)
        .field("opt_ns_per_op", r.opt_ns)
        .field("speedup", r.ref_ns / r.opt_ns)
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
