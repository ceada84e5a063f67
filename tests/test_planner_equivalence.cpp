// Property tests: the grid-pruned planners (sched/plan_context.hpp) must be
// bit-identical to the linear-scan reference implementations on every
// input — same picks, same sequences. Instances are sized past the small-n
// reference dispatch threshold so the pruned code paths are what actually
// runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "obs/telemetry.hpp"
#include "sched/plan_context.hpp"
#include "sched/planner.hpp"
#include "sched/profit.hpp"

namespace {

using namespace wrsn;

struct Instance {
  std::vector<RechargeItem> items;
  PlannerParams params{JoulePerMeter{5.6}, Vec2{100.0, 100.0}};
  RvPlanState rv{{0.0, 0.0}, Joule{0.0}};
  std::vector<bool> taken;
};

// A random planning instance. Sizes span the small-n dispatch thresholds
// (16 for PlanContext, 64 for k-means); fields vary from dense to sparse;
// some draws are all-critical or zero-budget.
Instance random_instance(Xoshiro256& rng) {
  Instance inst;
  const std::size_t n = 5 + rng.uniform_int(400);
  const double side = rng.uniform(20.0, 1200.0);
  const bool all_critical = rng.uniform() < 0.05;
  const bool zero_budget = rng.uniform() < 0.05;
  inst.items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RechargeItem it;
    it.pos = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
    it.demand = Joule{rng.uniform(100.0, 4000.0)};
    it.critical = all_critical || rng.uniform() < 0.15;
    it.min_fraction = rng.uniform(0.01, 0.99);
    it.sensors = {i};
    inst.items.push_back(std::move(it));
  }
  inst.params.base = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  inst.params.em = JoulePerMeter{rng.uniform(1.0, 10.0)};
  inst.rv.pos = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  inst.rv.available =
      zero_budget ? Joule{0.0} : Joule{rng.uniform(1e3, 5e6)};
  inst.taken.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.2) inst.taken[i] = true;
  }
  return inst;
}

constexpr int kTrials = 200;
// InsertionSequenceMatchesReference: one draw in kLongEvery keeps its full
// budget; the rest are capped at kShortBudget joules.
constexpr int kLongEvery = 10;
constexpr double kShortBudget = 1e5;

TEST(PlannerEquivalence, GreedyNextMatchesReference) {
  Xoshiro256 rng(1001);
  for (int t = 0; t < kTrials; ++t) {
    const Instance inst = random_instance(rng);
    const PlanContext ctx(inst.items, inst.params);
    const auto ref = greedy_next(inst.rv, inst.items, inst.taken, inst.params);
    const auto opt = ctx.greedy_next(inst.rv, inst.taken);
    ASSERT_EQ(ref.has_value(), opt.has_value()) << "trial " << t;
    if (ref) {
      ASSERT_EQ(*ref, *opt) << "trial " << t;
    }
  }
}

TEST(PlannerEquivalence, InsertionSequenceMatchesReference) {
  Xoshiro256 rng(3003);
  for (int t = 0; t < kTrials; ++t) {
    Instance inst = random_instance(rng);
    // The reference costs O(steps x slots x n), and the budget bounds the
    // steps: every tenth draw keeps its budget (up to 5e6 J, sequences
    // hundreds of stops long), the others are capped at kShortBudget
    // (tens of stops), which keeps the case's time in check.
    if (t % kLongEvery != 0) {
      inst.rv.available = Joule{std::min(inst.rv.available.value(), kShortBudget)};
    }
    const PlanContext ctx(inst.items, inst.params);
    std::vector<bool> taken_ref = inst.taken;
    std::vector<bool> taken_opt = inst.taken;
    const auto ref =
        insertion_sequence(inst.rv, inst.items, taken_ref, inst.params);
    const auto opt = ctx.insertion_sequence(inst.rv, taken_opt);
    ASSERT_EQ(ref, opt) << "trial " << t;
    ASSERT_EQ(taken_ref, taken_opt) << "trial " << t;
  }
}

TEST(PlannerEquivalence, AllCriticalAndZeroBudgetEdgeCases) {
  // Deterministic corners on top of the random draws above.
  Xoshiro256 rng(8008);
  for (const bool critical : {false, true}) {
    for (const double budget : {0.0, 1e4, 1e9}) {
      std::vector<RechargeItem> items;
      const std::size_t n = 200;
      for (std::size_t i = 0; i < n; ++i) {
        RechargeItem it;
        it.pos = {rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
        it.demand = Joule{rng.uniform(100.0, 4000.0)};
        it.critical = critical;
        it.sensors = {i};
        items.push_back(std::move(it));
      }
      const PlannerParams params{JoulePerMeter{5.6}, Vec2{150.0, 150.0}};
      const RvPlanState rv{{10.0, 290.0}, Joule{budget}};
      const std::vector<bool> untaken(n, false);
      const PlanContext ctx(items, params);
      const auto g_ref = greedy_next(rv, items, untaken, params);
      const auto g_opt = ctx.greedy_next(rv, untaken);
      ASSERT_EQ(g_ref, g_opt);
      std::vector<bool> taken_ref = untaken;
      std::vector<bool> taken_opt = untaken;
      ASSERT_EQ(insertion_sequence(rv, items, taken_ref, params),
                ctx.insertion_sequence(rv, taken_opt));
      ASSERT_EQ(taken_ref, taken_opt);
    }
  }
}

// --- Algorithm 3's per-slot cache -------------------------------------------
//
// PlanContext::insertion_sequence keeps each slot's best insertion across
// steps and re-queries only the split slot and the entries whose item was
// taken or priced out. The instances below reach what the random draws above
// rarely do: long sequences under a binding budget, exact profit ties inside
// a slot and across slots, and cached items that stop fitting the budget.

// One slot's best insertion by linear scan: max positive profit, lowest
// index on a tie. `tied` reports a second item with that profit.
struct SlotScan {
  Joule profit{0.0};
  Joule extra{0.0};
  std::size_t item = kInvalidId;
  bool tied = false;
};

SlotScan scan_slot(Vec2 a, Vec2 b, const Instance& inst,
                   const std::vector<bool>& taken, Joule spent) {
  SlotScan best;
  for (std::size_t n = 0; n < inst.items.size(); ++n) {
    if (taken[n]) continue;
    const RechargeItem& it = inst.items[n];
    const Joule extra = inst.params.em * Meter{insertion_detour(a, b, it.pos)} + it.demand;
    if (spent + extra > inst.rv.available) continue;
    const Joule p = insertion_profit(a, b, it, inst.params.em);
    if (p > best.profit) {
      best = {p, extra, n, false};
    } else if (best.item != kInvalidId && p == best.profit) {
      best.tied = true;
    }
  }
  return best;
}

// What an Algorithm 3 run exercised, replayed step by step from full scans
// of every slot (the reference's work), with the slot cache's bookkeeping
// shadowed alongside. The replay checks the cache's exactness claim itself:
// an entry that was neither split, taken nor priced out equals a fresh scan.
struct Replay {
  std::vector<std::size_t> seq;
  std::vector<bool> taken;
  std::size_t steps = 0;         // insertions after the destination
  std::size_t taken_out = 0;     // cached entries whose item was taken
  std::size_t priced_out = 0;    // cached entries whose item no longer fit
  std::size_t tied_in_slot = 0;  // steps whose winner had an equal item
  std::size_t tied_across = 0;   // steps where a later slot matched the winner
  bool cache_exact = true;
};

Replay replay_insertion(const Instance& inst) {
  Replay r;
  r.taken = inst.taken;
  const auto dest = greedy_next(inst.rv, inst.items, r.taken, inst.params);
  if (!dest) return r;
  r.seq.push_back(*dest);
  r.taken[*dest] = true;
  Joule spent = serve_cost(inst.rv.pos, inst.items[*dest], inst.params.em, inst.params.base);
  auto waypoint = [&](std::size_t k) {
    return k == 0 ? inst.rv.pos : inst.items[r.seq[k - 1]].pos;
  };
  std::vector<SlotScan> cached;  // after a step; item kInvalidId + tied = split
  for (;;) {
    std::vector<SlotScan> fresh;
    for (std::size_t k = 0; k < r.seq.size(); ++k) {
      fresh.push_back(scan_slot(waypoint(k), waypoint(k + 1), inst, r.taken, spent));
    }
    for (std::size_t k = 0; k < cached.size(); ++k) {
      const SlotScan& c = cached[k];
      if (c.item == kInvalidId) {
        if (!c.tied && fresh[k].item != kInvalidId) r.cache_exact = false;
        continue;  // an empty slot, or one of the two split halves
      }
      if (r.taken[c.item]) {
        ++r.taken_out;
      } else if (spent + c.extra > inst.rv.available) {
        ++r.priced_out;
      } else if (fresh[k].item != c.item || fresh[k].profit != c.profit) {
        r.cache_exact = false;
      }
    }
    std::size_t pick = kInvalidId;
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      if (fresh[k].item == kInvalidId) continue;
      if (pick == kInvalidId || fresh[k].profit > fresh[pick].profit) pick = k;
    }
    if (pick == kInvalidId) break;
    if (fresh[pick].tied) ++r.tied_in_slot;
    for (std::size_t k = pick + 1; k < fresh.size(); ++k) {
      if (fresh[k].item != kInvalidId && fresh[k].profit == fresh[pick].profit) {
        ++r.tied_across;
        break;
      }
    }
    const std::size_t item = fresh[pick].item;
    spent += fresh[pick].extra;
    r.seq.insert(r.seq.begin() + static_cast<std::ptrdiff_t>(pick), item);
    r.taken[item] = true;
    ++r.steps;
    cached = fresh;
    SlotScan split;
    split.tied = true;
    cached[pick] = split;
    cached.insert(cached.begin() + static_cast<std::ptrdiff_t>(pick) + 1, split);
  }
  return r;
}

// Runs the reference, the grid path and the replay on `inst`; all three
// must agree on the sequence and the taken mask.
Replay check_against_reference(const Instance& inst, const std::string& where) {
  std::vector<bool> taken_ref = inst.taken;
  std::vector<bool> taken_opt = inst.taken;
  const auto ref = insertion_sequence(inst.rv, inst.items, taken_ref, inst.params);
  const PlanContext ctx(inst.items, inst.params);
  const auto opt = ctx.insertion_sequence(inst.rv, taken_opt);
  EXPECT_EQ(ref, opt) << where;
  EXPECT_EQ(taken_ref, taken_opt) << where;
  Replay r = replay_insertion(inst);
  EXPECT_EQ(r.seq, ref) << where;
  EXPECT_EQ(r.taken, taken_ref) << where;
  EXPECT_TRUE(r.cache_exact) << where;
  return r;
}

TEST(PlannerEquivalence, LongSequencesUnderABindingBudgetMatchReference) {
  // Thousands of items and a budget that lasts 50+ insertions: the slot
  // cache lives through many splits and invalidations before it binds.
  Xoshiro256 rng(4242);
  for (const std::size_t n : {1200u, 2500u, 5000u}) {
    Instance inst;
    const double side = 1000.0;
    for (std::size_t i = 0; i < n; ++i) {
      RechargeItem it;
      it.pos = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
      it.demand = Joule{rng.uniform(100.0, 4000.0)};
      it.critical = rng.uniform() < 0.02;
      it.sensors = {i};
      inst.items.push_back(std::move(it));
    }
    inst.params = {JoulePerMeter{5.6}, Vec2{500.0, 500.0}};
    inst.rv = {{rng.uniform(0.0, side), rng.uniform(0.0, side)}, Joule{2.5e5}};
    inst.taken.assign(n, false);
    const Replay r = check_against_reference(inst, "n " + std::to_string(n));
    EXPECT_GT(r.steps, 50u) << "n " << n;
    // The budget, not the supply of profitable insertions, ended the run:
    // some untaken item still has a positive profit in some slot.
    bool profitable_left = false;
    Vec2 a = inst.rv.pos;
    for (const std::size_t stop : r.seq) {
      const Vec2 b = inst.items[stop].pos;
      for (std::size_t i = 0; i < n && !profitable_left; ++i) {
        profitable_left = !r.taken[i] &&
                          insertion_profit(a, b, inst.items[i], inst.params.em).value() > 0.0;
      }
      a = b;
    }
    EXPECT_TRUE(profitable_left) << "n " << n;
  }
}

// Items on a 10 m lattice with a few integer demands, several per lattice
// point: two items at one point tie exactly inside every slot, and an item
// sitting on a waypoint has a zero detour in both slots beside it, which
// ties exactly across slots.
Instance lattice_instance(Xoshiro256& rng) {
  Instance inst;
  const std::size_t n = 16 + rng.uniform_int(300);
  const std::size_t points = 4 + rng.uniform_int(8);  // per side
  auto lattice = [&] {
    return Vec2{10.0 * static_cast<double>(rng.uniform_int(points)),
                10.0 * static_cast<double>(rng.uniform_int(points))};
  };
  for (std::size_t i = 0; i < n; ++i) {
    RechargeItem it;
    it.pos = lattice();
    it.demand = Joule{600.0 * static_cast<double>(1 + rng.uniform_int(3))};
    it.critical = rng.uniform() < 0.1;
    it.sensors = {i};
    inst.items.push_back(std::move(it));
  }
  inst.params = {JoulePerMeter{static_cast<double>(2 + rng.uniform_int(8))}, lattice()};
  inst.rv = {lattice(), Joule{rng.uniform(2e3, 2e5)}};
  inst.taken.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.1) inst.taken[i] = true;
  }
  return inst;
}

TEST(PlannerEquivalence, LatticeTiesMatchReference) {
  Xoshiro256 rng(5151);
  std::size_t in_slot = 0;
  std::size_t across = 0;
  for (int t = 0; t < 120; ++t) {
    const Replay r = check_against_reference(lattice_instance(rng), "trial " + std::to_string(t));
    in_slot += r.tied_in_slot;
    across += r.tied_across;
  }
  // The family must really exercise both tie rules.
  EXPECT_GT(in_slot, 100u);
  EXPECT_GT(across, 100u);
}

TEST(PlannerEquivalence, PricedOutEntriesMatchReference) {
  // Budgets that bind after a few to a few dozen insertions: cached entries
  // whose item was affordable when cached stop fitting as `spent` grows.
  Xoshiro256 rng(6262);
  std::size_t priced_out = 0;
  std::size_t taken_out = 0;
  for (int t = 0; t < 80; ++t) {
    Instance inst = random_instance(rng);
    inst.rv.available = Joule{rng.uniform(5e3, 1.5e5)};
    const Replay r = check_against_reference(inst, "trial " + std::to_string(t));
    priced_out += r.priced_out;
    taken_out += r.taken_out;
  }
  EXPECT_GT(priced_out, 50u);
  EXPECT_GT(taken_out, 50u);
}

TEST(PlannerEquivalence, SlotQueriesCountOnlyWhatChanged) {
  // One fixed instance with a 40+ stop sequence. Re-querying every slot at
  // every step would cost 1 + 2 + ... + (steps + 1) queries; the cache costs
  // the first slot, the two halves of each split and one per invalidation.
  Xoshiro256 rng(7373);
  Instance inst;
  const std::size_t n = 2000;
  for (std::size_t i = 0; i < n; ++i) {
    RechargeItem it;
    it.pos = {rng.uniform(0.0, 800.0), rng.uniform(0.0, 800.0)};
    it.demand = Joule{rng.uniform(100.0, 4000.0)};
    it.sensors = {i};
    inst.items.push_back(std::move(it));
  }
  inst.params = {JoulePerMeter{5.6}, Vec2{400.0, 400.0}};
  inst.rv = {{50.0, 50.0}, Joule{3e5}};
  inst.taken.assign(n, false);

  const Replay r = replay_insertion(inst);
  ASSERT_GE(r.seq.size(), 40u);
  obs::TelemetryRegistry registry;
  std::vector<std::size_t> seq;
  {
    const obs::TelemetryScope install(&registry);
    const PlanContext ctx(inst.items, inst.params);
    std::vector<bool> taken = inst.taken;
    seq = ctx.insertion_sequence(inst.rv, taken);
  }
  EXPECT_EQ(seq, r.seq);
  const std::uint64_t queries = registry.counter("planner/slot-queries").value();
  const std::size_t invalidations = r.taken_out + r.priced_out;
  EXPECT_LT(queries, 3 * r.steps + invalidations);
  const std::size_t full_requery = (r.steps + 1) * (r.steps + 2) / 2;
  EXPECT_LT(queries * 4, full_requery);
}

}  // namespace
