#include "sched/plan_context.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/error.hpp"
#include "obs/telemetry.hpp"
#include "sched/profit.hpp"

namespace wrsn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Below this size the linear reference scan wins: the branch-and-bound
// bookkeeping costs more than the handful of distance evaluations it saves.
constexpr std::size_t kSmallN = 16;

// Conservative slack applied to every pruning threshold. Profit-domain
// thresholds get (slack + kAbsSlack) * (1 + kRelSlack) and squared distance
// lower bounds are shaved by kLbShave, so floating-point rounding can only
// keep a cell alive — never discard one holding the item the reference scan
// would pick. The margins dwarf the few-ulp error of the profit expressions
// at the magnitudes the simulator produces (<= ~1e7 J / m).
constexpr double kRelSlack = 1e-9;
constexpr double kAbsSlack = 1e-9;
constexpr double kLbShave = 1.0 - 1e-12;

double field_extent(const std::vector<RechargeItem>& items, Vec2 base) {
  double extent = std::max({1.0, base.x, base.y});
  for (const auto& item : items) {
    extent = std::max({extent, item.pos.x, item.pos.y});
  }
  return extent;
}

// ~sqrt(n) cells per side keeps O(1) expected items per cell at any density.
double cell_size_for(double extent, std::size_t n) {
  const double side = std::ceil(std::sqrt(static_cast<double>(std::max<std::size_t>(n, 1))));
  const int cells = std::clamp(static_cast<int>(side), 1, 256);
  return extent / static_cast<double>(cells);
}

}  // namespace

PlanContext::PlanContext(const std::vector<RechargeItem>& items,
                         const PlannerParams& params)
    : items_(&items),
      params_(params),
      grid_(field_extent(items, params.base),
            cell_size_for(field_extent(items, params.base), items.size())) {
  const std::size_t n = items.size();
  std::vector<Vec2> positions;
  positions.reserve(n);
  base_dist_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back(items[i].pos);
    // Same call the reference's serve_cost makes, so the sum below is
    // bit-identical to its `travel` expression.
    base_dist_.push_back(distance(items[i].pos, params.base));
    if (items[i].critical) critical_.push_back(i);
  }
  grid_.build(positions);

  cell_max_demand_.assign(grid_.num_cells(), -kInf);
  cell_max_demand_noncrit_.assign(grid_.num_cells(), -kInf);
  max_demand_noncrit_ = -kInf;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cell =
        grid_.cell_index(grid_.cell_coord(positions[i].x), grid_.cell_coord(positions[i].y));
    const double d = items[i].demand.value();
    cell_max_demand_[cell] = std::max(cell_max_demand_[cell], d);
    if (!items[i].critical) {
      cell_max_demand_noncrit_[cell] = std::max(cell_max_demand_noncrit_[cell], d);
      max_demand_noncrit_ = std::max(max_demand_noncrit_, d);
    }
  }
}

std::optional<std::size_t> PlanContext::greedy_next(
    const RvPlanState& rv, const std::vector<bool>& taken) const {
  if (size() < kSmallN) {
    return wrsn::greedy_next(rv, *items_, taken, params_);
  }
  WRSN_OBS_SCOPE("planner/ctx_greedy");
  WRSN_REQUIRE(taken.size() == size(), "taken mask size mismatch");
  const auto& items = *items_;
  const double em = params_.em.value();
  auto serve = [&](std::size_t i) {
    return params_.em * Meter{distance(rv.pos, items[i].pos) + base_dist_[i]} +
           items[i].demand;
  };

  // Critical phase: an affordable critical item beats every non-critical
  // one. Ascending scan, strictly-greater profit wins — exact reference tie
  // behaviour (lowest index on equal profit).
  {
    std::optional<std::size_t> best;
    Joule best_profit{-kInf};
    for (std::size_t i : critical_) {
      if (taken[i]) continue;
      if (serve(i) > rv.available) continue;
      const Joule p = recharge_profit(rv.pos, items[i], params_.em);
      if (!best || p > best_profit) {
        best = i;
        best_profit = p;
      }
    }
    if (best) return best;
  }

  // Non-critical phase: ring-expanding branch-and-bound. A cell can only
  // supply profit <= cell_max_demand - em * dist_lower_bound.
  std::size_t best_i = kInvalidId;
  Joule best_profit{-kInf};
  bool have = false;
  const int qx = grid_.cell_coord(rv.pos.x);
  const int qy = grid_.cell_coord(rv.pos.y);
  const int cps = grid_.cells_per_side();

  auto visit_cell = [&](int cx, int cy) {
    if (cx < 0 || cx >= cps || cy < 0 || cy >= cps) return;
    const std::size_t cell = grid_.cell_index(cx, cy);
    const double cellmax = cell_max_demand_noncrit_[cell];
    if (cellmax == -kInf) return;  // empty, or critical items only
    if (have) {
      const double slack = cellmax - best_profit.value();
      // Profit never exceeds the demand (the traction term is >= 0), so a
      // cell whose best demand trails the incumbent is out regardless of
      // position; otherwise prune on the distance the slack still affords.
      if (slack < 0.0) return;
      const double thr = (slack + kAbsSlack) * (1.0 + kRelSlack) / em;
      if (grid_.cell_distance_lower_bound_sq(rv.pos, cx, cy) * kLbShave > thr * thr) {
        return;
      }
    }
    grid_.for_each_in_cell(cx, cy, [&](std::size_t i) {
      if (items[i].critical || taken[i]) return;
      if (serve(i) > rv.available) return;
      const Joule p = recharge_profit(rv.pos, items[i], params_.em);
      // Ring order is not index order: on an exact tie, take the lower
      // index, which is what the reference's ascending strict-> scan keeps.
      if (!have || p > best_profit || (p == best_profit && i < best_i)) {
        have = true;
        best_profit = p;
        best_i = i;
      }
    });
  };

  for (int ring = 0; ring < cps; ++ring) {
    if (ring > 0 && have) {
      // Every cell from this ring outward sits at distance
      // > (ring - 1) * cell_size; stop once even the global best demand
      // cannot beat the incumbent from there.
      const double ring_lb = static_cast<double>(ring - 1) * grid_.cell_size() * kLbShave;
      const double slack = max_demand_noncrit_ - best_profit.value();
      const double thr = (slack + kAbsSlack) * (1.0 + kRelSlack) / em;
      if (ring_lb > thr) break;
    }
    if (ring == 0) {
      visit_cell(qx, qy);
      continue;
    }
    for (int cx = qx - ring; cx <= qx + ring; ++cx) {
      visit_cell(cx, qy - ring);
      visit_cell(cx, qy + ring);
    }
    for (int cy = qy - ring + 1; cy <= qy + ring - 1; ++cy) {
      visit_cell(qx - ring, cy);
      visit_cell(qx + ring, cy);
    }
  }
  if (!have) return std::nullopt;
  return best_i;
}

PlanContext::SlotBest PlanContext::best_insertion_in_slot(
    Vec2 a, Vec2 b, Joule spent, Joule available, const std::vector<bool>& taken,
    Joule max_untaken_demand) const {
  const auto& items = *items_;
  const double em = params_.em.value();
  // Only a positive profit is an insertion (the reference's incumbent
  // starts at zero and needs strictly more).
  SlotBest best;

  // The detour is never negative, so no insertion beats the incumbent once
  // even the largest untaken demand trails it.
  const double max_demand = max_untaken_demand.value();
  if (max_demand + std::abs(max_demand) * kRelSlack + kAbsSlack <
      best.profit.value()) {
    return best;
  }

  // Median length inequality: d(a,p) + d(p,b) >= 2 * d(mid,p), hence
  // detour(a,b,p) >= 2 * d(mid,p) - d(a,b) and
  // profit(p) <= demand(p) + em * d(a,b) - 2 * em * d(mid,p).
  // Rings therefore expand around the slot midpoint.
  const double d_ab = distance(a, b);
  const Vec2 mid{(a.x + b.x) * 0.5, (a.y + b.y) * 0.5};
  const int qx = grid_.cell_coord(mid.x);
  const int qy = grid_.cell_coord(mid.y);
  const int cps = grid_.cells_per_side();

  auto visit_cell = [&](int cx, int cy) {
    if (cx < 0 || cx >= cps || cy < 0 || cy >= cps) return;
    const std::size_t cell = grid_.cell_index(cx, cy);
    const double cellmax = cell_max_demand_[cell];
    if (cellmax == -kInf) return;
    if (cellmax + std::abs(cellmax) * kRelSlack + kAbsSlack < best.profit.value()) {
      return;
    }
    const double slack = cellmax - best.profit.value() + em * d_ab;
    if (slack < 0.0) return;
    const double thr = (slack + kAbsSlack) * (1.0 + kRelSlack) / (2.0 * em);
    if (grid_.cell_distance_lower_bound_sq(mid, cx, cy) * kLbShave > thr * thr) {
      return;
    }
    grid_.for_each_in_cell(cx, cy, [&](std::size_t n) {
      if (taken[n]) return;
      const Joule extra =
          params_.em * Meter{insertion_detour(a, b, items[n].pos)} + items[n].demand;
      if (spent + extra > available) return;
      const Joule p = insertion_profit(a, b, items[n], params_.em);
      // Strictly-greater profit wins; ring order is not index order, so an
      // equal profit wins at a lower item index (the reference's ascending
      // scan keeps the first).
      if (p > best.profit ||
          (p == best.profit && best.item != kInvalidId && n < best.item)) {
        best = {p, extra, n};
      }
    });
  };

  for (int ring = 0; ring < cps; ++ring) {
    if (ring > 0) {
      const double ring_lb = static_cast<double>(ring - 1) * grid_.cell_size() * kLbShave;
      const double slack = max_demand - best.profit.value() + em * d_ab;
      if (slack < 0.0) break;
      const double thr = (slack + kAbsSlack) * (1.0 + kRelSlack) / (2.0 * em);
      if (ring_lb > thr) break;
    }
    if (ring == 0) {
      visit_cell(qx, qy);
      continue;
    }
    for (int cx = qx - ring; cx <= qx + ring; ++cx) {
      visit_cell(cx, qy - ring);
      visit_cell(cx, qy + ring);
    }
    for (int cy = qy - ring + 1; cy <= qy + ring - 1; ++cy) {
      visit_cell(qx - ring, cy);
      visit_cell(qx + ring, cy);
    }
  }
  return best;
}

std::vector<std::size_t> PlanContext::insertion_sequence(
    const RvPlanState& rv, std::vector<bool>& taken) const {
  if (size() < kSmallN) {
    return wrsn::insertion_sequence(rv, *items_, taken, params_);
  }
  WRSN_OBS_SCOPE("planner/ctx_insertion");
  WRSN_REQUIRE(taken.size() == size(), "taken mask size mismatch");
  const auto& items = *items_;

  std::vector<std::size_t> seq;
  const auto dest = greedy_next(rv, taken);
  if (!dest) return seq;
  seq.push_back(*dest);
  taken[*dest] = true;
  Joule spent = params_.em * Meter{distance(rv.pos, items[*dest].pos) +
                                   base_dist_[*dest]} +
                items[*dest].demand;

  // Largest untaken demand, the global bound for slot skips and ring stops,
  // and an item holding it: the bound only falls when that item is taken.
  double max_untaken = -kInf;
  std::size_t max_holder = kInvalidId;
  auto rescan_max_untaken = [&] {
    max_untaken = -kInf;
    max_holder = kInvalidId;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!taken[i] && items[i].demand.value() > max_untaken) {
        max_untaken = items[i].demand.value();
        max_holder = i;
      }
    }
  };
  rescan_max_untaken();

  auto waypoint = [&](std::size_t k) -> Vec2 {
    return k == 0 ? rv.pos : items[seq[k - 1]].pos;
  };
  std::uint64_t queries = 0;
  auto query = [&](std::size_t slot) {
    ++queries;
    return best_insertion_in_slot(waypoint(slot), waypoint(slot + 1), spent,
                                  rv.available, taken, Joule{max_untaken});
  };

  // best[k]: slot k's exact best insertion (see the header).
  std::vector<SlotBest> best;
  if (max_untaken != -kInf) best.push_back(query(0));
  for (;;) {
    // Slot-major with strictly-greater profit: the lowest slot wins a tie,
    // exactly as the reference's scan keeps its first maximum.
    std::size_t pick = kInvalidId;
    for (std::size_t k = 0; k < best.size(); ++k) {
      if (best[k].item == kInvalidId) continue;
      if (pick == kInvalidId || best[k].profit > best[pick].profit) pick = k;
    }
    if (pick == kInvalidId) break;
    const std::size_t item = best[pick].item;
    WRSN_ASSERT(!taken[item], "slot cache kept a taken item");
    spent += best[pick].extra;
    seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(pick), item);
    taken[item] = true;
    if (item == max_holder) rescan_max_untaken();
    if (max_untaken == -kInf) break;

    // The picked slot splits in two; both halves are new slots.
    best[pick] = query(pick);
    best.insert(best.begin() + static_cast<std::ptrdiff_t>(pick) + 1, query(pick + 1));
    // Every other slot's feasible set only shrank, so its entry stays exact
    // unless its item left that set.
    for (std::size_t k = 0; k < best.size(); ++k) {
      if (k == pick || k == pick + 1 || best[k].item == kInvalidId) continue;
      if (taken[best[k].item] || spent + best[k].extra > rv.available) {
        best[k] = query(k);
      }
    }
  }
  if (auto* registry = obs::current_registry()) {
    registry->counter("planner/slot-queries").add(queries);
  }
  return seq;
}

}  // namespace wrsn
