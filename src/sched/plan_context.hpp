#pragma once
// PlanContext — spatial acceleration for Algorithms 2 and 3 (hot path).
//
// It serves Algorithm 3's insertion sequence (Combined over the global
// item list, Partition per group) and the greedy destination pick that
// seeds it, whose item lists reach tens of thousands at scale. Nearest-first
// and EDF call the linear scans of sched/planner.hpp directly.
//
// Per planning round the context precomputes, once over the item list:
//   * a SpatialGrid over item positions,
//   * each item's return-leg length to base (the second sqrt of the
//     affordability check, hoisted out of every query),
//   * per-cell maximum demands (branch-and-bound upper bounds),
//   * the list of critical items (destination selection scans these first,
//     per Section III-C they dominate regardless of profit).
//
// Queries then run as ring-expanding branch-and-bound over grid cells: a
// cell is pruned when its best possible profit
//     max_demand(cell) - e_m * dist_lower_bound(cell)
// cannot beat the incumbent, and the ring expansion stops when even the
// global maximum demand at the ring's distance lower bound cannot. All
// bounds are shaved by a relative epsilon so floating-point rounding can
// only make pruning more conservative, never unsound: every query returns
// the bit-identical result of the corresponding linear-scan reference in
// sched/planner.hpp (ties included — lowest index wins, exactly like an
// ascending reference scan with strict comparisons). Rounds below kSmallN
// (16) items run the reference scans directly;
// tests/test_planner_equivalence.cpp calls the references itself to pin the
// grid paths against them.
//
// Algorithm 3 keeps one cached entry per slot of the growing route: the
// slot's best insertion (the affordable untaken item of maximum positive
// profit, lowest index on a tie) or none. Each step picks the best entry in
// slot order with a strict `>`, which is the reference's slot-major tie
// rule. After an insertion only the two halves of the split slot are
// queried afresh; any other entry is re-queried only when its item was just
// taken or no longer fits the budget (spent + extra > available). That is
// exact because an unchanged slot's profits are fixed and its feasible set
// only shrinks (one more item taken, a larger `spent`): a best item still in
// the set is still the best, ties included, and an empty slot stays empty.
// The largest untaken demand, a pruning bound only, is rescanned only when
// the item holding it is taken. Every slot query adds one to the telemetry
// counter `planner/slot-queries`.

#include <optional>
#include <vector>

#include "geom/grid.hpp"
#include "sched/planner.hpp"
#include "sched/request.hpp"

namespace wrsn {

class PlanContext {
 public:
  // `items` and `params` must outlive the context; the item list must not
  // change while the context is in use (the `taken` mask may).
  PlanContext(const std::vector<RechargeItem>& items, const PlannerParams& params);

  [[nodiscard]] const std::vector<RechargeItem>& items() const { return *items_; }
  [[nodiscard]] const PlannerParams& params() const { return params_; }
  [[nodiscard]] std::size_t size() const { return items_->size(); }
  // Precomputed distance(items[i].pos, params.base).
  [[nodiscard]] double base_distance(std::size_t i) const { return base_dist_[i]; }

  // Algorithm 2 destination selection; bit-identical to wrsn::greedy_next.
  [[nodiscard]] std::optional<std::size_t> greedy_next(
      const RvPlanState& rv, const std::vector<bool>& taken) const;

  // Algorithm 3 with grid-pruned insertion scans; bit-identical to
  // wrsn::insertion_sequence.
  [[nodiscard]] std::vector<std::size_t> insertion_sequence(
      const RvPlanState& rv, std::vector<bool>& taken) const;

 private:
  // One slot's best insertion: the affordable untaken item of maximum
  // positive profit, lowest index on a tie; item == kInvalidId when none.
  // `extra` is its energy cost (detour traction + demand), kept so a later
  // budget check needs no recomputation.
  struct SlotBest {
    Joule profit{0.0};
    Joule extra{0.0};
    std::size_t item = kInvalidId;
  };

  // Fresh best insertion of any untaken item between waypoints a and b,
  // given the running budget. `max_untaken_demand` must bound every untaken
  // demand from above (it only prunes).
  [[nodiscard]] SlotBest best_insertion_in_slot(Vec2 a, Vec2 b, Joule spent,
                                                Joule available,
                                                const std::vector<bool>& taken,
                                                Joule max_untaken_demand) const;

  const std::vector<RechargeItem>* items_;
  PlannerParams params_;
  SpatialGrid grid_;
  std::vector<double> base_dist_;        // item -> distance to base
  std::vector<std::size_t> critical_;    // critical item indices, ascending
  std::vector<double> cell_max_demand_;  // over all items in the cell
  std::vector<double> cell_max_demand_noncrit_;
  double max_demand_noncrit_ = 0.0;      // global bound for ring stops
};

}  // namespace wrsn
