#include "sched/planner.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"
#include "obs/telemetry.hpp"
#include "sched/kmeans.hpp"
#include "sched/profit.hpp"

namespace wrsn {

namespace {

// Energy needed to drive to the item, fill it, and still make it home.
Joule serve_cost(Vec2 from, const RechargeItem& item, const PlannerParams& params) {
  return serve_cost(from, item, params.em, params.base);
}

}  // namespace

std::optional<std::size_t> greedy_next(const RvPlanState& rv,
                                       const std::vector<RechargeItem>& items,
                                       const std::vector<bool>& taken,
                                       const PlannerParams& params) {
  WRSN_OBS_SCOPE("planner/greedy");
  WRSN_REQUIRE(taken.size() == items.size(), "taken mask size mismatch");
  std::optional<std::size_t> best;
  Joule best_profit{-std::numeric_limits<double>::infinity()};
  bool best_critical = false;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (taken[i]) continue;
    if (serve_cost(rv.pos, items[i], params) > rv.available) continue;
    const Joule p = recharge_profit(rv.pos, items[i], params.em);
    // Critical items dominate non-critical ones regardless of profit.
    if (items[i].critical != best_critical) {
      if (items[i].critical) {
        best = i;
        best_profit = p;
        best_critical = true;
      }
      continue;
    }
    if (p > best_profit) {
      best = i;
      best_profit = p;
    }
  }
  return best;
}

std::optional<std::size_t> nearest_next(const RvPlanState& rv,
                                        const std::vector<RechargeItem>& items,
                                        const std::vector<bool>& taken,
                                        const PlannerParams& params) {
  WRSN_REQUIRE(taken.size() == items.size(), "taken mask size mismatch");
  std::optional<std::size_t> best;
  double best_d2 = std::numeric_limits<double>::infinity();
  bool best_critical = false;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (taken[i]) continue;
    if (serve_cost(rv.pos, items[i], params) > rv.available) continue;
    const double d2 = squared_distance(rv.pos, items[i].pos);
    if (items[i].critical != best_critical) {
      if (items[i].critical) {
        best = i;
        best_d2 = d2;
        best_critical = true;
      }
      continue;
    }
    if (d2 < best_d2) {
      best = i;
      best_d2 = d2;
    }
  }
  return best;
}

std::optional<std::size_t> edf_next(const RvPlanState& rv,
                                    const std::vector<RechargeItem>& items,
                                    const std::vector<bool>& taken,
                                    const PlannerParams& params) {
  WRSN_REQUIRE(taken.size() == items.size(), "taken mask size mismatch");
  std::optional<std::size_t> best;
  double best_fraction = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (taken[i]) continue;
    if (serve_cost(rv.pos, items[i], params) > rv.available) continue;
    if (items[i].min_fraction < best_fraction) {
      best = i;
      best_fraction = items[i].min_fraction;
    }
  }
  return best;
}

std::vector<std::size_t> insertion_sequence(const RvPlanState& rv,
                                            const std::vector<RechargeItem>& items,
                                            std::vector<bool>& taken,
                                            const PlannerParams& params) {
  WRSN_OBS_SCOPE("planner/insertion");
  WRSN_REQUIRE(taken.size() == items.size(), "taken mask size mismatch");

  std::vector<std::size_t> seq;
  const auto dest = greedy_next(rv, items, taken, params);
  if (!dest) return seq;
  seq.push_back(*dest);
  taken[*dest] = true;
  Joule spent = params.em * Meter{distance(rv.pos, items[*dest].pos) +
                                  distance(items[*dest].pos, params.base)} +
                items[*dest].demand;

  // Waypoint positions of the current sequence, prefixed by the RV location;
  // insertions go between consecutive waypoints (crt ... dest), never after
  // dest — dest stays the final stop, so the base-return leg is fixed.
  auto waypoint = [&](std::size_t k) -> Vec2 {
    return k == 0 ? rv.pos : items[seq[k - 1]].pos;
  };

  for (;;) {
    Joule best_profit{0.0};
    std::size_t best_item = kInvalidId;
    std::size_t best_slot = 0;
    for (std::size_t slot = 0; slot + 1 <= seq.size(); ++slot) {
      const Vec2 a = waypoint(slot);
      const Vec2 b = waypoint(slot + 1);
      for (std::size_t n = 0; n < items.size(); ++n) {
        if (taken[n]) continue;
        const Joule extra =
            params.em * Meter{insertion_detour(a, b, items[n].pos)} + items[n].demand;
        if (spent + extra > rv.available) continue;
        const Joule p = insertion_profit(a, b, items[n], params.em);
        if (p > best_profit) {
          best_profit = p;
          best_item = n;
          best_slot = slot;
        }
      }
    }
    if (best_item == kInvalidId) break;
    const Vec2 a = waypoint(best_slot);
    const Vec2 b = waypoint(best_slot + 1);
    spent += params.em * Meter{insertion_detour(a, b, items[best_item].pos)} +
             items[best_item].demand;
    seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(best_slot), best_item);
    taken[best_item] = true;
  }
  return seq;
}

std::vector<std::vector<std::size_t>> partition_items(
    const std::vector<RechargeItem>& items, std::size_t num_groups, Xoshiro256& rng) {
  WRSN_OBS_SCOPE("planner/partition");
  WRSN_REQUIRE(num_groups > 0, "need at least one group");
  std::vector<Vec2> positions;
  positions.reserve(items.size());
  for (const auto& item : items) positions.push_back(item.pos);

  const std::size_t k = std::min(num_groups, items.size());
  std::vector<std::vector<std::size_t>> groups(num_groups);
  if (items.empty()) return groups;

  const KMeansResult km = kmeans(positions, k, rng);
  for (std::size_t i = 0; i < items.size(); ++i) {
    groups[km.assignment[i]].push_back(i);
  }
  return groups;
}

std::vector<std::size_t> match_groups_to_rvs(const std::vector<Vec2>& group_centroids,
                                             const std::vector<Vec2>& rv_positions) {
  WRSN_OBS_SCOPE("sched/match_groups");
  WRSN_REQUIRE(group_centroids.size() <= rv_positions.size(),
               "more groups than RVs");
  const std::size_t g = group_centroids.size();
  std::vector<std::size_t> rv_of_group(g, kInvalidId);
  std::vector<bool> rv_used(rv_positions.size(), false);
  // Repeatedly bind the globally closest (group, rv) pair.
  for (std::size_t round = 0; round < g; ++round) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bg = kInvalidId, br = kInvalidId;
    for (std::size_t gi = 0; gi < g; ++gi) {
      if (rv_of_group[gi] != kInvalidId) continue;
      for (std::size_t r = 0; r < rv_positions.size(); ++r) {
        if (rv_used[r]) continue;
        const double d = squared_distance(group_centroids[gi], rv_positions[r]);
        if (d < best) {
          best = d;
          bg = gi;
          br = r;
        }
      }
    }
    WRSN_ASSERT(bg != kInvalidId && br != kInvalidId, "matching ran out of pairs");
    rv_of_group[bg] = br;
    rv_used[br] = true;
  }
  return rv_of_group;
}

std::vector<std::vector<std::size_t>> combined_plan(
    const std::vector<RvPlanState>& rvs, const std::vector<RechargeItem>& items,
    const PlannerParams& params) {
  WRSN_OBS_SCOPE("planner/combined");
  std::vector<bool> taken(items.size(), false);
  std::vector<std::vector<std::size_t>> sequences;
  sequences.reserve(rvs.size());
  for (const RvPlanState& rv : rvs) {
    sequences.push_back(insertion_sequence(rv, items, taken, params));
  }
  return sequences;
}

double sequence_length(Vec2 start, const std::vector<RechargeItem>& items,
                       const std::vector<std::size_t>& seq,
                       std::optional<Vec2> return_to) {
  double len = 0.0;
  Vec2 cur = start;
  for (std::size_t idx : seq) {
    WRSN_REQUIRE(idx < items.size(), "sequence index out of range");
    len += distance(cur, items[idx].pos);
    cur = items[idx].pos;
  }
  if (return_to) len += distance(cur, *return_to);
  return len;
}

Joule sequence_profit(Vec2 start, const std::vector<RechargeItem>& items,
                      const std::vector<std::size_t>& seq, JoulePerMeter em) {
  Joule demand{0.0};
  for (std::size_t idx : seq) demand += items[idx].demand;
  return demand - em * Meter{sequence_length(start, items, seq)};
}

}  // namespace wrsn
