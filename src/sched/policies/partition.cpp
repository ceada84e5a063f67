// Partition-Scheme (Section IV-D-1): K-means groups matched to RVs,
// Algorithm 3 within this RV's group.
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sched/plan_context.hpp"
#include "sched/policies/builtin.hpp"
#include "sched/policy.hpp"

namespace wrsn {
namespace {

bool same_bits(Vec2 a, Vec2 b) {
  return std::bit_cast<std::uint64_t>(a.x) == std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

class PartitionPolicy final : public SchedulerPolicy {
 public:
  DispatchDecision decide(const DispatchContext& ctx) const override {
    const std::vector<RechargeItem>& items = ctx.items();
    if (!grouping_.reusable_for(ctx)) grouping_.compute(ctx);
    const std::vector<std::size_t>* best_group = nullptr;
    for (std::size_t g = 0; g < grouping_.live.size(); ++g) {
      if (grouping_.rv_of_live[g] == ctx.rv_id()) {
        best_group = &grouping_.groups[grouping_.live[g]];
        break;
      }
    }
    if (best_group == nullptr) {
      // No group in this RV's designated area: it stays put rather than
      // poaching another region — the confinement the scheme is about.
      return DispatchDecision::return_to_base();
    }
    std::vector<RechargeItem> group_items;
    group_items.reserve(best_group->size());
    for (std::size_t i : *best_group) group_items.push_back(items[i]);
    std::vector<bool> group_taken(group_items.size(), false);
    const PlanContext group_ctx(group_items, ctx.params());
    const auto group_seq = group_ctx.insertion_sequence(ctx.rv(), group_taken);
    if (group_seq.empty()) {
      // Unaffordable as aggregates: serve the best raw node within the
      // group, or refill first.
      std::vector<RechargeItem> singles =
          ctx.singles(group_items, DispatchContext::SinglesCritical::kFresh);
      std::vector<bool> staken(singles.size(), false);
      if (const auto next =
              greedy_next(ctx.rv(), singles, staken, ctx.params())) {
        return DispatchDecision::plan(singles, {*next});
      }
      return DispatchDecision::self_charge();
    }
    return DispatchDecision::plan(group_items, group_seq);
  }

 private:
  // The last grouping of the item list and its group-to-RV matching. Every
  // idle RV of a dispatch round asks for the same grouping, so it is kept
  // and reused while its inputs stay the same — but only when computing it
  // drew nothing from sched_rng (no more items than groups: K-means returns
  // the identity assignment). Then the grouping is a pure function of the
  // group count, the item positions and the fleet positions, and reuse
  // decides exactly what a recomputation would. With more items than groups
  // K-means draws, so it runs on every decision and the RNG stream matches
  // a fresh policy's.
  struct Grouping {
    std::vector<std::vector<std::size_t>> groups;  // item indices per group
    std::vector<std::size_t> live;        // indices of the non-empty groups
    std::vector<std::size_t> rv_of_live;  // matched RV per live group

    // Memo key, set only for a draw-free grouping.
    bool reusable = false;
    std::size_t num_groups = 0;
    std::vector<Vec2> item_pos;
    std::vector<Vec2> fleet;

    // Bit-for-bit key comparison, so a reuse returns exactly what the
    // computation would.
    [[nodiscard]] bool reusable_for(const DispatchContext& ctx) const {
      const std::vector<RechargeItem>& items = ctx.items();
      const std::vector<Vec2>& fleet_now = ctx.fleet_positions();
      if (!reusable || num_groups != ctx.num_groups() ||
          item_pos.size() != items.size() || fleet.size() != fleet_now.size()) {
        return false;
      }
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (!same_bits(item_pos[i], items[i].pos)) return false;
      }
      for (std::size_t r = 0; r < fleet.size(); ++r) {
        if (!same_bits(fleet[r], fleet_now[r])) return false;
      }
      return true;
    }

    // K-means over the full list into m groups (Section IV-D-1). Groups are
    // matched to ALL RVs (busy ones included) so each vehicle keeps a
    // stable geographic responsibility; an RV plans only within the group
    // matched to it.
    void compute(const DispatchContext& ctx) {
      const std::vector<RechargeItem>& items = ctx.items();
      reusable = false;  // stays false if partitioning or matching throws
      groups = partition_items(items, ctx.num_groups(), ctx.sched_rng());
      std::vector<Vec2> centroids;
      live.clear();
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].empty()) continue;
        Vec2 centroid{};
        for (std::size_t i : groups[g]) centroid += items[i].pos;
        centroids.push_back(centroid / static_cast<double>(groups[g].size()));
        live.push_back(g);
      }
      rv_of_live.clear();
      if (!live.empty()) {
        rv_of_live = match_groups_to_rvs(centroids, ctx.fleet_positions());
      }
      if (items.size() > ctx.num_groups()) return;  // K-means drew
      reusable = true;
      num_groups = ctx.num_groups();
      item_pos.clear();
      for (const RechargeItem& item : items) item_pos.push_back(item.pos);
      fleet = ctx.fleet_positions();
    }
  };

  // Never serialized: a restored World starts empty and recomputes the
  // same grouping bit for bit.
  mutable Grouping grouping_;
};

}  // namespace

void register_partition_policy(SchedulerRegistry& registry) {
  registry.add("partition",
               "Partition-Scheme (Section IV-D-1): K-means groups matched "
               "to RVs, Algorithm 3 within this RV's group",
               []() -> std::unique_ptr<SchedulerPolicy> {
                 return std::make_unique<PartitionPolicy>();
               });
}

}  // namespace wrsn
