// Greedy-Scheme (Algorithm 2): the paper's baseline scheduler.
#include <memory>
#include <vector>

#include "sched/policies/builtin.hpp"
#include "sched/policy.hpp"

namespace wrsn {
namespace {

class GreedyPolicy final : public SchedulerPolicy {
 public:
  DispatchDecision decide(const DispatchContext& ctx) const override {
    // The baseline of Algorithm 2 predates the cluster aggregation of
    // Section IV-C: it scores raw nodes and drives to one node at a time,
    // which is exactly the inefficiency the paper calls out.
    std::vector<RechargeItem> singles =
        ctx.singles(ctx.items(), DispatchContext::SinglesCritical::kFresh);
    std::vector<bool> taken(singles.size(), false);
    if (const auto next =
            greedy_next(ctx.rv(), singles, taken, ctx.params())) {
      return DispatchDecision::plan(singles, {*next});
    }
    return DispatchDecision::self_charge();
  }
};

}  // namespace

void register_greedy_policy(SchedulerRegistry& registry) {
  registry.add("greedy",
               "Algorithm 2 baseline: max recharge profit per step over raw "
               "nodes, one destination at a time",
               []() -> std::unique_ptr<SchedulerPolicy> {
                 return std::make_unique<GreedyPolicy>();
               });
}

}  // namespace wrsn
