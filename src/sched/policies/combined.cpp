// Combined-Scheme (Section IV-D-2): Algorithm 3 over the global item list.
#include <memory>
#include <vector>

#include "sched/plan_context.hpp"
#include "sched/policies/builtin.hpp"
#include "sched/policy.hpp"

namespace wrsn {
namespace {

class CombinedPolicy final : public SchedulerPolicy {
 public:
  DispatchDecision decide(const DispatchContext& ctx) const override {
    // Grid-pruned hot path (bit-identical to the reference scan).
    const PlanContext plan(ctx.items(), ctx.params());
    std::vector<bool> taken(ctx.items().size(), false);
    const std::vector<std::size_t> seq = plan.insertion_sequence(ctx.rv(), taken);
    if (seq.empty()) return fallback_single_node(ctx);
    return DispatchDecision::plan(ctx.items(), seq);
  }
};

}  // namespace

void register_combined_policy(SchedulerRegistry& registry) {
  registry.add("combined",
               "Combined-Scheme (Section IV-D-2): Algorithm 3 insertion "
               "sequence over the global recharge list",
               []() -> std::unique_ptr<SchedulerPolicy> {
                 return std::make_unique<CombinedPolicy>();
               });
}

}  // namespace wrsn
