// Nearest-first extension baseline: always serve the closest batch.
#include <memory>
#include <vector>

#include "obs/telemetry.hpp"
#include "sched/planner.hpp"
#include "sched/policies/builtin.hpp"
#include "sched/policy.hpp"

namespace wrsn {
namespace {

class NearestFirstPolicy final : public SchedulerPolicy {
 public:
  DispatchDecision decide(const DispatchContext& ctx) const override {
    WRSN_OBS_SCOPE("planner/nearest-first");
    std::vector<bool> taken(ctx.items().size(), false);
    if (const auto next = nearest_next(ctx.rv(), ctx.items(), taken, ctx.params())) {
      return DispatchDecision::plan(ctx.items(), {*next});
    }
    return fallback_single_node(ctx);
  }
};

}  // namespace

void register_nearest_first_policy(SchedulerRegistry& registry) {
  registry.add("nearest-first",
               "extension baseline: geographically nearest affordable batch "
               "(critical clusters first), ignoring demand",
               []() -> std::unique_ptr<SchedulerPolicy> {
                 return std::make_unique<NearestFirstPolicy>();
               });
}

}  // namespace wrsn
