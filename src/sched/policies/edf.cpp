// EDF extension baseline: earliest estimated depletion deadline first.
#include <memory>
#include <vector>

#include "obs/telemetry.hpp"
#include "sched/policies/builtin.hpp"
#include "sched/policy.hpp"

namespace wrsn {
namespace {

class EdfPolicy final : public SchedulerPolicy {
 public:
  DispatchDecision decide(const DispatchContext& ctx) const override {
    WRSN_OBS_SCOPE("planner/edf");
    std::vector<bool> taken(ctx.items().size(), false);
    if (const auto next =
            edf_next(ctx.rv(), ctx.items(), taken, ctx.params())) {
      return DispatchDecision::plan(ctx.items(), {*next});
    }
    return fallback_single_node(ctx);
  }
};

}  // namespace

void register_edf_policy(SchedulerRegistry& registry) {
  registry.add("edf",
               "extension baseline: affordable batch whose lowest member "
               "battery fraction is smallest (earliest deadline)",
               []() -> std::unique_ptr<SchedulerPolicy> {
                 return std::make_unique<EdfPolicy>();
               });
}

}  // namespace wrsn
