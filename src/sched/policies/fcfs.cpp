// FCFS extension baseline: serve batches in request-arrival order.
#include <algorithm>
#include <memory>
#include <vector>

#include "obs/telemetry.hpp"
#include "sched/policies/builtin.hpp"
#include "sched/policy.hpp"

namespace wrsn {
namespace {

class FcfsPolicy final : public SchedulerPolicy {
 public:
  DispatchDecision decide(const DispatchContext& ctx) const override {
    WRSN_OBS_SCOPE("planner/fcfs");
    // The oldest unclaimed request decides which batch goes next (the
    // arrival order preserves the recharge node list's FIFO contract). A
    // batch whose tour cost exceeds the RV's budget is skipped in favour of
    // the next-oldest affordable one — an oversized head batch must not
    // starve the rest of the queue.
    const std::vector<RechargeItem>& items = ctx.items();
    std::vector<bool> considered(items.size(), false);
    for (const SensorId oldest : ctx.arrival_order()) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        const auto& sensors = items[i].sensors;
        if (std::find(sensors.begin(), sensors.end(), oldest) ==
            sensors.end()) {
          continue;
        }
        if (!considered[i]) {
          considered[i] = true;
          const Joule need =
              ctx.params().em *
                  Meter{distance(ctx.rv().pos, items[i].pos) +
                        distance(items[i].pos, ctx.params().base)} +
              items[i].demand;
          if (need <= ctx.rv().available) {
            return DispatchDecision::plan(items, {i});
          }
        }
        break;  // batch located (and already weighed); next-oldest request
      }
    }
    return fallback_single_node(ctx);
  }
};

}  // namespace

void register_fcfs_policy(SchedulerRegistry& registry) {
  registry.add("fcfs",
               "extension baseline: oldest affordable batch in "
               "request-arrival order",
               []() -> std::unique_ptr<SchedulerPolicy> {
                 return std::make_unique<FcfsPolicy>();
               });
}

}  // namespace wrsn
