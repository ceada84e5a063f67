#include "sched/policy.hpp"

#include "core/error.hpp"
#include "sched/policies/builtin.hpp"

namespace wrsn {

std::vector<RechargeItem> DispatchContext::singles(
    const std::vector<RechargeItem>& from, SinglesCritical mode) const {
  std::vector<RechargeItem> out;
  for (const RechargeItem& item : from) {
    for (SensorId s : item.sensors) {
      const SensorView v = view_(s);
      RechargeItem one;
      one.pos = v.pos;
      one.demand = v.demand;
      one.critical =
          mode == SinglesCritical::kFresh ? v.critical : item.critical;
      one.sensors = {s};
      out.push_back(std::move(one));
    }
  }
  return out;
}

DispatchDecision DispatchDecision::plan(const std::vector<RechargeItem>& over,
                                        const std::vector<std::size_t>& seq) {
  DispatchDecision d;
  d.kind = Kind::kPlan;
  d.items.reserve(seq.size());
  d.sequence.reserve(seq.size());
  for (const std::size_t i : seq) {
    WRSN_ASSERT(i < over.size(), "plan sequence index out of range");
    d.sequence.push_back(d.items.size());
    d.items.push_back(over[i]);
  }
  return d;
}

DispatchDecision fallback_single_node(const DispatchContext& ctx) {
  // Aggregated batches may exceed what this RV can afford in one tour;
  // fall back to the single most profitable raw request.
  std::vector<RechargeItem> singles =
      ctx.singles(ctx.items(), DispatchContext::SinglesCritical::kInherit);
  std::vector<bool> taken(singles.size(), false);
  if (const auto next = greedy_next(ctx.rv(), singles, taken, ctx.params())) {
    return DispatchDecision::plan(singles, {*next});
  }
  // Nothing affordable: top up at base, or come home.
  return DispatchDecision::self_charge();
}

template <>
SchedulerRegistry& SchedulerRegistry::instance() {
  static SchedulerRegistry* registry = [] {
    auto* r = new SchedulerRegistry("scheduler");
    // Paper schemes first, then the library's ablation baselines — the
    // order names() reports and the docs table uses.
    register_greedy_policy(*r);
    register_partition_policy(*r);
    register_combined_policy(*r);
    register_nearest_first_policy(*r);
    register_fcfs_policy(*r);
    register_edf_policy(*r);
    return r;
  }();
  return *registry;
}

std::vector<std::string> scheduler_names() {
  return SchedulerRegistry::instance().names();
}

}  // namespace wrsn
