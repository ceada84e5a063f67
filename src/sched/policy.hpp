#pragma once
// Pluggable scheduler-policy layer: every recharge-scheduling scheme is a
// strategy object behind the SchedulerPolicy interface, selected by name
// through the string-keyed SchedulerRegistry.
//
// A policy sees one idle RV's planning round through the narrow
// DispatchContext facade (aggregated unclaimed items, the RV's plan state,
// planner params, fleet positions, the scheduling RNG and the
// request-arrival order) and answers with a DispatchDecision: a visiting
// sequence over an item list, return-to-base, self-charge, or hold. The
// World owns the shared fallback mechanics (claiming, tour construction,
// the actual return/self-charge transitions); policies never touch World
// internals.
//
// Adding a scheme requires only a new file in src/sched/policies/ plus one
// registration line in register_builtin_policies (sched/policy.cpp) — no
// World, config or CLI edits. External code may also call
// SchedulerRegistry::instance().add(...) before constructing a World.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "geom/vec2.hpp"
#include "net/ids.hpp"
#include "sched/planner.hpp"
#include "sched/request.hpp"

namespace wrsn {

// Base-station view of one sensor at dispatch time: position, outstanding
// demand and the critical flag, all current as of the latest settlement.
struct SensorView {
  Vec2 pos;
  Joule demand;
  bool critical = false;
};

// Read-only facade over the state a policy may consult for one idle RV.
// All referenced containers must outlive the context (the World builds it
// on the stack per dispatch round; tests build it from plain vectors).
class DispatchContext {
 public:
  using SensorViewFn = std::function<SensorView(SensorId)>;

  DispatchContext(const std::vector<RechargeItem>& items,
                  const RvPlanState& rv, const PlannerParams& params,
                  std::size_t rv_id, const std::vector<Vec2>& fleet_positions,
                  std::size_t num_groups, Xoshiro256& sched_rng,
                  const std::vector<SensorId>& arrival_order,
                  SensorViewFn sensor_view)
      : items_(&items),
        rv_(&rv),
        params_(&params),
        rv_id_(rv_id),
        fleet_(&fleet_positions),
        num_groups_(num_groups),
        rng_(&sched_rng),
        arrival_(&arrival_order),
        view_(std::move(sensor_view)) {}

  // Aggregated unclaimed recharge items (cluster batches / lone nodes).
  [[nodiscard]] const std::vector<RechargeItem>& items() const {
    return *items_;
  }
  // The RV being planned for: position and spendable energy budget.
  [[nodiscard]] const RvPlanState& rv() const { return *rv_; }
  [[nodiscard]] const PlannerParams& params() const { return *params_; }
  // Index of this RV within fleet_positions().
  [[nodiscard]] std::size_t rv_id() const { return rv_id_; }
  // Current position of every RV, busy ones included (index == RvId).
  [[nodiscard]] const std::vector<Vec2>& fleet_positions() const {
    return *fleet_;
  }
  // Configured group count for partitioning schemes (the fleet size m).
  [[nodiscard]] std::size_t num_groups() const { return num_groups_; }
  // The World's scheduling RNG stream; state advances across calls, so a
  // policy must draw from it exactly when its scheme needs randomness.
  [[nodiscard]] Xoshiro256& sched_rng() const { return *rng_; }
  // Unclaimed requesting sensors, oldest request first.
  [[nodiscard]] const std::vector<SensorId>& arrival_order() const {
    return *arrival_;
  }
  [[nodiscard]] SensorView sensor(SensorId s) const { return view_(s); }

  // Expands cluster batches into per-sensor single-node items (fresh
  // position and demand). kFresh re-evaluates each sensor's critical flag;
  // kInherit copies the batch's flag (the historical fallback semantics).
  enum class SinglesCritical { kFresh, kInherit };
  [[nodiscard]] std::vector<RechargeItem> singles(
      const std::vector<RechargeItem>& from, SinglesCritical mode) const;

 private:
  const std::vector<RechargeItem>* items_;
  const RvPlanState* rv_;
  const PlannerParams* params_;
  std::size_t rv_id_;
  const std::vector<Vec2>* fleet_;
  std::size_t num_groups_;
  Xoshiro256* rng_;
  const std::vector<SensorId>* arrival_;
  SensorViewFn view_;
};

// What a policy asks the World to do with the RV this round.
struct DispatchDecision {
  enum class Kind {
    kPlan,          // serve `sequence` over `items`
    kReturnToBase,  // head home if in the field, otherwise hold
    kSelfCharge,    // head home if in the field, else top up at the dock
    kHold,          // do nothing this round
  };

  Kind kind = Kind::kHold;
  // kPlan only: the planned stops, in visiting order, and `sequence` over
  // them (always 0, 1, ..., items.size() - 1).
  std::vector<RechargeItem> items;
  std::vector<std::size_t> sequence;

  // A plan visiting over[seq[0]], over[seq[1]], ...: copies only those
  // items, so a plan over a round's whole item list (tens of thousands at
  // scale) costs what it visits. `over` may be the round's items or a
  // derived list (e.g. per-sensor singles).
  [[nodiscard]] static DispatchDecision plan(const std::vector<RechargeItem>& over,
                                             const std::vector<std::size_t>& seq);
  [[nodiscard]] static DispatchDecision return_to_base() {
    DispatchDecision d;
    d.kind = Kind::kReturnToBase;
    return d;
  }
  [[nodiscard]] static DispatchDecision self_charge() {
    DispatchDecision d;
    d.kind = Kind::kSelfCharge;
    return d;
  }
  [[nodiscard]] static DispatchDecision hold() { return DispatchDecision{}; }
};

// Strategy interface. Implementations must be deterministic given the
// context (any randomness comes from ctx.sched_rng()); one instance is
// created per World. A policy may keep a private memo across calls only if
// every decision and every sched_rng draw stays bit-identical to a fresh
// instance's on the same context. The memo is never serialized: a restored
// World starts with an empty one and recomputes it (see the partition
// policy).
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;
  [[nodiscard]] virtual DispatchDecision decide(
      const DispatchContext& ctx) const = 0;
};

// Shared tail used by aggregate planners when no full batch fits the
// budget: serve the single most profitable raw request (critical flags
// inherited from the batch), or go refill when nothing is affordable.
[[nodiscard]] DispatchDecision fallback_single_node(const DispatchContext& ctx);

// Scheduler policies by name (core/registry.hpp); instance() registers the
// built-in schemes, paper schemes first.
using SchedulerRegistry = Registry<SchedulerPolicy>;
template <>
SchedulerRegistry& SchedulerRegistry::instance();

// Convenience: SchedulerRegistry::instance().names().
[[nodiscard]] std::vector<std::string> scheduler_names();

}  // namespace wrsn
