#pragma once
// ReferenceWorld — the full-rescan oracle for World's incremental derived
// state.
//
// World keeps its derived state incrementally (O(1) coverage counters,
// drain dirty-marks, sensing-grid and target-grid queries) behind four
// protected virtual hooks. This subclass overrides every hook with a full
// O(N) rescan that recovers the same state from first principles: metrics
// and snapshot() recount coverage over all targets, every drain refresh
// re-evaluates every sensor, the teleport recluster finds every target's
// candidate set by distance scan and re-admits every cluster, and the
// scoped rebalance finds its dirty region and
// candidate targets by scanning all sensors and targets. The physics core is
// shared, so identical operation sequences keep the two worlds
// bit-identical, and any divergence in reports, traces or battery vectors
// pinpoints a stale counter, a missed dirty mark or a grid bug
// (tests/test_world_equivalence.cpp, bench/bench_world_hotpath.cpp).
//
// Test and bench code only: nothing under src/ or tools/ links it.

#include <memory>
#include <vector>

#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace wrsn {

class ReferenceWorld : public World {
 public:
  // The base constructor's recluster() ran World's own hooks (an override
  // is not active until this constructor runs), so this one re-derives the
  // t=0 clusters and coverable bits by scan and throws LogicError on any
  // difference.
  explicit ReferenceWorld(const SimConfig& config);
  // Restores a checkpoint. The state is the snapshot's; every hook from
  // here on is the scan.
  explicit ReferenceWorld(const WorldSnapshot& snap);

  // Pending events in (time, seq) order and the next sequence number: what
  // checkpoint() serializes, for tests that replay real event sets.
  [[nodiscard]] std::vector<Event> pending_events() const {
    return queue_.sorted_events();
  }
  [[nodiscard]] std::uint64_t next_event_seq() const { return queue_.next_seq(); }

 protected:
  [[nodiscard]] StateSnapshot derived_state() const override;
  void request_drain_refresh() override;
  void recluster_inputs(TargetId moved) override;
  [[nodiscard]] StepRegion step_region(Vec2 from, Vec2 to) const override;
  [[nodiscard]] RebalanceResult rebalance(const std::vector<SensorId>& dirty) override;

 private:
  // Whether any sensor, alive or not, is within sensing range of `point`.
  [[nodiscard]] bool covered_by_scan(Vec2 point) const;
  [[nodiscard]] ClusterSet clusters_by_scan() const;
  // The alive sensors within sensing range of `point`, ascending.
  [[nodiscard]] std::vector<SensorId> candidates_by_scan(Vec2 point) const;
};

// Which World a test or bench builds: the production engine or its oracle.
enum class Engine { kIncremental, kReference };

[[nodiscard]] constexpr const char* engine_name(Engine engine) {
  return engine == Engine::kReference ? "reference" : "incremental";
}

[[nodiscard]] std::unique_ptr<World> make_world(const SimConfig& config,
                                                Engine engine);
[[nodiscard]] std::unique_ptr<World> restore_world(const WorldSnapshot& snap,
                                                   Engine engine);

}  // namespace wrsn
