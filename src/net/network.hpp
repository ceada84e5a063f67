#pragma once
// The deployed network: N sensors uniform over the field, M mobile targets,
// a base station at the field centre (Section II-A), the communication
// graph, and a BS-rooted routing forest over alive sensors, built by the
// RoutingPolicy named in SimConfig::routing.

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/rng.hpp"
#include "geom/grid.hpp"
#include "net/graph.hpp"
#include "net/ids.hpp"
#include "net/routing.hpp"
#include "net/sensor.hpp"

namespace wrsn {

class Network {
 public:
  // Deploys sensors and targets using the given streams (deterministic) and
  // builds the comm graph and sensing grid. No routing forest is built yet:
  // a fresh network asks for one with rebuild_routing(), a restored one with
  // restore_routing().
  Network(const SimConfig& config, Xoshiro256& deploy_rng, Xoshiro256& target_rng);

  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] Vec2 base_station() const { return base_station_; }

  [[nodiscard]] std::size_t num_sensors() const { return sensors_.size(); }
  [[nodiscard]] std::size_t num_targets() const { return targets_.size(); }
  [[nodiscard]] const std::vector<Sensor>& sensors() const { return sensors_; }
  [[nodiscard]] std::vector<Sensor>& sensors() { return sensors_; }
  [[nodiscard]] const Sensor& sensor(SensorId id) const { return sensors_[id]; }
  [[nodiscard]] Sensor& sensor(SensorId id) { return sensors_[id]; }
  [[nodiscard]] const std::vector<Target>& targets() const { return targets_; }
  [[nodiscard]] const Target& target(TargetId id) const { return targets_[id]; }

  // Ids of all sensors (alive or not) whose sensing disc contains `point`.
  // Allocates the result vector; hot paths that only need the count, a
  // yes/no, or a pass over the ids should use the allocation-free forms
  // below instead.
  [[nodiscard]] std::vector<SensorId> sensors_covering(Vec2 point) const;

  // Number of sensors whose sensing disc contains `point`, without
  // allocating.
  [[nodiscard]] std::size_t count_covering(Vec2 point) const;

  // Whether any sensor's sensing disc contains `point`; early-exits on the
  // first hit.
  [[nodiscard]] bool any_covering(Vec2 point) const;

  // Visits the id of every sensor whose sensing disc contains `point`
  // (unsorted cell order), without allocating.
  template <typename Fn>
  void for_each_covering(Vec2 point, Fn&& fn) const {
    sensing_grid_.for_each_in_radius(point, config_.sensing_range.value(),
                                     std::forward<Fn>(fn));
  }

  // Moves the target to a fresh uniform random location.
  void relocate_target(TargetId id, Xoshiro256& rng);
  // Places the target at an explicit position (random-waypoint motion).
  void set_target_position(TargetId id, Vec2 pos);

  [[nodiscard]] const CommGraph& graph() const { return graph_; }
  [[nodiscard]] const RouteTable& routing() const { return routing_; }

  // Rebuilds the routing forest over currently-alive sensors with a full
  // build. Returns true when the alive mask actually changed since the
  // previous build (or none was built yet); an unchanged mask keeps the
  // forest. Compares every sensor: the World uses update_routing().
  bool rebuild_routing();
  // Brings the forest up to date after alive flips. `flipped` lists the
  // sensors whose alive flag differs from last_alive_mask(), each once; the
  // policy repairs the forest in place when it can (shortest_path) and is
  // rebuilt otherwise. Returns true for a repair. O(flips) plus the repair.
  bool update_routing(std::span<const SensorId> flipped);

  // Checkpoint support: the mask the current routing forest was built from.
  // Can lag the actual alive flags (a death crossing may be pending), so a
  // restore must rebuild routing from this serialized mask, not from the
  // restored sensors. The policy itself is config (SimConfig::routing), so
  // rebuilding through it reproduces the checkpointed forest exactly.
  [[nodiscard]] const std::vector<bool>& last_alive_mask() const {
    return last_alive_mask_;
  }
  void restore_routing(const std::vector<bool>& alive_mask);

  [[nodiscard]] std::size_t alive_count() const;

 private:
  SimConfig config_;
  Vec2 base_station_;
  std::vector<Sensor> sensors_;
  std::vector<Target> targets_;
  SpatialGrid sensing_grid_;  // sensor positions, for coverage queries
  CommGraph graph_;
  std::vector<Vec2> node_positions_;  // sensors then BS, graph node order
  std::unique_ptr<RoutingPolicy> router_;
  RouteTable routing_;
  std::vector<bool> last_alive_mask_;

  void build_routes(const std::vector<bool>& alive_mask);
};

}  // namespace wrsn
