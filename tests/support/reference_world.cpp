#include "reference_world.hpp"

#include <string>

#include "core/error.hpp"

namespace wrsn {

ReferenceWorld::ReferenceWorld(const SimConfig& config) : World(config) {
  const ClusterSet scan = clusters_by_scan();
  if (scan.members != clusters_.members || scan.assignment != clusters_.assignment ||
      scan.loads != clusters_.loads) {
    throw LogicError("reference world: t=0 clusters differ from the scan");
  }
  for (TargetId t = 0; t < net_.num_targets(); ++t) {
    if (coverable_[t] != covered_by_scan(net_.target(t).pos)) {
      throw LogicError("reference world: t=0 coverable bit of target " +
                       std::to_string(t) + " differs from the scan");
    }
  }
}

ReferenceWorld::ReferenceWorld(const WorldSnapshot& snap) : World(snap) {}

bool ReferenceWorld::covered_by_scan(Vec2 point) const {
  const double r2 = config_.sensing_range.value() * config_.sensing_range.value();
  for (const Vec2& pos : soa_.pos) {
    if (squared_distance(pos, point) <= r2) return true;
  }
  return false;
}

ClusterSet ReferenceWorld::clusters_by_scan() const {
  std::vector<bool> alive(net_.num_sensors());
  for (SensorId s = 0; s < net_.num_sensors(); ++s) alive[s] = soa_.alive(s);
  // Sensor positions are static for the whole run, so the SoA block doubles
  // as the clustering input.
  return balanced_clustering(soa_.pos, current_target_positions(),
                             config_.sensing_range.value(), alive);
}

StateSnapshot ReferenceWorld::derived_state() const {
  StateSnapshot snap;
  snap.total_sensors = net_.num_sensors();
  snap.alive_sensors = net_.alive_count();
  snap.delivery_rate_pps = traffic_.delivery_rate();
  snap.offered_rate_pps = traffic_.offered_rate();
  snap.avg_delivery_hops = traffic_.average_delivery_hops();
  for (TargetId t = 0; t < net_.num_targets(); ++t) {
    if (!coverable_[t]) continue;
    ++snap.coverable_targets;
    bool covered = false;
    if (config_.activation == ActivationPolicy::kRoundRobin) {
      const SensorId m = active_monitor_[t];
      covered = m != kInvalidId && operational(m);
    } else {
      for (SensorId s : clusters_.members[t]) {
        if (operational(s)) {
          covered = true;
          break;
        }
      }
    }
    if (covered) ++snap.covered_targets;
  }
  return snap;
}

void ReferenceWorld::request_drain_refresh() {
  for (SensorId s = 0; s < soa_.drain.size(); ++s) update_drain(s);
  drain_marks_.clear();
}

std::vector<SensorId> ReferenceWorld::candidates_by_scan(Vec2 point) const {
  const double r2 = config_.sensing_range.value() * config_.sensing_range.value();
  std::vector<SensorId> out;
  for (SensorId s = 0; s < net_.num_sensors(); ++s) {
    if (soa_.alive(s) && squared_distance(soa_.pos[s], point) <= r2) out.push_back(s);
  }
  return out;
}

void ReferenceWorld::recluster_inputs(TargetId /*moved*/) {
  recluster_cand_.resize(net_.num_targets());
  readmit_.clear();
  for (TargetId t = 0; t < net_.num_targets(); ++t) {
    recluster_cand_[t] = candidates_by_scan(net_.target(t).pos);
    set_coverable(t, covered_by_scan(net_.target(t).pos));
    readmit_.push_back(t);
  }
}

World::StepRegion ReferenceWorld::step_region(Vec2 from, Vec2 to) const {
  const double range = config_.sensing_range.value();
  const double r2 = range * range;
  StepRegion region;
  for (SensorId s = 0; s < net_.num_sensors(); ++s) {
    if (!soa_.alive(s)) continue;
    if (squared_distance(soa_.pos[s], from) <= r2 ||
        squared_distance(soa_.pos[s], to) <= r2) {
      region.dirty.push_back(s);
    }
  }
  region.coverable = covered_by_scan(to);
  return region;
}

RebalanceResult ReferenceWorld::rebalance(const std::vector<SensorId>& dirty) {
  // Candidate targets by full target scan.
  const std::vector<Vec2> target_pos = current_target_positions();
  return rebalance_dirty(clusters_, soa_.pos, target_pos,
                         config_.sensing_range.value(), dirty);
}

std::unique_ptr<World> make_world(const SimConfig& config, Engine engine) {
  if (engine == Engine::kReference) return std::make_unique<ReferenceWorld>(config);
  return std::make_unique<World>(config);
}

std::unique_ptr<World> restore_world(const WorldSnapshot& snap, Engine engine) {
  if (engine == Engine::kReference) return std::make_unique<ReferenceWorld>(snap);
  return std::make_unique<World>(snap);
}

}  // namespace wrsn
