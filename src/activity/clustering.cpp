#include "activity/clustering.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/error.hpp"

namespace wrsn {

namespace {

bool is_eligible(const std::vector<bool>& eligible, SensorId s) {
  return eligible.empty() || eligible[s];
}

// Phase 1 of Algorithm 1 by distance scan: candidate sets P(t) per target
// and loads per sensor.
struct Candidates {
  std::vector<std::vector<SensorId>> per_target;  // P
  std::vector<std::size_t> loads;
};

Candidates build_candidates(const std::vector<Vec2>& sensor_pos,
                            const std::vector<Vec2>& target_pos,
                            double sensing_range,
                            const std::vector<bool>& eligible) {
  WRSN_REQUIRE(sensing_range > 0.0, "sensing range must be positive");
  WRSN_REQUIRE(eligible.empty() || eligible.size() == sensor_pos.size(),
               "eligible mask size mismatch");
  Candidates c;
  c.per_target.resize(target_pos.size());
  c.loads.assign(sensor_pos.size(), 0);
  const double r2 = sensing_range * sensing_range;
  for (TargetId t = 0; t < target_pos.size(); ++t) {
    for (SensorId s = 0; s < sensor_pos.size(); ++s) {
      if (!is_eligible(eligible, s)) continue;
      if (squared_distance(sensor_pos[s], target_pos[t]) <= r2) {
        c.per_target[t].push_back(s);
        ++c.loads[s];
      }
    }
  }
  return c;
}

}  // namespace

std::size_t ClusterSet::imbalance() const {
  std::size_t lo = std::numeric_limits<std::size_t>::max();
  std::size_t hi = 0;
  bool any = false;
  for (const auto& cluster : members) {
    // Memberless clusters are skipped, whether or not their target had
    // candidates.
    if (cluster.empty()) continue;
    any = true;
    lo = std::min(lo, cluster.size());
    hi = std::max(hi, cluster.size());
  }
  return any ? hi - lo : 0;
}

ClusterSet balanced_clustering(const std::vector<Vec2>& sensor_pos,
                               const std::vector<Vec2>& target_pos,
                               double sensing_range,
                               const std::vector<bool>& eligible) {
  const Candidates cand =
      build_candidates(sensor_pos, target_pos, sensing_range, eligible);
  std::vector<TargetId> all(target_pos.size());
  std::iota(all.begin(), all.end(), TargetId{0});
  ClusterSet out;
  AdmissionScratch scratch;
  balanced_clustering(cand.per_target, all, sensor_pos.size(), out, scratch);
  return out;
}

void balanced_clustering(const std::vector<std::vector<SensorId>>& candidates,
                         const std::vector<TargetId>& targets,
                         std::size_t num_sensors, ClusterSet& out,
                         AdmissionScratch& scratch) {
  const std::size_t num_targets = candidates.size();
  WRSN_DEBUG_ASSERT(std::is_sorted(targets.begin(), targets.end()) &&
                        std::adjacent_find(targets.begin(), targets.end()) ==
                            targets.end(),
                    "admission targets must be ascending and unique");
  // Reset. A clustering of the same shape is reset through the admitted
  // clusters' own members: by the membership invariant (clustering.hpp) no
  // other sensor of theirs holds a load or an assignment, so a recluster
  // costs what it admits, not O(N). Any other `out` is reset densely.
  if (out.assignment.size() == num_sensors && out.loads.size() == num_sensors &&
      out.members.size() == num_targets) {
    for (const TargetId t : targets) {
      for (const SensorId s : out.members[t]) {
        out.assignment[s] = kInvalidId;
        out.loads[s] = 0;
      }
      out.members[t].clear();
    }
  } else {
    WRSN_REQUIRE(targets.size() == num_targets,
                 "a first clustering must admit every target");
    out.assignment.assign(num_sensors, kInvalidId);
    out.loads.assign(num_sensors, 0);
    out.members.resize(num_targets);
    for (auto& m : out.members) m.clear();
  }

  // Loads, and the pool A: each candidate sensor once, at its first sight.
  auto& pool = scratch.pool;
  pool.clear();
  for (const TargetId t : targets) {
    for (const SensorId s : candidates[t]) {
      WRSN_DEBUG_ASSERT(s < num_sensors, "candidate sensor id out of range");
      if (out.loads[s]++ == 0) pool.push_back(s);
    }
  }
  // A ascending by load, ties by id. The (load, id) keys are distinct, so
  // the unstable sort is deterministic and needs no temporary buffer.
  std::sort(pool.begin(), pool.end(), [&](SensorId a, SensorId b) {
    return out.loads[a] != out.loads[b] ? out.loads[a] < out.loads[b] : a < b;
  });

  // Sensor -> candidate targets as CSR over the pool: sensor s's slice is
  // targets[first[s], first[s] + loads[s]). Filling in ascending target
  // order keeps each slice ascending; `first[s]` serves as the fill cursor
  // and is shifted back to the slice start afterwards. Entries of sensors
  // outside the pool are never read.
  auto& first = scratch.first;
  first.resize(num_sensors);
  std::size_t offset = 0;
  for (const SensorId s : pool) {
    first[s] = offset;
    offset += out.loads[s];
  }
  scratch.targets.resize(offset);
  for (const TargetId t : targets) {
    for (const SensorId s : candidates[t]) scratch.targets[first[s]++] = t;
  }
  for (const SensorId s : pool) first[s] -= out.loads[s];

  // Re-sorting all clusters stably by size before every admission leaves
  // equal-size clusters in the order they last grew, most recent first
  // (a cluster that grows moves ahead of every cluster already at its new
  // size), and clusters that never grew in id order. The key (size, stamp)
  // encodes exactly that order: stamps start at the target id, and every
  // growth takes a fresh, lower stamp. Only clusters that never grew can
  // sit at size 0, so the two stamp ranges never compete.
  auto& stamp = scratch.stamp;
  stamp.resize(num_targets);
  for (const TargetId t : targets) stamp[t] = static_cast<std::ptrdiff_t>(t);
  std::ptrdiff_t next_stamp = -1;

  for (const SensorId s : pool) {
    TargetId best = scratch.targets[first[s]];
    for (std::size_t k = first[s] + 1; k < first[s] + out.loads[s]; ++k) {
      const TargetId t = scratch.targets[k];
      const std::size_t size = out.members[t].size();
      const std::size_t best_size = out.members[best].size();
      if (size < best_size || (size == best_size && stamp[t] < stamp[best])) best = t;
    }
    out.members[best].push_back(s);
    out.assignment[s] = best;
    stamp[best] = next_stamp--;
  }
}

RebalanceResult rebalance_dirty(ClusterSet& clusters,
                                const std::vector<Vec2>& sensor_pos,
                                const std::vector<Vec2>& target_pos,
                                double sensing_range,
                                const std::vector<SensorId>& dirty) {
  WRSN_REQUIRE(sensing_range > 0.0, "sensing range must be positive");
  if (dirty.empty()) return {};
  const double r2 = sensing_range * sensing_range;

  // Fresh candidate sets for the dirty sensors only, by full target scan.
  std::vector<std::vector<TargetId>> cand(dirty.size());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const Vec2 p = sensor_pos[dirty[i]];
    for (TargetId t = 0; t < target_pos.size(); ++t) {
      if (squared_distance(p, target_pos[t]) <= r2) cand[i].push_back(t);
    }
  }
  return rebalance_dirty(clusters, cand, dirty);
}

RebalanceResult rebalance_dirty(ClusterSet& clusters,
                                const std::vector<std::vector<TargetId>>& cand,
                                const std::vector<SensorId>& dirty) {
  WRSN_REQUIRE(cand.size() == dirty.size(),
               "one candidate set per dirty sensor required");
  RebalanceResult out;
  if (dirty.empty()) return out;
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    clusters.loads[dirty[i]] = cand[i].size();
  }

  // Detach everything first so cluster sizes reflect the removals before any
  // dirty sensor re-joins.
  std::vector<TargetId> old_target(dirty.size());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const SensorId s = dirty[i];
    old_target[i] = clusters.assignment[s];
    if (old_target[i] == kInvalidId) continue;
    auto& members = clusters.members[old_target[i]];
    members.erase(std::find(members.begin(), members.end(), s));
    clusters.assignment[s] = kInvalidId;
  }

  // Re-admit fewest-choices-first (dirty is ascending by id, so the stable
  // sort breaks load ties by id), each into its smallest candidate cluster
  // with ties broken by target id.
  std::vector<std::size_t> order(dirty.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return clusters.loads[dirty[a]] < clusters.loads[dirty[b]];
  });

  for (const std::size_t i : order) {
    const SensorId s = dirty[i];
    TargetId best = kInvalidId;
    std::size_t best_size = 0;
    for (const TargetId t : cand[i]) {
      const std::size_t size = clusters.members[t].size();
      if (best == kInvalidId || size < best_size) {
        best = t;
        best_size = size;
      }
    }
    if (best != kInvalidId) {
      clusters.members[best].push_back(s);
      clusters.assignment[s] = best;
    }
    if (best != old_target[i]) {
      out.moves.push_back({s, old_target[i], best});
      if (old_target[i] != kInvalidId) out.affected.push_back(old_target[i]);
      if (best != kInvalidId) out.affected.push_back(best);
    }
  }
  std::sort(out.affected.begin(), out.affected.end());
  out.affected.erase(std::unique(out.affected.begin(), out.affected.end()),
                     out.affected.end());
  return out;
}

ClusterSet naive_clustering(const std::vector<Vec2>& sensor_pos,
                            const std::vector<Vec2>& target_pos,
                            double sensing_range,
                            const std::vector<bool>& eligible) {
  Candidates cand = build_candidates(sensor_pos, target_pos, sensing_range, eligible);

  ClusterSet out;
  out.members.resize(target_pos.size());
  out.assignment.assign(sensor_pos.size(), kInvalidId);
  out.loads = cand.loads;

  for (TargetId t = 0; t < target_pos.size(); ++t) {
    for (SensorId s : cand.per_target[t]) {
      if (out.assignment[s] == kInvalidId) {
        out.members[t].push_back(s);
        out.assignment[s] = t;
      }
    }
  }
  return out;
}

}  // namespace wrsn
