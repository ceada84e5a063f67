#pragma once
// Balanced Clustering (Algorithm 1, Section III-A).
//
// Sensors that can detect at least one target are assigned to exactly one
// target each, so every target ends up with a cluster of near-equal size.
// Assignment order is ascending sensor load (number of detectable targets:
// fewer choices first), and each sensor joins the currently smallest
// eligible cluster.

#include <cstddef>
#include <vector>

#include "geom/vec2.hpp"
#include "net/ids.hpp"

namespace wrsn {

// Membership invariant, kept by balanced_clustering and rebalance_dirty
// alike: members and assignment mirror each other (s is in members[t]
// exactly when assignment[s] == t, and in at most one cluster), and a sensor
// with a nonzero load or an assignment is a member. The global recluster
// relies on it to reset a reused ClusterSet through its members only.
struct ClusterSet {
  // members[t] = sensors assigned to target t, in assignment order.
  std::vector<std::vector<SensorId>> members;
  // assignment[s] = target of sensor s, kInvalidId when unassigned.
  std::vector<TargetId> assignment;
  // loads[s] = number of targets sensor s can detect (candidate count).
  std::vector<std::size_t> loads;

  [[nodiscard]] std::size_t num_clusters() const { return members.size(); }
  [[nodiscard]] std::size_t cluster_size(TargetId t) const { return members[t].size(); }
  // Max minus min size over the clusters that received at least one member;
  // the balance quality metric used by tests. A cluster left empty counts
  // for nothing even when its target had candidate sensors, so an
  // assignment that starves coverable targets can score lower.
  [[nodiscard]] std::size_t imbalance() const;
};

// Admission rule shared by both entry points below. The pool A (sensors
// with at least one candidate) is admitted in ascending load order, ties by
// sensor id. Each sensor joins its candidate cluster with the fewest
// members. A size tie goes to the cluster that most recently gained a
// member; clusters that never grew break ties by target id. (This is the
// order the paper's "sort U ascending" step produces when U is re-sorted
// stably before every admission.)

// `eligible[s]` (when non-empty) masks which sensors may be clustered — the
// simulator passes the alive mask. Scan-based entry point: finds the
// candidate sets by an O(M*N) distance scan, then runs the admission core.
// The full-rescan World oracle (tests/support/) and the tests use it as the
// oracle for grid-fed candidate sets.
[[nodiscard]] ClusterSet balanced_clustering(const std::vector<Vec2>& sensor_pos,
                                             const std::vector<Vec2>& target_pos,
                                             double sensing_range,
                                             const std::vector<bool>& eligible = {});

// Reusable working storage for the admission core: a caller that reclusters
// repeatedly allocates nothing O(N) per call once the buffers have grown.
struct AdmissionScratch {
  std::vector<std::size_t> first;     // per sensor: CSR slice start in targets
  std::vector<TargetId> targets;      // sensor -> candidate targets, ascending
  std::vector<SensorId> pool;         // A, in admission order
  std::vector<std::ptrdiff_t> stamp;  // per target: tie key, lower wins
};

// Admission core with caller-supplied candidate sets: `candidates[t]` lists
// the eligible sensors within sensing range of target t, ascending by id,
// and must contain exactly the sensors the O(M*N) scan would find. Admits
// the clusters of `targets` (ascending, unique) into `out`, reusing its
// storage, and leaves every other cluster as it is.
//
// Admission order, size ties and stamps only ever compare targets that
// share a candidate sensor, so they never cross a coverage-overlap
// component (targets linked through shared candidates): re-admitting whole
// components gives exactly what admitting every target would. `targets`
// must therefore be a union of components, and a sensor now or formerly
// in one of their clusters may be a candidate of none of the others. All
// targets always qualify; that is how a first clustering is built.
//
// Reuse contract: when `out` already holds a clustering of `num_sensors`
// sensors and candidates.size() targets that keeps the membership
// invariant above (a previous result, possibly edited by rebalance_dirty
// since), only the old members of `targets` are reset, and the call runs
// in O(|targets| + C + |A| log |A| + old members) for C = their candidate
// pairs; any other `out` is reset densely in O(N + M) first, which needs
// `targets` to be all of them. Either way each admission takes a minimum
// over the sensor's own candidates instead of re-sorting all M clusters.
void balanced_clustering(const std::vector<std::vector<SensorId>>& candidates,
                         const std::vector<TargetId>& targets,
                         std::size_t num_sensors, ClusterSet& out,
                         AdmissionScratch& scratch);

// Outcome of a scoped (dirty-region) rebalance: which clusters changed and
// which sensors switched clusters, so the caller can splice rotors, monitor
// activation and coverage counters without touching the rest of the network.
struct RebalanceResult {
  struct Move {
    SensorId sensor = kInvalidId;
    TargetId from = kInvalidId;  // kInvalidId: was unassigned
    TargetId to = kInvalidId;    // kInvalidId: no candidate cluster remains
  };
  std::vector<Move> moves;          // sensors whose assignment changed
  std::vector<TargetId> affected;   // clusters whose member set changed (sorted)
};

// Re-runs Algorithm 1's assignment rule for `dirty` only (sorted ascending,
// no duplicates, eligible sensors): refreshes their candidate sets/loads
// against the current target positions, detaches them, and re-admits them
// fewest-choices-first into the smallest candidate cluster (ties by target
// id). All other memberships are left untouched; cluster sizes seen during
// re-admission include them. Candidates come from a scan of every target;
// the simulator uses the candidate-set overload below instead.
[[nodiscard]] RebalanceResult rebalance_dirty(ClusterSet& clusters,
                                              const std::vector<Vec2>& sensor_pos,
                                              const std::vector<Vec2>& target_pos,
                                              double sensing_range,
                                              const std::vector<SensorId>& dirty);

// Core of the scoped rebalance with caller-supplied candidate sets:
// `cand[i]` lists the targets within sensing range of `dirty[i]`, ascending
// by target id (the admission tie-break), and must contain exactly the
// targets the O(M) distance scan would find. Lets the simulator answer the
// candidate queries from a spatial index over the targets instead of
// scanning every target per dirty sensor — the scan dominated the event
// loop at large n, where a waypoint step dirties a handful of sensors but
// the field holds a thousand targets.
[[nodiscard]] RebalanceResult rebalance_dirty(
    ClusterSet& clusters, const std::vector<std::vector<TargetId>>& cand,
    const std::vector<SensorId>& dirty);

// Baseline used in tests/ablation: first-come (unbalanced) clustering, i.e.
// every sensor simply joins the first target it detects. Exposes how much
// Algorithm 1's balancing actually buys.
[[nodiscard]] ClusterSet naive_clustering(const std::vector<Vec2>& sensor_pos,
                                          const std::vector<Vec2>& target_pos,
                                          double sensing_range,
                                          const std::vector<bool>& eligible = {});

}  // namespace wrsn
