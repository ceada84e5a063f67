#pragma once
// The recharge node list R (Section II-A) and its cluster-aggregated view.
//
// Sensors whose cluster's ERP trigger fired are appended here by the base
// station. Before route planning, per-sensor requests belonging to the same
// cluster are folded into one RechargeItem with the aggregated demand
// (Section IV-C: "all energy demands from sensors inside a cluster are
// replaced by an aggregated cluster energy demand"), positioned at the
// cluster centroid. Unclustered sensors become single-node items.

#include <vector>

#include "core/units.hpp"
#include "geom/vec2.hpp"
#include "net/ids.hpp"

namespace wrsn {

struct RechargeRequest {
  SensorId sensor = kInvalidId;
  ClusterId cluster = kInvalidId;  // kInvalidId when unclustered
  Vec2 pos;
  Joule demand;
  // Set when the sensor's level is below the critical fraction; critical
  // clusters are prioritized in destination selection (Section III-C).
  bool critical = false;
  // Battery fraction at the last status refresh (deadline proxy used by the
  // EDF extension scheduler).
  double fraction = 0.0;
};

// The pending requests in arrival order, which is the planner contract:
// every walk (collect_unclaimed, the snapshot writer, requests()) sees the
// live requests oldest first. A remove only turns its entry into a
// tombstone (sensor == kInvalidId) and clears the sensor's slot, so it is
// O(1); once the tombstones outnumber the live entries the vector is
// compacted in one stable pass, which keeps the arrival order and makes a
// remove amortised O(1) even when ~50 000 requests wait at large n. A
// tombstone is invisible through the interface: size(), empty(),
// contains() and every walk count only live requests.
class RechargeNodeList {
 public:
  void add(RechargeRequest request);
  // Removes the request of `sensor`; returns whether one existed.
  bool remove(SensorId sensor);
  void clear();

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool contains(SensorId sensor) const;
  // Removed entries still awaiting compaction; never more than size().
  [[nodiscard]] std::size_t tombstones() const { return entries_.size() - live_; }
  // Copy of the live requests, oldest first. Hot paths use for_each.
  [[nodiscard]] std::vector<RechargeRequest> requests() const;
  // Calls fn(const RechargeRequest&) on every live request, oldest first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const RechargeRequest& r : entries_) {
      if (r.sensor != kInvalidId) fn(r);
    }
  }

  // Refreshes demand/critical/fraction of an existing request (levels keep
  // dropping while the request waits).
  void update(SensorId sensor, Joule demand, bool critical, double fraction);

  // Structural invariant: every slot_ entry points at the live request it
  // indexes, every live request has a slot, and tombstones never outnumber
  // live requests. O(N); meant for WRSN_DEBUG_ASSERT after
  // remove/failover re-injection, not for hot paths.
  [[nodiscard]] bool consistent() const;

 private:
  [[nodiscard]] std::size_t slot_of(SensorId sensor) const;
  void compact();

  // Arrival order, tombstones included (see the class comment).
  std::vector<RechargeRequest> entries_;
  std::size_t live_ = 0;
  // slot_[s] = position of s's request in entries_ plus one, 0 when absent.
  // The list can hold thousands of waiting requests at large n, so the
  // per-dispatch contains/update lookups must not be linear scans.
  std::vector<std::size_t> slot_;
};

// One unit of work for the route planners: a cluster batch or a lone node.
struct RechargeItem {
  Vec2 pos;                      // cluster centroid or node position
  Joule demand;                  // aggregated energy demand
  bool critical = false;         // any member critical
  double min_fraction = 1.0;     // lowest member battery fraction (EDF key)
  ClusterId cluster = kInvalidId;
  std::vector<SensorId> sensors;  // the underlying requests

  friend bool operator==(const RechargeItem&, const RechargeItem&) = default;
};

// Folds the raw request list into planner items. Ordering is deterministic:
// clusters by ascending cluster id, then unclustered nodes by sensor id.
[[nodiscard]] std::vector<RechargeItem> aggregate_requests(
    const std::vector<RechargeRequest>& requests);

}  // namespace wrsn
