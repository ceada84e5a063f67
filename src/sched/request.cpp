#include "sched/request.hpp"

#include <algorithm>
#include <map>

#include "core/error.hpp"

namespace wrsn {

std::size_t RechargeNodeList::slot_of(SensorId sensor) const {
  return sensor < slot_.size() ? slot_[sensor] : 0;
}

void RechargeNodeList::add(RechargeRequest request) {
  WRSN_REQUIRE(request.sensor != kInvalidId, "request needs a sensor id");
  WRSN_REQUIRE(request.demand.value() >= 0.0, "demand must be non-negative");
  WRSN_REQUIRE(!contains(request.sensor), "sensor already has a pending request");
  if (request.sensor >= slot_.size()) slot_.resize(request.sensor + 1, 0);
  slot_[request.sensor] = entries_.size() + 1;
  entries_.push_back(std::move(request));
  ++live_;
}

bool RechargeNodeList::remove(SensorId sensor) {
  const std::size_t slot = slot_of(sensor);
  if (slot == 0) return false;
  entries_[slot - 1].sensor = kInvalidId;
  slot_[sensor] = 0;
  --live_;
  if (tombstones() > live_) compact();
  return true;
}

void RechargeNodeList::compact() {
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].sensor == kInvalidId) continue;
    if (out != i) entries_[out] = std::move(entries_[i]);
    slot_[entries_[out].sensor] = out + 1;
    ++out;
  }
  entries_.resize(out);
}

void RechargeNodeList::clear() {
  entries_.clear();
  live_ = 0;
  std::fill(slot_.begin(), slot_.end(), 0);
}

bool RechargeNodeList::contains(SensorId sensor) const {
  return slot_of(sensor) != 0;
}

std::vector<RechargeRequest> RechargeNodeList::requests() const {
  std::vector<RechargeRequest> out;
  out.reserve(live_);
  for_each([&](const RechargeRequest& r) { out.push_back(r); });
  return out;
}

bool RechargeNodeList::consistent() const {
  std::size_t indexed = 0;
  for (SensorId s = 0; s < slot_.size(); ++s) {
    const std::size_t slot = slot_[s];
    if (slot == 0) continue;
    if (slot > entries_.size()) return false;
    if (entries_[slot - 1].sensor != s) return false;
    ++indexed;
  }
  std::size_t live = 0;
  for_each([&](const RechargeRequest&) { ++live; });
  return indexed == live_ && live == live_ && tombstones() <= live_;
}

void RechargeNodeList::update(SensorId sensor, Joule demand, bool critical,
                              double fraction) {
  const std::size_t slot = slot_of(sensor);
  WRSN_REQUIRE(slot != 0, "no pending request for sensor");
  RechargeRequest& r = entries_[slot - 1];
  r.demand = demand;
  r.critical = critical;
  r.fraction = fraction;
}

std::vector<RechargeItem> aggregate_requests(
    const std::vector<RechargeRequest>& requests) {
  std::map<ClusterId, RechargeItem> clusters;  // ordered -> deterministic output
  std::vector<RechargeItem> singles;

  for (const RechargeRequest& r : requests) {
    if (r.cluster == kInvalidId) {
      RechargeItem item;
      item.pos = r.pos;
      item.demand = r.demand;
      item.critical = r.critical;
      item.min_fraction = r.fraction;
      item.sensors = {r.sensor};
      singles.push_back(std::move(item));
      continue;
    }
    RechargeItem& item = clusters[r.cluster];
    if (item.sensors.empty()) {
      item.cluster = r.cluster;
      item.pos = {0.0, 0.0};
    }
    item.pos += r.pos;  // centroid accumulated, divided below
    item.demand += r.demand;
    item.critical = item.critical || r.critical;
    item.min_fraction = std::min(item.min_fraction, r.fraction);
    item.sensors.push_back(r.sensor);
  }

  std::vector<RechargeItem> items;
  items.reserve(clusters.size() + singles.size());
  for (auto& [cid, item] : clusters) {
    item.pos = item.pos / static_cast<double>(item.sensors.size());
    items.push_back(std::move(item));
  }
  std::sort(singles.begin(), singles.end(),
            [](const RechargeItem& a, const RechargeItem& b) {
              return a.sensors.front() < b.sensors.front();
            });
  for (auto& s : singles) items.push_back(std::move(s));
  return items;
}

}  // namespace wrsn
