#pragma once
// Round-robin sensor activation (Section III-C).
//
// Inside a cluster exactly one member monitors the target per time slot.
// Rotation starts from the lowest sensor ID and passes a virtual
// "notification packet" to the next member each slot; a member that fails to
// acknowledge (depleted battery) is skipped. When every member is dead the
// rotor reports kInvalidId and the target goes unmonitored until a recharge.

#include <algorithm>
#include <vector>

#include "core/error.hpp"
#include "net/ids.hpp"

namespace wrsn {

class ClusterRotor {
 public:
  ClusterRotor() = default;
  explicit ClusterRotor(std::vector<SensorId> members) : members_(std::move(members)) {
    std::sort(members_.begin(), members_.end());
  }

  // Re-initializes the rotor in place as ClusterRotor(members) would: the
  // members sorted, the cursor at the first. Reuses the member storage, so
  // a global recluster rebuilds every rotor without allocating.
  void reset(const std::vector<SensorId>& members) {
    members_.assign(members.begin(), members.end());
    std::sort(members_.begin(), members_.end());
    cursor_ = 0;
  }

  [[nodiscard]] const std::vector<SensorId>& members() const { return members_; }
  [[nodiscard]] bool empty() const { return members_.empty(); }
  [[nodiscard]] SensorId current() const {
    return cursor_ < members_.size() ? members_[cursor_] : kInvalidId;
  }

  // Picks the first alive member in ID order (the paper's "lowest ID first")
  // and makes it current. Returns kInvalidId when none is alive.
  template <typename AlivePred>
  SensorId select_first(AlivePred&& alive) {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (alive(members_[i])) {
        cursor_ = i;
        return members_[i];
      }
    }
    cursor_ = members_.size();
    return kInvalidId;
  }

  // Incremental membership edits for scoped re-clustering. Both preserve the
  // rotation state: the cursor keeps pointing at the same sensor whenever
  // that sensor survives the edit, so unaffected clusters do not lose their
  // rotation position when a neighbouring cluster changes.
  void add_member(SensorId s) {
    const std::size_t old_size = members_.size();
    const auto it = std::lower_bound(members_.begin(), members_.end(), s);
    if (it != members_.end() && *it == s) return;
    const auto pos = static_cast<std::size_t>(it - members_.begin());
    members_.insert(it, s);
    if (cursor_ >= old_size) {
      cursor_ = members_.size();  // "no current member" stays that way
    } else if (pos <= cursor_) {
      ++cursor_;
    }
  }
  void remove_member(SensorId s) {
    const auto it = std::lower_bound(members_.begin(), members_.end(), s);
    if (it == members_.end() || *it != s) return;
    const auto pos = static_cast<std::size_t>(it - members_.begin());
    const bool was_valid = cursor_ < members_.size();
    members_.erase(it);
    if (!was_valid) {
      cursor_ = members_.size();
    } else if (pos < cursor_) {
      --cursor_;
    } else if (pos == cursor_ && cursor_ >= members_.size()) {
      cursor_ = 0;  // current removed at the tail: wrap to the cyclic next
    }
  }

  // Moves to the next alive member after the current one (cyclically),
  // emulating the notification/ack handover. If only the current member is
  // alive it stays current. Returns the new current id or kInvalidId.
  template <typename AlivePred>
  SensorId advance(AlivePred&& alive) {
    if (members_.empty()) return kInvalidId;
    const std::size_t n = members_.size();
    const std::size_t start = cursor_ < n ? cursor_ : n - 1;
    for (std::size_t step = 1; step <= n; ++step) {
      const std::size_t i = (start + step) % n;
      if (alive(members_[i])) {
        cursor_ = i;
        return members_[i];
      }
    }
    cursor_ = n;
    return kInvalidId;
  }

  // Checkpoint support: the rotation position is state (it decides which
  // member takes the next slot), so restore must reinstate it verbatim.
  [[nodiscard]] std::size_t cursor() const { return cursor_; }
  void restore(std::vector<SensorId> members, std::size_t cursor) {
    WRSN_REQUIRE(std::is_sorted(members.begin(), members.end()),
                 "rotor members must be sorted");
    WRSN_REQUIRE(cursor <= members.size(), "rotor cursor out of range");
    members_ = std::move(members);
    cursor_ = cursor;
  }

 private:
  std::vector<SensorId> members_;
  std::size_t cursor_ = 0;
};

}  // namespace wrsn
