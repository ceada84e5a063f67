#pragma once
// Discrete-event queue with lazy invalidation.
//
// Events are ordered by (time, insertion sequence) so simultaneous events
// fire in a deterministic order. Predicted events (battery crossings, RV
// arrivals) carry the epoch of their subject at scheduling time; when the
// subject's state changes, its epoch is bumped and stale queue entries are
// discarded on pop instead of being deleted in place.
//
// The queue is a classic calendar/bucket queue (see docs/ARCHITECTURE.md,
// "Event queue"): the time axis is split into fixed-width "days" hashed into
// a power-of-two ring of "year" buckets, giving O(1) amortized push/pop
// under the usual hold-model workloads. Bucket count and day width resize on
// occupancy. The strict (time, seq) total order leaves no room for
// implementation-defined ties, so tests/test_queue_equivalence.cpp pins the
// pop order against a std::priority_queue oracle (tests/support/) with
// randomized interleavings and the pending events of real runs.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace wrsn {

enum class EventKind : std::uint8_t {
  kSlotRotation,    // global round-robin handover tick
  kTargetMove,      // subject = target id
  kSensorCrossing,  // subject = sensor id (threshold or death, epoch-guarded)
  kRvArrival,       // subject = RV id (epoch-guarded)
  kRvChargeDone,    // subject = RV id (epoch-guarded)
  kRvBaseChargeDone,  // subject = RV id (epoch-guarded)
  kMetricsSample,   // time-series sampling tick
  kRequestUplink,     // subject = sensor id (uplink-epoch-guarded retry tick)
  kRvBreakdown,       // subject = RV id (unguarded; handler checks state)
  kRvRepaired,        // subject = RV id (epoch-guarded)
  kSensorFaultStart,  // subject = sensor id (unguarded; handler checks state)
  kSensorFaultEnd,    // subject = sensor id (unguarded; handler checks state)
  kSimEnd,
};

inline constexpr std::size_t kNumEventKinds = 13;

// Stable human/machine-readable name; these strings are part of the trace
// schema (obs/trace.hpp) — renaming one is a schema change.
[[nodiscard]] constexpr const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSlotRotation: return "slot-rotation";
    case EventKind::kTargetMove: return "target-move";
    case EventKind::kSensorCrossing: return "sensor-crossing";
    case EventKind::kRvArrival: return "rv-arrival";
    case EventKind::kRvChargeDone: return "rv-charge-done";
    case EventKind::kRvBaseChargeDone: return "rv-base-charge-done";
    case EventKind::kMetricsSample: return "metrics-sample";
    case EventKind::kRequestUplink: return "request-uplink";
    case EventKind::kRvBreakdown: return "rv-breakdown";
    case EventKind::kRvRepaired: return "rv-repaired";
    case EventKind::kSensorFaultStart: return "sensor-fault-start";
    case EventKind::kSensorFaultEnd: return "sensor-fault-end";
    case EventKind::kSimEnd: return "sim-end";
  }
  return "unknown";
}

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  // FIFO tie-break for equal times
  EventKind kind = EventKind::kSimEnd;
  std::size_t subject = 0;
  std::uint64_t epoch = 0;
};

class EventQueue {
 public:
  EventQueue();

  void push(double time, EventKind kind, std::size_t subject = 0,
            std::uint64_t epoch = 0);

  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t size() const { return cal_size_; }
  // Undefined on an empty queue (like priority_queue::top).
  [[nodiscard]] const Event& top() const;
  Event pop();

  // --- checkpoint support (sim/snapshot.cpp) -----------------------------
  // Visits the pending events in strict (time, seq) pop order without
  // copying the queue, so the snapshot bytes are canonical regardless of the
  // internal bucket layout. sorted_events() collects the same sequence.
  template <typename Fn>
  void for_each_sorted(Fn&& fn) const;
  [[nodiscard]] std::vector<Event> sorted_events() const;
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  // Rebuilds the queue from serialized events, preserving each event's seq
  // (a plain push() would re-number them and break the restored tie-break
  // order against an uninterrupted run). The buckets are laid out in one
  // pass, as a resize does, not by one push per event.
  void restore(const std::vector<Event>& events, std::uint64_t next_seq);

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Earlier {
    bool operator()(const Event& a, const Event& b) const { return Later{}(b, a); }
  };

  // --- calendar internals (see events.cpp) -------------------------------
  void cal_push(const Event& e);
  // Locates the earliest (time, seq) event and caches its bucket/index.
  void cal_find_top() const;
  void cal_resize(std::size_t new_nbuckets);
  // Spreads `all` over the current bucket ring with a day width from their
  // time spread; the ring must be empty.
  void cal_layout(const std::vector<Event>& all);
  [[nodiscard]] std::uint64_t day_of(double time) const;

  std::uint64_t next_seq_ = 0;

  // Each bucket chain is a binary min-heap on (time, seq)
  // (std::push_heap/pop_heap with Later), so locating the chain's earliest
  // event is an O(1) front peek and membership of the scanned day is decided
  // from the front alone — real workloads alias thousands of events into one
  // day (equal-time batches, skewed far-future predictions), and a linear
  // chain re-scan per pop degenerates to O(chain^2) per drained day.
  // cur_day_ and the cached top location advance from const top(), hence
  // mutable.
  std::vector<std::vector<Event>> buckets_;
  std::size_t bucket_mask_ = 0;
  double width_ = 1.0;  // seconds per day
  std::size_t cal_size_ = 0;
  mutable std::uint64_t cur_day_ = 0;
  mutable bool top_valid_ = false;
  mutable std::size_t top_bucket_ = 0;
};

template <typename Fn>
void EventQueue::for_each_sorted(Fn&& fn) const {
  // seq is unique, so (time, seq) is a strict total order: sorting gives
  // exactly the pop order. Every pending day is >= cur_day_ (the invariant
  // cal_find_top relies on), so walking the ring from cur_day_'s bucket
  // visits the days of [cur_day_, cur_day_ + nbuckets) in order, each bucket
  // holding at most one of them. Each bucket's events of that day are sorted
  // and visited; events of later years (aliases) lie after every event of
  // this year, so they are sorted apart and visited last.
  std::vector<Event> today;
  std::vector<Event> later;
  std::uint64_t day = cur_day_;
  for (std::size_t hop = 0; hop < buckets_.size(); ++hop, ++day) {
    const std::vector<Event>& bucket = buckets_[day & bucket_mask_];
    if (bucket.empty()) continue;
    today.clear();
    for (const Event& e : bucket) (day_of(e.time) == day ? today : later).push_back(e);
    std::sort(today.begin(), today.end(), Earlier{});
    for (const Event& e : today) fn(e);
  }
  std::sort(later.begin(), later.end(), Earlier{});
  for (const Event& e : later) fn(e);
}

}  // namespace wrsn
