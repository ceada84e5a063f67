#pragma once
// HeapQueue — the binary-heap reference for EventQueue.
//
// A std::priority_queue on the same strict (time, seq) order, with
// EventQueue's push/pop/top/size interface and its seq-preserving restore.
// Any correct implementation of that total order pops the exact same
// stream, so tests/test_queue_equivalence.cpp and bench/bench_event_queue.cpp
// drive both through identical operation sequences and compare.

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/events.hpp"

namespace wrsn {

class HeapQueue {
 public:
  void push(double time, EventKind kind, std::size_t subject = 0,
            std::uint64_t epoch = 0) {
    heap_.push(Event{time, next_seq_++, kind, subject, epoch});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  // Undefined on an empty queue (like priority_queue::top).
  [[nodiscard]] const Event& top() const { return heap_.top(); }
  Event pop() {
    const Event e = heap_.top();
    heap_.pop();
    return e;
  }

  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  // Replaces the contents with `events`, keeping each event's seq.
  void restore(const std::vector<Event>& events, std::uint64_t next_seq) {
    heap_ = {};
    for (const Event& e : events) heap_.push(e);
    next_seq_ = next_seq;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace wrsn
