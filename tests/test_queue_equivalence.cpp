// Queue-equivalence suite: the calendar EventQueue must be
// indistinguishable from the binary-heap reference (HeapQueue,
// tests/support/). The pinned total order is strict — (time, then push
// sequence number) with no equal keys — so ANY correct implementation pops
// the exact same Event stream for the same push/pop interleaving; this suite
// checks that property on synthetic interleavings (randomized, equal-time
// FIFO batches, epoch-stale discard emulation) and on the pending events of
// real runs, and pins full simulations of the World against its full-rescan
// oracle with faults on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "heap_queue.hpp"
#include "reference_world.hpp"
#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

bool same_event(const Event& a, const Event& b) {
  return a.time == b.time && a.seq == b.seq && a.kind == b.kind &&
         a.subject == b.subject && a.epoch == b.epoch;
}

std::string event_str(const Event& e) {
  std::ostringstream os;
  os << "t=" << e.time << " seq=" << e.seq << " kind=" << kind_name(e.kind)
     << " subject=" << e.subject << " epoch=" << e.epoch;
  return os.str();
}

// Drives both queues through one identical randomized interleaving of pushes
// (with bursts of equal-time events) and pops, asserting the popped streams
// match element-for-element. Also emulates the world's epoch-based lazy
// invalidation: subjects' epochs are bumped mid-stream and stale pops are
// discarded by the same rule on both sides.
void drive_interleaved(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  HeapQueue heap;
  EventQueue cal;
  std::vector<std::uint64_t> epoch(16, 0);

  double now = 0.0;
  std::size_t pops = 0, stale = 0;
  const std::string what = "seed=" + std::to_string(seed);
  for (int step = 0; step < 5000; ++step) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.45 || heap.empty()) {
      // Push a small batch; ~1/3rd of batches share one exact timestamp to
      // exercise the FIFO tie-break, and times may land far ahead (bucket
      // wrap) or just past `now` (cursor-adjacent).
      const std::size_t batch = 1 + static_cast<std::size_t>(rng.uniform(0.0, 4.0));
      const bool equal_time = rng.uniform(0.0, 1.0) < 0.33;
      double t = now + rng.uniform(0.0, rng.uniform(0.0, 1.0) < 0.1 ? 5000.0 : 60.0);
      for (std::size_t b = 0; b < batch; ++b) {
        if (!equal_time) {
          t = now + rng.uniform(0.0, 60.0);
        }
        const std::size_t subject =
            static_cast<std::size_t>(rng.uniform(0.0, 16.0));
        const EventKind kind = static_cast<EventKind>(
            static_cast<std::size_t>(rng.uniform(0.0, 5.0)));
        heap.push(t, kind, subject, epoch[subject]);
        cal.push(t, kind, subject, epoch[subject]);
      }
    } else if (roll < 0.5) {
      // Invalidate one subject: its already-queued events become stale and
      // must be discarded identically on pop from either queue.
      ++epoch[static_cast<std::size_t>(rng.uniform(0.0, 16.0))];
    } else {
      ASSERT_EQ(heap.size(), cal.size()) << what;
      ASSERT_TRUE(same_event(heap.top(), cal.top()))
          << what << "\n  heap top: " << event_str(heap.top())
          << "\n  cal top:  " << event_str(cal.top());
      const Event a = heap.pop();
      const Event b = cal.pop();
      ASSERT_TRUE(same_event(a, b))
          << what << "\n  heap: " << event_str(a) << "\n  cal:  " << event_str(b);
      ASSERT_GE(a.time, now) << what << " time went backwards";
      now = a.time;
      ++pops;
      if (a.epoch != epoch[a.subject]) ++stale;  // same verdict on both sides
    }
  }
  // Drain what is left; order must stay identical down to empty.
  while (!heap.empty()) {
    ASSERT_FALSE(cal.empty()) << what;
    const Event a = heap.pop();
    const Event b = cal.pop();
    ASSERT_TRUE(same_event(a, b))
        << what << " drain\n  heap: " << event_str(a)
        << "\n  cal:  " << event_str(b);
    ASSERT_GE(a.time, now) << what;
    now = a.time;
    ++pops;
  }
  EXPECT_TRUE(cal.empty()) << what;
  EXPECT_GT(pops, 1000u) << what;
  // Sanity on the scenario itself: invalidation actually produced stale pops.
  if (seed % 4 == 0) {
    EXPECT_GT(stale, 0u) << what;
  }
}

TEST(QueueEquivalence, RandomInterleavingsPopIdentically) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    drive_interleaved(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Pure equal-time stress: thousands of events at a handful of distinct
// timestamps must come back in exact push order (FIFO) from both queues,
// even across calendar resizes triggered by the growth.
TEST(QueueEquivalence, EqualTimeBatchesPreservePushOrder) {
  HeapQueue heap;
  EventQueue cal;
  const double times[] = {10.0, 10.0, 3.0, 3.0, 3.0, 777.0};
  std::size_t id = 0;
  for (int round = 0; round < 500; ++round) {
    for (const double t : times) {
      heap.push(t, EventKind::kSensorCrossing, id, 0);
      cal.push(t, EventKind::kSensorCrossing, id, 0);
      ++id;
    }
  }
  std::uint64_t prev_seq = 0;
  double prev_time = -1.0;
  while (!heap.empty()) {
    const Event a = heap.pop();
    const Event b = cal.pop();
    ASSERT_TRUE(same_event(a, b))
        << "heap: " << event_str(a) << " cal: " << event_str(b);
    if (a.time == prev_time) {
      ASSERT_GT(a.seq, prev_seq) << "equal-time FIFO violated";
    }
    prev_time = a.time;
    prev_seq = a.seq;
  }
  EXPECT_TRUE(cal.empty());
}

// Monotone-drain pattern (the simulator's actual usage): every push is at or
// after the most recent pop time, across a wide dynamic range of horizons.
TEST(QueueEquivalence, HoldModelMatchesAcrossResizes) {
  Xoshiro256 rng(0xca1e0d1eULL);
  HeapQueue heap;
  EventQueue cal;
  for (std::size_t i = 0; i < 64; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    heap.push(t, EventKind::kTargetMove, i, 0);
    cal.push(t, EventKind::kTargetMove, i, 0);
  }
  for (int i = 0; i < 20000; ++i) {
    const Event a = heap.pop();
    const Event b = cal.pop();
    ASSERT_TRUE(same_event(a, b)) << "at op " << i;
    // Occasionally grow/shrink the pending population so the calendar
    // resizes both ways mid-run.
    const double grow = rng.uniform(0.0, 1.0);
    const std::size_t pushes = grow < 0.02 ? 40 : (grow < 0.12 ? 0 : 1);
    for (std::size_t p = 0; p < pushes; ++p) {
      const double t = a.time + rng.uniform(0.0, grow < 0.02 ? 1e4 : 50.0);
      heap.push(t, EventKind::kSensorCrossing, p, 0);
      cal.push(t, EventKind::kSensorCrossing, p, 0);
    }
    if (heap.empty()) break;
  }
  while (!heap.empty()) {
    ASSERT_TRUE(same_event(heap.pop(), cal.pop()));
  }
  EXPECT_TRUE(cal.empty());
}

// ---------------------------------------------------------------------------
// Real event sets: the pending events of real runs, not synthetic ones.
// ---------------------------------------------------------------------------

// Loads `pending` (seqs preserved) into both queues and drains them under a
// hold model: each of the first pending.size() pops pushes 0-2 follow-up
// events whose hold times are drawn from the set's own offsets past `now`,
// so the pushes land where the simulator's do. The popped (time, seq)
// streams must match down to empty.
void drain_real_event_set(const std::vector<Event>& pending,
                          std::uint64_t next_seq, double now, std::uint64_t seed,
                          const std::string& what) {
  ASSERT_FALSE(pending.empty()) << what;
  HeapQueue heap;
  EventQueue cal;
  heap.restore(pending, next_seq);
  cal.restore(pending, next_seq);
  std::vector<double> holds;
  holds.reserve(pending.size());
  for (const Event& e : pending) holds.push_back(std::max(e.time - now, 0.0));

  Xoshiro256 rng(seed);
  double last = now;
  std::size_t pops = 0;
  while (!heap.empty()) {
    ASSERT_EQ(heap.size(), cal.size()) << what;
    const Event a = heap.pop();
    const Event b = cal.pop();
    ASSERT_TRUE(same_event(a, b))
        << what << " at pop " << pops << "\n  heap: " << event_str(a)
        << "\n  cal:  " << event_str(b);
    ASSERT_GE(a.time, last) << what << " time went backwards";
    last = a.time;
    if (pops++ < pending.size()) {
      const std::uint64_t pushes = rng.uniform_int(3);
      for (std::uint64_t p = 0; p < pushes; ++p) {
        const double t = a.time + holds[rng.uniform_int(holds.size())];
        heap.push(t, a.kind, a.subject, a.epoch + 1);
        cal.push(t, a.kind, a.subject, a.epoch + 1);
      }
    }
  }
  EXPECT_TRUE(cal.empty()) << what;
  EXPECT_GT(pops, pending.size()) << what;
}

// The pop order of `heap`, without draining it.
std::vector<Event> oracle_order(HeapQueue heap) {
  std::vector<Event> out;
  while (!heap.empty()) out.push_back(heap.pop());
  return out;
}

// Checkpoint support against the oracle at queue sizes spanning several
// bucket counts (16 to 32768): sorted_events is the oracle's pop order, and
// a queue restored from it in one layout pass pops the oracle's stream
// through a further hold-model drain. The queues are built through pushes
// and pops, so the scan cursor sits mid-ring, with equal-time batches and a
// sprinkle of far-future events that land beyond the bucket ring's year.
TEST(QueueEquivalence, SortedExportAndOnePassRestoreMatchTheOracle) {
  for (const std::size_t size : {0, 1, 17, 33, 100, 1000, 5000, 40000}) {
    const std::string what = "size " + std::to_string(size);
    Xoshiro256 rng(0x5e7 + size);
    HeapQueue heap;
    EventQueue cal;
    double now = 0.0;
    const auto push = [&](double t, std::size_t subject) {
      heap.push(t, EventKind::kSensorCrossing, subject, 0);
      cal.push(t, EventKind::kSensorCrossing, subject, 0);
    };
    while (heap.size() < size) {
      const double roll = rng.uniform(0.0, 1.0);
      if (roll < 0.05) {
        for (int b = 0; b < 4; ++b) push(now + 7.0, heap.size());  // equal times
      } else if (roll < 0.06) {
        push(now + rng.uniform(1e5, 1e7), heap.size());  // far future
      } else {
        push(now + rng.uniform(0.0, 60.0), heap.size());
      }
      if (rng.uniform(0.0, 1.0) < 0.3) {
        ASSERT_TRUE(same_event(heap.pop(), cal.pop())) << what;
        if (!heap.empty()) now = heap.top().time;
      }
    }
    // Two events far past the ring's year (unless they trigger a resize).
    push(now + 1e9, 0);
    push(now + 2e9, 1);
    const std::vector<Event> want = oracle_order(heap);
    const std::vector<Event> got = cal.sorted_events();
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(same_event(got[i], want[i]))
          << what << " at " << i << "\n  oracle: " << event_str(want[i])
          << "\n  export: " << event_str(got[i]);
    }
    EXPECT_EQ(cal.size(), want.size()) << what << ": the export consumed events";
    if (want.empty()) continue;
    drain_real_event_set(got, cal.next_seq(), now, size, what);
  }
}

// n=10000 at the paper's sensor density, random-waypoint targets every
// minute and small batteries (bench_world_hotpath's scenario): thousands of
// pending crossings spread over the horizon.
SimConfig large_config() {
  SimConfig cfg;
  cfg.num_sensors = 10000;
  cfg.num_targets = 100;
  cfg.num_rvs = 2;
  cfg.field_side = meters(200.0 * std::sqrt(10000.0 / 500.0));
  cfg.sim_duration = hours(1.8);
  cfg.seed = 0x9e0a11ULL;
  cfg.target_motion = TargetMotion::kRandomWaypoint;
  cfg.target_period = minutes(1.0);
  cfg.target_speed = MeterPerSecond{1.0};
  cfg.activation_slot = Second{30.0};
  cfg.battery.capacity = Joule{200.0};
  cfg.radio.listen_duty_cycle = 0.3;
  cfg.rv.speed = MeterPerSecond{5.0};
  cfg.rv.charge_power = watts(10.0);
  return cfg;
}

// Checkpoints the paper's Table II run (n=500) and the n=10000 run at three
// instants each; every snapshot goes through the file codec and is restored
// into a ReferenceWorld, whose queue hands over the pending events.
TEST(QueueEquivalence, RealEventSetsPopIdentically) {
  struct Case {
    std::string label;
    SimConfig cfg;
    std::vector<Second> at;
    std::size_t min_pending;  // the sets must be of the run's real size
  };
  const std::vector<Case> cases = {
      {"paper_table2", SimConfig::paper_defaults(),
       {days(1.0), days(10.0), days(30.0)}, 300},
      {"n=10000", large_config(), {hours(0.3), hours(0.9), hours(1.5)}, 2000},
  };
  for (const Case& c : cases) {
    World w(c.cfg);
    for (std::size_t i = 0; i < c.at.size(); ++i) {
      w.run_until(c.at[i]);
      const ReferenceWorld restored(
          deserialize_snapshot(serialize_snapshot(w.checkpoint())));
      const std::string what = c.label + " t=" + std::to_string(c.at[i].value());
      const std::vector<Event> pending = restored.pending_events();
      EXPECT_GE(pending.size(), c.min_pending) << what;
      drain_real_event_set(pending, restored.next_event_seq(), w.now().value(),
                           0x5eedULL + i, what);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Full-simulation pins: the World against its full-rescan oracle.
// ---------------------------------------------------------------------------

struct RunResult {
  std::string report_json;
  std::vector<World::TraceEvent> trace;
  std::vector<double> battery_levels;
  std::uint64_t events = 0;
};

RunResult run_sim(const SimConfig& cfg, Engine engine) {
  const std::unique_ptr<World> w = make_world(cfg, engine);
  RunResult out;
  w->set_tracer([&out](const World::TraceEvent& ev) { out.trace.push_back(ev); });
  w->run_until(cfg.sim_duration);
  out.report_json = to_json(w->report());
  for (const Sensor& s : w->network().sensors()) {
    out.battery_levels.push_back(s.battery.level().value());
  }
  out.events = w->events_processed();
  return out;
}
SimConfig pin_config(std::uint64_t seed, bool faults) {
  SimConfig cfg;
  cfg.num_sensors = 50;
  cfg.num_targets = 4;
  cfg.num_rvs = 2;
  cfg.field_side = meters(90.0);
  cfg.sim_duration = hours(6.0);
  cfg.seed = 0x9e000ULL + seed * 7919;
  cfg.target_motion = TargetMotion::kRandomWaypoint;
  cfg.target_period = minutes(30.0);
  cfg.target_speed = MeterPerSecond{1.0};
  cfg.battery.capacity = Joule{150.0};
  cfg.radio.listen_duty_cycle = 0.2;
  if (faults) {
    cfg.fault.enabled = true;
    cfg.fault.request_loss_prob = 0.25;
    cfg.fault.request_delay_prob = 0.2;
    cfg.fault.request_delay_max = minutes(10.0);
    cfg.fault.request_retry_timeout = minutes(5.0);
    cfg.fault.rv_breakdown_at = hours(2.0);
    cfg.fault.rv_repair_duration = hours(1.0);
    cfg.fault.rv_mtbf_hours = 8.0;
    cfg.fault.sensor_fault_rate_per_day = 6.0;
    cfg.fault.sensor_fault_duration = minutes(40.0);
    cfg.fault.battery_noise_per_day = 0.05;
  }
  return cfg;
}

void expect_same_run(const RunResult& a, const RunResult& b,
                     const std::string& what) {
  EXPECT_GT(a.events, 0u) << what;
  EXPECT_EQ(a.report_json, b.report_json) << what;
  EXPECT_EQ(a.events, b.events) << what;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << what;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_TRUE(a.trace[i].time == b.trace[i].time &&
                a.trace[i].kind == b.trace[i].kind &&
                a.trace[i].subject == b.trace[i].subject &&
                a.trace[i].epoch == b.trace[i].epoch &&
                a.trace[i].queue_size == b.trace[i].queue_size)
        << what << " diverges at trace index " << i;
  }
  ASSERT_EQ(a.battery_levels, b.battery_levels) << what;
}

// Faults on/off: the World and ReferenceWorld runs of a scenario must be
// bit-identical.
TEST(QueueEquivalence, FullSimsAreByteIdenticalAcrossEngines) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    for (const bool faults : {false, true}) {
      const SimConfig cfg = pin_config(seed, faults);
      const std::string tag = "seed=" + std::to_string(seed) +
                              (faults ? " faults=on" : " faults=off");
      expect_same_run(run_sim(cfg, Engine::kReference),
                      run_sim(cfg, Engine::kIncremental), tag);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace wrsn
