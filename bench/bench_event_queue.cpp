// bench_event_queue — push/pop throughput of the calendar EventQueue
// against the binary-heap reference (HeapQueue, tests/support/).
//
// Drives both queues through the
// classic hold model (steady state: every pop is followed by a push some
// random hold time in the future) across distributions chosen to stress
// different queue behaviours:
//
//   uniform   holds ~ U(0, 2*mean): the calendar queue's best case — events
//             spread evenly over the year, pops scan O(1) buckets.
//   bursty    equal-time batches: each pop pushes a whole batch at one
//             instant, stressing the (time, seq) FIFO tie-break and bucket
//             chains much deeper than the bucket count.
//   bimodal   90% short / 10% long holds: a skewed day population where most
//             buckets are empty ahead of the cursor.
//
//   bench_event_queue [--quick] [--out FILE]
//
//   --quick   smaller queue sizes and fewer ops (the ctest smoke target)
//   --out     output path (default BENCH_event_queue.json in the cwd)
//
// Both queues consume the identical schedule (same RNG seed) and fold the
// popped (time, kind, subject) stream into a checksum; a checksum mismatch
// is a pop-order divergence and fails the run. Timing is whole-phase wall
// clock over `ops` hold steps after warm-up; figure of merit is ns/op where
// one op = one pop + one push.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/json.hpp"
#include "core/rng.hpp"
#include "heap_queue.hpp"
#include "sim/events.hpp"

namespace {

using namespace wrsn;

using Clock = std::chrono::steady_clock;

enum class Dist { kUniform, kBursty, kBimodal };

const char* dist_name(Dist d) {
  switch (d) {
    case Dist::kUniform: return "uniform";
    case Dist::kBursty: return "bursty";
    case Dist::kBimodal: return "bimodal";
  }
  return "?";
}

// One hold step's worth of pushes after a pop at `now`. The burst batch size
// matches what TrafficModel floods produce in the simulator: many crossings
// re-predicted to one instant.
constexpr std::size_t kBurstBatch = 8;

struct HoldResult {
  double ns_per_op = 0.0;
  double checksum = 0.0;
};

template <typename Queue>
HoldResult run_hold(Dist dist, std::size_t size, std::size_t ops,
                    std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Queue q;
  const double mean_hold = 30.0;  // seconds; matches the sim's event spacing
  // Pre-fill to steady-state occupancy.
  for (std::size_t i = 0; i < size; ++i) {
    q.push(rng.uniform(0.0, 2.0 * mean_hold), EventKind::kSensorCrossing,
           i % 1024, 0);
  }
  auto hold = [&](double now) {
    switch (dist) {
      case Dist::kUniform:
        return now + rng.uniform(0.0, 2.0 * mean_hold);
      case Dist::kBursty:
        // Batch instant: quantized so whole batches collide exactly.
        return now + std::ceil(rng.uniform(0.0, 4.0) ) * mean_hold;
      case Dist::kBimodal:
        return now + (rng.uniform(0.0, 1.0) < 0.9
                          ? rng.uniform(0.0, 0.2 * mean_hold)
                          : rng.uniform(0.0, 20.0 * mean_hold));
    }
    return now;
  };

  double checksum = 0.0;
  std::size_t done = 0;
  const auto t0 = Clock::now();
  while (done < ops) {
    const Event ev = q.pop();
    checksum += ev.time + static_cast<double>(ev.subject) +
                static_cast<double>(ev.seq % 9973);
    if (dist == Dist::kBursty) {
      // Refill in bursts: one pop in kBurstBatch triggers a whole equal-time
      // batch, the rest push nothing, keeping occupancy at `size` on average.
      if (ev.seq % kBurstBatch == 0) {
        const double when = hold(ev.time);
        for (std::size_t b = 0; b < kBurstBatch; ++b) {
          q.push(when, EventKind::kSensorCrossing, b, 0);
        }
      }
    } else {
      q.push(hold(ev.time), EventKind::kSensorCrossing, ev.subject, 0);
    }
    ++done;
  }
  const auto t1 = Clock::now();

  HoldResult r;
  r.ns_per_op = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                static_cast<double>(ops);
  r.checksum = checksum;
  return r;
}

struct Row {
  Dist dist;
  std::size_t size = 0;
  double heap_ns = 0.0;
  double cal_ns = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_event_queue.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: bench_event_queue [--quick] [--out FILE]\n";
      return 0;
    } else {
      std::cerr << "unknown option '" << a << "' (try --help)\n";
      return 2;
    }
  }

  std::vector<std::size_t> sizes = {1000, 100000};
  std::size_t ops = 2000000;
  if (quick) {
    sizes = {1000};
    ops = 200000;
  }

  std::vector<Row> rows;
  for (const Dist dist : {Dist::kUniform, Dist::kBursty, Dist::kBimodal}) {
    for (const std::size_t size : sizes) {
      const std::uint64_t seed = 0xe0e90000ULL ^ (size * 2654435761ULL);
      const HoldResult heap = run_hold<HeapQueue>(dist, size, ops, seed);
      const HoldResult cal = run_hold<EventQueue>(dist, size, ops, seed);
      if (heap.checksum != cal.checksum) {
        std::cerr << "bench_event_queue: pop-order divergence (" << dist_name(dist)
                  << ", size=" << size << "): checksum " << heap.checksum
                  << " vs " << cal.checksum << '\n';
        return 1;
      }
      rows.push_back({dist, size, heap.ns_per_op, cal.ns_per_op});
      std::cerr << "  " << dist_name(dist) << " size=" << size << ": "
                << heap.ns_per_op << " -> " << cal.ns_per_op << " ns/op ("
                << heap.ns_per_op / cal.ns_per_op << "x)\n";
    }
  }

  JsonWriter w;
  w.begin_object()
      .field("schema", "wrsn.bench_event_queue.v1")
      .field("cores", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("quick", quick)
      .field("ops", static_cast<std::uint64_t>(ops))
      .key("results")
      .begin_array();
  for (const Row& r : rows) {
    w.begin_object()
        .field("dist", dist_name(r.dist))
        .field("queue_size", static_cast<std::uint64_t>(r.size))
        .field("heap_ns_per_op", r.heap_ns)
        .field("calendar_ns_per_op", r.cal_ns)
        .field("speedup", r.heap_ns / r.cal_ns)
        .end_object();
  }
  w.end_array().end_object();

  std::ofstream out(out_path);
  if (!out.good()) {
    std::cerr << "cannot open '" << out_path << "'\n";
    return 1;
  }
  out << w.str() << '\n';
  std::cout << "wrote " << out_path << '\n';
  return 0;
}
