#include "sim/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/atomic_file.hpp"
#include "core/binio.hpp"
#include "core/config_io.hpp"
#include "core/error.hpp"
#include "core/json.hpp"

namespace wrsn {

namespace {

constexpr std::string_view kMagic{"WRSNSNAP"};

template <typename Ar>
inline constexpr bool kLoading = std::is_same_v<Ar, BinReader>;

// --- field helpers -------------------------------------------------------
// Each helper is one symmetric save/load pair behind `if constexpr`, so a
// field listed once in SnapshotAccess::io is encoded and decoded by the same
// statement — the two directions cannot drift apart.

template <typename Ar, typename Rng>
void io_rng(Ar& ar, Rng& rng) {
  if constexpr (kLoading<Ar>) {
    std::array<std::uint64_t, 4> s{};
    for (auto& v : s) ar.u64(v);
    rng = Xoshiro256(s);
  } else {
    for (const std::uint64_t v : rng.state()) ar.u64(v);
  }
}

// Snapshots of another schema version are refused, not reinterpreted.
void check_version(std::uint32_t version) {
  if (version != kSnapshotSchemaVersion) {
    throw InvalidArgument("unsupported snapshot schema version " +
                          std::to_string(version) + " (this build reads " +
                          std::to_string(kSnapshotSchemaVersion) + ")");
  }
}

// --- load-side validation --------------------------------------------------
// A valid checksum only proves the bytes are the ones that were written.
// Restored ids and enums index fixed-size arrays, so each one is
// range-checked on load and a violation fails with one line.

[[noreturn]] void reject(const std::string& what) {
  throw InvalidArgument("snapshot " + what);
}

// What a restored id may be: below `limit`, or kInvalidId when `none_ok`.
struct IdBound {
  const char* what;
  std::size_t limit;
  bool none_ok = false;
};

void check_id(std::uint64_t id, const IdBound& b) {
  if (b.none_ok && id == static_cast<std::uint64_t>(kInvalidId)) return;
  if (id >= b.limit) {
    reject(std::string(b.what) + " " + std::to_string(id) +
           " out of range (limit " + std::to_string(b.limit) + ")");
  }
}

// Battery levels stay within [0, capacity]; NaN fails too.
void check_level(double level, double capacity, const char* what) {
  if (!(level >= 0.0 && level <= capacity)) {
    reject(std::string(what) + " battery level " + std::to_string(level) +
           " outside [0, " + std::to_string(capacity) + "]");
  }
}

template <typename V>
void check_size(const V& v, std::size_t want, const char* what) {
  if (v.size() != want) {
    reject(std::string(what) + " has " + std::to_string(v.size()) +
           " entries, expected " + std::to_string(want));
  }
}

// Index scalar (SensorId / TargetId / std::size_t) through u64, so the
// encoding never depends on the platform's size_t flavour. On load the
// value is checked against `bound`.
template <typename Ar, typename T>
void io_index(Ar& ar, T& v, const IdBound& bound) {
  if constexpr (kLoading<Ar>) {
    std::uint64_t e = 0;
    ar.u64(e);
    check_id(e, bound);
    v = static_cast<std::decay_t<T>>(e);
  } else {
    ar.u64(static_cast<std::uint64_t>(v));
  }
}

// A vector of ids (or, without a bound, of plain counts), as a u64 vector:
// one bulk copy each way, the ids checked after the copy.
template <typename Ar, typename V>
void io_index_vec(Ar& ar, V& v, const IdBound* bound = nullptr) {
  static_assert(sizeof(typename V::value_type) == 8,
                "ids and counts are encoded as u64");
  ar.vec(v);
  if constexpr (kLoading<Ar>) {
    if (bound != nullptr) {
      for (const std::uint64_t e : v) check_id(e, *bound);
    }
  }
}

// A vector<bool> as a u64 count and one byte per flag, through a byte
// buffer so each direction is one bulk copy.
template <typename Ar, typename V>
void io_bool_vec(Ar& ar, V& v) {
  if constexpr (kLoading<Ar>) {
    std::vector<std::uint8_t> flags;
    ar.vec(flags);
    v.assign(flags.size(), false);
    for (std::size_t i = 0; i < flags.size(); ++i) v[i] = flags[i] != 0;
  } else {
    ar.vec(std::vector<std::uint8_t>(v.begin(), v.end()));
  }
}

// One-byte enum with `count` enumerators; larger values are rejected.
template <typename Ar, typename E>
void io_enum8(Ar& ar, E& v, std::size_t count, const char* what) {
  if constexpr (kLoading<Ar>) {
    std::uint8_t b = 0;
    ar.u8(b);
    check_id(b, IdBound{what, count});
    v = static_cast<std::decay_t<E>>(b);
  } else {
    ar.u8(static_cast<std::uint8_t>(v));
  }
}

template <typename Ar, typename V>
void io_enum8_vec(Ar& ar, V& v, std::size_t count, const char* what) {
  if constexpr (kLoading<Ar>) {
    v.assign(ar.count(1), typename V::value_type{});
  } else {
    ar.u64(v.size());
  }
  for (auto& e : v) io_enum8(ar, e, count, what);
}

template <typename Ar, typename V>
void io_vec2_vec(Ar& ar, V& v) {
  if constexpr (kLoading<Ar>) {
    v.assign(ar.count(16), Vec2{});
  } else {
    ar.u64(v.size());
  }
  for (auto& p : v) {
    ar.f64(p.x);
    ar.f64(p.y);
  }
}

template <typename Ar, typename B>
void io_battery_level(Ar& ar, B& battery) {
  if constexpr (kLoading<Ar>) {
    double level = 0.0;
    ar.f64(level);
    battery.set_level(Joule{level});
  } else {
    ar.f64(battery.level().value());
  }
}

[[nodiscard]] const char* rv_state_name(Rv::State state) {
  switch (state) {
    case Rv::State::kIdle: return "idle";
    case Rv::State::kTraveling: return "traveling";
    case Rv::State::kCharging: return "charging";
    case Rv::State::kReturning: return "returning";
    case Rv::State::kSelfCharging: return "self-charging";
    case Rv::State::kBrokenDown: return "broken down";
  }
  return "unknown";
}

// Encoded sizes of the fixed-size records, for ar.count().
constexpr std::size_t kEventBytes = 8 + 8 + 1 + 8 + 8;
constexpr std::size_t kSeriesPointBytes = 6 * 8;

// One queued event; shared by the save loop (on a by-value copy) and the
// load loop (on a default-constructed Event). The subject is checked
// against the id space its kind names.
template <typename Ar>
void io_event(Ar& ar, Event& e, std::size_t num_sensors, std::size_t num_targets,
              std::size_t num_rvs) {
  ar.f64(e.time);
  ar.u64(e.seq);
  io_enum8(ar, e.kind, kNumEventKinds, "event kind");
  std::size_t limit = std::numeric_limits<std::size_t>::max();
  switch (e.kind) {
    case EventKind::kTargetMove: limit = num_targets; break;
    case EventKind::kSensorCrossing:
    case EventKind::kRequestUplink:
    case EventKind::kSensorFaultStart:
    case EventKind::kSensorFaultEnd: limit = num_sensors; break;
    case EventKind::kRvArrival:
    case EventKind::kRvChargeDone:
    case EventKind::kRvBaseChargeDone:
    case EventKind::kRvBreakdown:
    case EventKind::kRvRepaired: limit = num_rvs; break;
    case EventKind::kSlotRotation:
    case EventKind::kMetricsSample:
    case EventKind::kSimEnd: break;
  }
  io_index(ar, e.subject, IdBound{"event subject", limit});
  ar.u64(e.epoch);
}

template <typename Ar, typename P>
void io_series_point(Ar& ar, P& p) {
  ar.f64(p.t);
  ar.size(p.alive);
  ar.size(p.covered);
  ar.size(p.coverable);
  ar.size(p.pending_requests);
  ar.f64(p.rv_travel_distance);
}

}  // namespace

// The one place that walks World's mutable members. Instantiated twice:
// (const World&, BinWriter&) to save, (World&, BinReader&) to load. Members
// built by the static part of construction — the deployment, comm graph,
// sensing grid, SoA capacity/positions, fault plan, scheduler policy,
// scratch buffers — are deliberately absent; a load runs on a world that
// has only those, so it writes every mutable member it needs. The routing
// forest is built once here, from the serialized mask, and the target bucket
// grid is re-initialized from the restored target positions at the end (its
// query results are order-insensitive). On load every id, enum and
// per-entity vector length is checked against the config's sizes.
struct SnapshotAccess {
  template <typename W, typename Ar>
  static void io(W& w, Ar& ar) {
    constexpr bool kLoad = kLoading<Ar>;
    const std::size_t num_sensors = w.config_.num_sensors;
    const std::size_t num_targets = w.config_.num_targets;
    const std::size_t num_rvs = w.config_.num_rvs;
    const IdBound sensor_id{"sensor id", num_sensors};
    const IdBound target_or_none{"target id", num_targets, true};
    const auto sized = [&](const auto& v, std::size_t want, const char* what) {
      if constexpr (kLoad) check_size(v, want, what);
    };

    // --- clock, counters, RNG positions ---------------------------------
    ar.f64(w.now_);
    ar.f64(w.end_);
    ar.boolean(w.finished_);
    ar.u64(w.events_processed_);
    ar.size(w.queue_hwm_);
    ar.f64(w.sensor_energy_consumed_);
    io_rng(ar, w.target_rng_);
    io_rng(ar, w.sched_rng_);

    // --- sensor hot state (SoA) + battery mirrors ------------------------
    ar.vec(w.soa_.level);
    ar.vec(w.soa_.drain);
    ar.vec(w.soa_.last_settle);
    ar.vec(w.soa_.epoch);
    ar.vec(w.soa_.crossing_time);
    ar.vec(w.soa_.crossing_to_death);
    ar.vec(w.soa_.death_processed);
    ar.vec(w.soa_.hw_fault);
    if constexpr (kLoad) {
      check_size(w.soa_.level, num_sensors, "battery levels");
      check_size(w.soa_.drain, num_sensors, "drains");
      check_size(w.soa_.last_settle, num_sensors, "settle times");
      check_size(w.soa_.epoch, num_sensors, "sensor epochs");
      check_size(w.soa_.crossing_time, num_sensors, "crossing times");
      check_size(w.soa_.crossing_to_death, num_sensors, "crossing targets");
      check_size(w.soa_.death_processed, num_sensors, "death flags");
      check_size(w.soa_.hw_fault, num_sensors, "hardware-fault flags");
      for (SensorId s = 0; s < num_sensors; ++s) {
        check_level(w.soa_.level[s], w.soa_.capacity[s], "sensor");
        w.net_.sensor(s).battery.set_level(Joule{w.soa_.level[s]});
      }
    }

    // --- network mirrors & routing ---------------------------------------
    for (std::size_t s = 0; s < num_sensors; ++s) {
      auto& sensor = w.net_.sensor(s);
      io_index(ar, sensor.assigned_target, target_or_none);
      ar.boolean(sensor.monitoring);
      ar.boolean(sensor.recharge_requested);
    }
    for (TargetId t = 0; t < num_targets; ++t) {
      if constexpr (kLoad) {
        Vec2 p;
        ar.f64(p.x);
        ar.f64(p.y);
        w.net_.set_target_position(t, p);
      } else {
        Vec2 p = w.net_.target(t).pos;
        ar.f64(p.x);
        ar.f64(p.y);
      }
    }
    {
      // The mask the routing tree was built from can lag the alive flags (a
      // death crossing may still be queued), so routing is restored from the
      // serialized mask — never recomputed from the restored sensors.
      std::vector<bool> mask;
      if constexpr (!kLoad) mask = w.net_.last_alive_mask();
      io_bool_vec(ar, mask);
      sized(mask, num_sensors, "routing mask");
      if constexpr (kLoad) w.net_.restore_routing(mask);
    }
    // Flows follow the restored forest: their paths are written from it and
    // checked against it on load.
    if constexpr (kLoad) {
      w.traffic_.deserialize(ar, w.net_.routing());
    } else {
      w.traffic_.serialize(ar, w.net_.routing());
    }

    // --- clustering & activation -----------------------------------------
    if constexpr (kLoad) {
      w.clusters_.members.assign(ar.count(8), std::vector<SensorId>{});
    } else {
      ar.u64(w.clusters_.members.size());
    }
    sized(w.clusters_.members, num_targets, "clusters");
    for (auto& members : w.clusters_.members) {
      io_index_vec(ar, members, &sensor_id);
    }
    io_index_vec(ar, w.clusters_.assignment, &target_or_none);
    sized(w.clusters_.assignment, num_sensors, "cluster assignment");
    io_index_vec(ar, w.clusters_.loads);
    sized(w.clusters_.loads, num_sensors, "cluster loads");
    if constexpr (kLoad) {
      w.rotors_.assign(ar.count(16), ClusterRotor{});
      check_size(w.rotors_, num_targets, "rotors");
      for (auto& rotor : w.rotors_) {
        std::vector<SensorId> members;
        io_index_vec(ar, members, &sensor_id);
        std::size_t cursor = 0;
        ar.size(cursor);
        rotor.restore(std::move(members), cursor);
      }
    } else {
      ar.u64(w.rotors_.size());
      for (const auto& rotor : w.rotors_) {
        io_index_vec(ar, rotor.members());
        ar.size(rotor.cursor());
      }
    }
    {
      const IdBound monitor{"active monitor", num_sensors, true};
      io_index_vec(ar, w.active_monitor_, &monitor);
    }
    sized(w.active_monitor_, num_targets, "active monitors");
    if constexpr (kLoad) check_clusters(w);
    io_bool_vec(ar, w.coverable_);
    sized(w.coverable_, num_targets, "coverable flags");
    io_bool_vec(ar, w.covered_);
    sized(w.covered_, num_targets, "covered flags");
    io_index_vec(ar, w.alive_members_);
    sized(w.alive_members_, num_targets, "alive-member counts");
    ar.size(w.alive_count_);
    ar.size(w.coverable_count_);
    ar.size(w.covered_count_);
    if constexpr (kLoad) check_counters(w);

    // --- recharge requests & claims --------------------------------------
    const IdBound request_sensor{"request sensor", num_sensors};
    const IdBound request_cluster{"request cluster", num_targets, true};
    if constexpr (kLoad) {
      w.requests_.clear();
      const std::size_t n = ar.count(8);
      for (std::size_t i = 0; i < n; ++i) {
        RechargeRequest req;
        io_index(ar, req.sensor, request_sensor);
        io_index(ar, req.cluster, request_cluster);
        ar.f64(req.pos.x);
        ar.f64(req.pos.y);
        double demand = 0.0;
        ar.f64(demand);
        req.demand = Joule{demand};
        ar.boolean(req.critical);
        ar.f64(req.fraction);
        if (w.requests_.contains(req.sensor)) {
          reject("request for sensor " + std::to_string(req.sensor) +
                 " recorded twice");
        }
        w.requests_.add(req);  // arrival order rebuilds the slot index
      }
    } else {
      ar.u64(w.requests_.size());
      w.requests_.for_each([&](const RechargeRequest& req) {
        io_index(ar, req.sensor, request_sensor);
        io_index(ar, req.cluster, request_cluster);
        ar.f64(req.pos.x);
        ar.f64(req.pos.y);
        ar.f64(req.demand.value());
        ar.boolean(req.critical);
        ar.f64(req.fraction);
      });
    }
    ar.vec(w.request_time_);
    sized(w.request_time_, num_sensors, "request times");
    {
      // claimed_ is an unordered_set; sorted for canonical snapshot bytes.
      const IdBound claim{"claimed sensor", num_sensors};
      std::vector<SensorId> claimed;
      if constexpr (!kLoad) {
        claimed.assign(w.claimed_.begin(), w.claimed_.end());
        std::sort(claimed.begin(), claimed.end());
      }
      io_index_vec(ar, claimed, &claim);
      if constexpr (kLoad) {
        w.claimed_.clear();
        w.claimed_.insert(claimed.begin(), claimed.end());
      }
    }

    // --- RV fleet ---------------------------------------------------------
    if constexpr (kLoad) {
      const std::size_t n = ar.count(8);
      if (n != w.rvs_.size()) {
        reject("RV count " + std::to_string(n) + " does not match its config (" +
               std::to_string(w.rvs_.size()) + ")");
      }
    } else {
      ar.u64(w.rvs_.size());
    }
    const IdBound queued{"service-queue sensor", num_sensors};
    for (auto& rv : w.rvs_) {
      io_index(ar, rv.id, IdBound{"RV id", num_rvs});
      ar.f64(rv.pos.x);
      ar.f64(rv.pos.y);
      io_battery_level(ar, rv.battery);
      if constexpr (kLoad) {
        check_level(rv.battery.level().value(), rv.battery.capacity().value(), "RV");
      }
      io_enum8(ar, rv.state, kRvStates, "RV state");
      ar.boolean(rv.in_field);
      {
        std::vector<SensorId> queue;
        if constexpr (!kLoad) queue.assign(rv.service_queue.begin(),
                                           rv.service_queue.end());
        io_index_vec(ar, queue, &queued);
        if constexpr (kLoad) rv.service_queue.assign(queue.begin(), queue.end());
      }
      ar.u64(rv.epoch);
      ar.f64(rv.distance_traveled);
      ar.f64(rv.energy_delivered);
      ar.size(rv.nodes_served);
    }

    // --- fault-injection cursors & uplink state machine -------------------
    ar.vec(w.uplink_epoch_);
    sized(w.uplink_epoch_, num_sensors, "uplink epochs");
    ar.vec(w.uplink_attempt_);
    sized(w.uplink_attempt_, num_sensors, "uplink attempts");
    io_enum8_vec(ar, w.uplink_pending_, kUplinkStates, "uplink state");
    sized(w.uplink_pending_, num_sensors, "uplink states");
    ar.vec(w.stranded_since_);
    sized(w.stranded_since_, num_sensors, "stranding times");
    io_index_vec(ar, w.rv_breakdown_idx_);
    sized(w.rv_breakdown_idx_, num_rvs, "breakdown cursors");
    ar.vec(w.breakdown_began_);
    sized(w.breakdown_began_, num_rvs, "breakdown starts");

    // --- target motion ----------------------------------------------------
    io_vec2_vec(ar, w.target_waypoint_);
    sized(w.target_waypoint_, num_targets, "waypoints");
    io_bool_vec(ar, w.target_dwelling_);
    sized(w.target_dwelling_, num_targets, "dwell flags");

    // --- event queue (canonical (time, seq) order) ------------------------
    if constexpr (kLoad) {
      std::uint64_t next_seq = 0;
      ar.u64(next_seq);
      std::vector<Event> events(ar.count(kEventBytes));
      for (Event& e : events) {
        io_event(ar, e, num_sensors, num_targets, num_rvs);
        // Pending events never precede the capture instant (the event
        // loop's own tolerance); this also rejects NaN times.
        if (!(e.time + 1e-9 >= w.now_)) {
          reject("event at t=" + std::to_string(e.time) +
                 " precedes the snapshot time " + std::to_string(w.now_));
        }
      }
      check_fault_events(w, events);
      check_rv_events(w, events);
      w.queue_.restore(events, next_seq);
    } else {
      ar.u64(w.queue_.next_seq());
      ar.u64(w.queue_.size());
      w.queue_.for_each_sorted([&](Event e) {
        io_event(ar, e, num_sensors, num_targets, num_rvs);
      });
    }

    // --- pending drain marks (insertion order) ----------------------------
    if constexpr (kLoad) {
      const IdBound mark{"drain mark", num_sensors};
      std::vector<std::size_t> marks;
      io_index_vec(ar, marks, &mark);
      w.drain_marks_.reset(num_sensors);
      for (const std::size_t id : marks) w.drain_marks_.add(id);
    } else {
      io_index_vec(ar, w.drain_marks_.ids());
    }

    // --- metrics accumulators & time series -------------------------------
    MetricsIntegrator::io(w.metrics_, ar);
    ar.boolean(w.record_series_);
    if constexpr (kLoad) {
      w.series_.assign(ar.count(kSeriesPointBytes), TimeSeriesPoint{});
    } else {
      ar.u64(w.series_.size());
    }
    for (auto& point : w.series_) io_series_point(ar, point);

    // --- span bookkeeping & latency stamps --------------------------------
    ar.boolean(w.spans_closed_);
    ar.vec(w.request_span_);
    sized(w.request_span_, num_sensors, "request spans");
    ar.vec(w.rv_tour_span_);
    sized(w.rv_tour_span_, num_rvs, "tour spans");
    ar.vec(w.rv_leg_span_);
    sized(w.rv_leg_span_, num_rvs, "leg spans");
    ar.vec(w.rv_breakdown_span_);
    sized(w.rv_breakdown_span_, num_rvs, "breakdown spans");
    ar.vec(w.req_travel_accum_);
    sized(w.req_travel_accum_, num_sensors, "approach times");
    ar.vec(w.leg_began_);
    sized(w.leg_began_, num_rvs, "leg starts");
    ar.vec(w.charge_began_);
    sized(w.charge_began_, num_rvs, "charge starts");

    // --- post-load fixups -------------------------------------------------
    if constexpr (kLoad) {
      // Rebuilt, not serialized: candidates() sorts its output, so the
      // grid's internal cell order is unobservable.
      w.target_index_.init(w.config_.field_side.value(),
                           w.config_.sensing_range.value(),
                           w.current_target_positions());
    }
  }

  // Cross-field consistency of the clustering, past the per-field range
  // checks: the membership invariant of activity/clustering.hpp (which the
  // global recluster's sparse reset relies on), each rotor holding its
  // cluster's members sorted, the sensors' target mirrors, and monitors on
  // members only.
  static void check_clusters(const World& w) {
    const ClusterSet& c = w.clusters_;
    std::vector<TargetId> seen(c.assignment.size(), kInvalidId);
    std::vector<SensorId> sorted;
    for (TargetId t = 0; t < c.members.size(); ++t) {
      for (const SensorId s : c.members[t]) {
        if (seen[s] != kInvalidId) {
          reject("sensor " + std::to_string(s) + " is in clusters " +
                 std::to_string(seen[s]) + " and " + std::to_string(t));
        }
        seen[s] = t;
        if (c.assignment[s] != t) {
          reject("sensor " + std::to_string(s) + " is in cluster " +
                 std::to_string(t) + " but not assigned to it");
        }
      }
      sorted.assign(c.members[t].begin(), c.members[t].end());
      std::sort(sorted.begin(), sorted.end());
      if (w.rotors_[t].members() != sorted) {
        reject("rotor " + std::to_string(t) + " members differ from its cluster");
      }
      const SensorId m = w.active_monitor_[t];
      if (m != kInvalidId && seen[m] != t) {
        reject("active monitor " + std::to_string(m) + " of target " +
               std::to_string(t) + " is not a member of its cluster");
      }
    }
    for (SensorId s = 0; s < c.assignment.size(); ++s) {
      const Sensor& sensor = w.net_.sensor(s);
      if (c.assignment[s] != seen[s]) {
        reject("sensor " + std::to_string(s) + " is assigned to cluster " +
               std::to_string(c.assignment[s]) + " but not among its members");
      }
      if (seen[s] == kInvalidId && c.loads[s] > 0) {
        reject("sensor " + std::to_string(s) + " has load " +
               std::to_string(c.loads[s]) + " but is in no cluster");
      }
      if (sensor.assigned_target != seen[s]) {
        reject("sensor " + std::to_string(s) + " targets " +
               std::to_string(sensor.assigned_target) +
               " but its cluster assignment differs");
      }
      if (sensor.monitoring && seen[s] == kInvalidId) {
        reject("sensor " + std::to_string(s) + " monitors but is in no cluster");
      }
    }
  }

  // The derived-state counters against the flags they count: alive battery
  // levels, coverable and coverable-and-covered targets, and each target's
  // operational members.
  static void check_counters(const World& w) {
    const auto check = [](const char* what, std::size_t stored, std::size_t counted,
                          TargetId t = kInvalidId) {
      if (stored == counted) return;
      const std::string target =
          t == kInvalidId ? "" : "target " + std::to_string(t) + " ";
      reject(target + what + " " + std::to_string(stored) +
             " disagrees with its flags (" + std::to_string(counted) + ")");
    };
    std::size_t alive = 0;
    for (SensorId s = 0; s < w.soa_.level.size(); ++s) {
      if (w.soa_.alive(s)) ++alive;
    }
    check("alive count", w.alive_count_, alive);
    std::size_t coverable = 0;
    std::size_t covered = 0;
    for (TargetId t = 0; t < w.coverable_.size(); ++t) {
      if (!w.coverable_[t]) continue;
      ++coverable;
      if (w.covered_[t]) ++covered;
    }
    check("coverable count", w.coverable_count_, coverable);
    check("covered count", w.covered_count_, covered);
    for (TargetId t = 0; t < w.clusters_.members.size(); ++t) {
      std::size_t operational = 0;
      for (const SensorId s : w.clusters_.members[t]) {
        if (w.operational(s)) ++operational;
      }
      check("alive-member count", w.alive_members_[t], operational, t);
    }
  }

  // Fault events only exist when the config enables faults (their handlers
  // read the fault plan), and each RV's pending breakdowns plus the ones
  // already consumed cannot outnumber its plan's windows.
  static void check_fault_events(const World& w, const std::vector<Event>& events) {
    std::vector<std::size_t> breakdowns = w.rv_breakdown_idx_;
    for (const Event& e : events) {
      const bool fault_kind = e.kind == EventKind::kRvBreakdown ||
                              e.kind == EventKind::kRvRepaired ||
                              e.kind == EventKind::kSensorFaultStart ||
                              e.kind == EventKind::kSensorFaultEnd;
      if (fault_kind && w.fault_ == nullptr) {
        reject(std::string("event kind ") + kind_name(e.kind) +
               " in a run without faults");
      }
      if (e.kind == EventKind::kRvBreakdown) ++breakdowns[e.subject];
    }
    for (RvId r = 0; r < breakdowns.size(); ++r) {
      const std::size_t windows =
          w.fault_ == nullptr ? 0 : w.fault_->plan().rv_breakdowns(r).size();
      if (breakdowns[r] > windows) {
        reject("RV " + std::to_string(r) + " has " + std::to_string(breakdowns[r]) +
               " breakdowns for " + std::to_string(windows) + " plan windows");
      }
    }
  }

  // An RV event that its epoch leaves live must find the RV in the state its
  // handler asserts: an arrival ends a return trip or a leg toward the head
  // of a non-empty service queue, a charge-done a dwell at that head, a
  // base-charge-done a self-charge, a repair a breakdown.
  static void check_rv_events(const World& w, const std::vector<Event>& events) {
    for (const Event& e : events) {
      const bool needs_queue =
          e.kind == EventKind::kRvArrival || e.kind == EventKind::kRvChargeDone;
      if (!needs_queue && e.kind != EventKind::kRvBaseChargeDone &&
          e.kind != EventKind::kRvRepaired) {
        continue;
      }
      const Rv& rv = w.rvs_[e.subject];
      if (e.epoch != rv.epoch) continue;  // stale: discarded on pop
      const bool queued = !rv.service_queue.empty();
      bool ok = false;
      switch (e.kind) {
        case EventKind::kRvArrival:
          ok = rv.state == Rv::State::kReturning ||
               (rv.state == Rv::State::kTraveling && queued);
          break;
        case EventKind::kRvChargeDone:
          ok = rv.state == Rv::State::kCharging && queued;
          break;
        case EventKind::kRvBaseChargeDone:
          ok = rv.state == Rv::State::kSelfCharging;
          break;
        default:  // kRvRepaired, the last kind the filter above lets through
          ok = rv.state == Rv::State::kBrokenDown;
          break;
      }
      if (!ok) {
        reject(std::string(kind_name(e.kind)) + " for RV " + std::to_string(e.subject) +
               " that is " + rv_state_name(rv.state) +
               (needs_queue && !queued ? " with an empty service queue" : ""));
      }
    }
  }

  // Enumerator counts of the one-byte enums in the body.
  static constexpr std::size_t kRvStates =
      static_cast<std::size_t>(Rv::State::kBrokenDown) + 1;
  static constexpr std::size_t kUplinkStates =
      static_cast<std::size_t>(World::UplinkPending::kRetry) + 1;
};

WorldSnapshot World::checkpoint() const {
  WorldSnapshot snap;
  snap.version = kSnapshotSchemaVersion;
  snap.config_text = config_to_text(config_);
  snap.now = now_;
  snap.events_processed = events_processed_;
  // Sized from the two counts the body scales with (at n = 50 000, ~116 B
  // per sensor plus 33 B per pending event), with headroom, so the body is
  // written without a reallocation.
  BinWriter w(192 * config_.num_sensors + 40 * queue_.size() + 4096);
  SnapshotAccess::io(*this, w);
  snap.state = w.take();
  if (spans_ != nullptr) {
    BinWriter spans;
    spans_->serialize(spans);
    snap.span_state = spans.take();
  }
  return snap;
}

World::World(const WorldSnapshot& snap)
    : World(config_from_text(snap.config_text), StaticPart{}) {
  load_state(snap);
}

void World::load_state(const WorldSnapshot& snap) {
  check_version(snap.version);
  BinReader r(snap.state);
  SnapshotAccess::io(*this, r);
  r.expect_end();
  // The restored alive flags may differ from the ones the routing mask was
  // built from (a death crossing may be pending): the next refresh_routing
  // applies those flips.
  const std::vector<bool>& mask = net_.last_alive_mask();
  routing_flips_.clear();
  for (SensorId s = 0; s < net_.num_sensors(); ++s) {
    if (mask[s] != net_.sensor(s).alive()) routing_flips_.add(s);
  }
  // The candidate cache is not state: the next teleport recluster refreshes
  // every list and re-admits every cluster, which reproduces the clusters
  // an uninterrupted run holds.
  recluster_cand_.clear();
  alive_flips_.clear();
}

std::string serialize_snapshot(const WorldSnapshot& snap) {
  // magic | u32 version | config text | now | events | span state | body |
  // checksum trailer, written into one buffer sized for all of it.
  const std::size_t size = kMagic.size() + 4 + (8 + snap.config_text.size()) + 8 +
                           8 + (8 + snap.span_state.size()) +
                           (8 + snap.state.size()) + 8;
  BinWriter w(size);
  w.raw(kMagic.data(), kMagic.size());
  w.u32(snap.version);
  w.str(snap.config_text);
  w.f64(snap.now);
  w.u64(snap.events_processed);
  w.str(snap.span_state);
  w.str(snap.state);
  w.u64(checksum64(w.bytes()));
  return w.take();
}

WorldSnapshot deserialize_snapshot(std::string_view bytes) {
  WRSN_REQUIRE(bytes.size() >= kMagic.size() + 8, "snapshot file too short");
  WRSN_REQUIRE(bytes.substr(0, kMagic.size()) == kMagic,
               "not a WRSN snapshot (bad magic)");
  // The trailer is checked in place; the body's one copy is into
  // WorldSnapshot::state below.
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  BinReader trailer(bytes.substr(bytes.size() - 8));
  std::uint64_t stored = 0;
  trailer.u64(stored);
  WRSN_REQUIRE(stored == checksum64(payload),
               "snapshot checksum mismatch (truncated or corrupt)");
  BinReader r(payload.substr(kMagic.size()));
  WorldSnapshot snap;
  r.u32(snap.version);
  check_version(snap.version);
  r.str(snap.config_text);
  r.f64(snap.now);
  r.u64(snap.events_processed);
  r.str(snap.span_state);
  r.str(snap.state);
  r.expect_end();
  return snap;
}

void save_snapshot_file(const std::string& path, const WorldSnapshot& snap) {
  write_file_atomic(path, serialize_snapshot(snap));
}

WorldSnapshot load_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  WRSN_REQUIRE(in.is_open(), "cannot open snapshot file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize_snapshot(buf.str());
}

std::string snapshot_manifest_meta_line() {
  JsonWriter w;
  w.begin_object()
      .field("record", "meta")
      .field("schema", "wrsn.snapshot")
      .field("version", std::int64_t{1});
  w.key("fields").begin_array();
  for (const char* f : {"id", "file", "t_s", "events", "bytes", "terminal"}) {
    w.value(f);
  }
  w.end_array().end_object();
  return w.str();
}

std::string snapshot_manifest_line(const SnapshotManifestRecord& rec) {
  JsonWriter w;
  w.begin_object()
      .field("record", "snapshot")
      .field("id", rec.id)
      .field("file", rec.file)
      .field("t_s", rec.t_s)
      .field("events", rec.events)
      .field("bytes", rec.bytes)
      .field("terminal", rec.terminal)
      .end_object();
  return w.str();
}

CheckpointWriter::CheckpointWriter(std::string prefix)
    : prefix_(std::move(prefix)), manifest_path_(prefix_ + ".manifest.jsonl") {
  // `--checkpoint runs/exp1/ck` should just work: create the parent dirs.
  const auto parent = std::filesystem::path(prefix_).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  const bool fresh = !static_cast<bool>(std::ifstream(manifest_path_));
  manifest_ = std::make_unique<JournalWriter>(manifest_path_);
  if (fresh) manifest_->append(snapshot_manifest_meta_line());
}

std::string CheckpointWriter::save(const World& world, bool terminal) {
  const WorldSnapshot snap = world.checkpoint();
  const std::string bytes = serialize_snapshot(snap);
  char tag[16];
  std::snprintf(tag, sizeof tag, ".%06llu.snap",
                static_cast<unsigned long long>(next_id_));
  const std::string path = prefix_ + tag;
  write_file_atomic(path, bytes);
  SnapshotManifestRecord rec;
  rec.id = next_id_++;
  rec.file = path;
  rec.t_s = snap.now;
  rec.events = snap.events_processed;
  rec.bytes = bytes.size();
  rec.terminal = terminal;
  manifest_->append(snapshot_manifest_line(rec));
  return path;
}

}  // namespace wrsn
