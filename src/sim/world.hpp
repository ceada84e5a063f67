#pragma once
// The simulation world: wires the network substrate, the activity-management
// layer and the recharge schedulers into one discrete-event simulation
// (Sections II-IV, evaluated as in Section V).
//
// Between events every battery drains at a constant, known power, so the
// engine integrates energy and metrics analytically and schedules exact
// threshold/death crossing events — there is no fixed timestep. Battery
// settlement is lazy: each sensor carries (last_settle_time, drain) and is
// integrated only when its drain changes, it is charged/killed, or a
// decision point reads its level; run_until() settles everyone at its
// horizon so public accessors always see current levels.
//
// Derived state (alive/coverable/covered counters, drain dirty-marks,
// cluster candidate sets) is maintained incrementally: grid queries and
// dirty marks keep per-event cost independent of the network size. The
// code that derives it sits behind protected virtual hooks (see
// "derived-state hooks" below); tests/support/reference_world.hpp
// overrides them with full O(N) rescans that recover the same state from
// first principles, and the equivalence suites require the two to stay
// bit-identical (tests/test_world_equivalence.cpp, docs/ARCHITECTURE.md,
// "Event loop").

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "activity/activation.hpp"
#include "activity/clustering.hpp"
#include "core/config.hpp"
#include "core/dirty_set.hpp"
#include "core/rng.hpp"
#include "fault/fault.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"
#include "obs/flight.hpp"
#include "obs/spans.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sched/planner.hpp"
#include "sched/policy.hpp"
#include "sched/request.hpp"
#include "sim/events.hpp"
#include "sim/metrics.hpp"
#include "sim/rv.hpp"
#include "sim/sensor_soa.hpp"
#include "sim/target_index.hpp"

namespace wrsn {

struct WorldSnapshot;   // sim/snapshot.hpp
struct SnapshotAccess;  // sim/snapshot.cpp — the one friend that walks members

class World {
 public:
  // A fresh run: the static part of construction, then start_up().
  explicit World(const SimConfig& config);
  // Restore: builds only the static part from the snapshot's embedded
  // config (deployment, comm graph, sensing grid are seed-derived), then
  // load_state reads every piece of mutable state, so that continuing the
  // run is byte-identical to never having stopped
  // (tests/test_snapshot_equivalence). No start-up work runs.
  explicit World(const WorldSnapshot& snap);
  // traffic_ keeps a pointer to drain_marks_, so a World never moves.
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  World(World&&) = delete;
  World& operator=(World&&) = delete;
  virtual ~World() = default;

  // Runs the whole horizon and returns the metrics report.
  MetricsReport run();

  // Processes events up to (and including) time t; callable repeatedly with
  // increasing t. Used by tests and interactive examples. All sensor
  // batteries are settled to t on return.
  void run_until(Second t);
  [[nodiscard]] MetricsReport report() const;

  void enable_time_series(bool on) { record_series_ = on; }
  [[nodiscard]] const TimeSeries& time_series() const { return series_; }

  // Observer hook: called once per processed event (after state update).
  // Set to nullptr to disable. Used for debugging, trace dumps and tests
  // that assert event ordering.
  struct TraceEvent {
    double time = 0.0;
    EventKind kind = EventKind::kSimEnd;
    std::size_t subject = 0;
    std::uint64_t epoch = 0;
    std::size_t queue_size = 0;  // events still pending after this one
  };
  using TraceFn = std::function<void(const TraceEvent&)>;
  void set_tracer(TraceFn tracer) { tracer_ = std::move(tracer); }

  // Structured trace sink (obs/trace.hpp): receives every processed event as
  // a TraceRecord. Subsumes set_tracer for serialization use cases; both may
  // be attached at once. Pass nullptr to detach. The sink must outlive the
  // run; finish() is left to the caller.
  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }

  // Span tracing (obs/spans.hpp): the world opens, annotates and closes
  // lifecycle spans on the log — one root span per recharge request (ending
  // in exactly one of served / expired / died-waiting / unserved) and one
  // per RV tour with travel/charge/return legs and breakdown interruptions
  // nested inside. Pass nullptr to detach. The log must outlive the run;
  // spans still open at the horizon are closed when run_until reaches end_,
  // but SpanLog::finish() (sink flush) is left to the owner. Observational
  // only: attaching spans never changes simulated physics
  // (tests/test_spans.cpp).
  void set_span_log(obs::SpanLog* spans) { spans_ = spans; }

  // Flight recorder (obs/flight.hpp): receives the same per-event
  // TraceRecord stream as the trace sink into its bounded ring, for
  // post-mortem dumps on assert failures / SIGINT. Pass nullptr to detach.
  void set_flight_recorder(obs::FlightRecorder* recorder) { flight_ = recorder; }

  // Attaches a telemetry registry (obs/telemetry.hpp): the event loop counts
  // pops per EventKind, stale-epoch discards and the queue high-water mark,
  // and while events are being processed the registry is installed on the
  // running thread so WRSN_OBS_SCOPE timers in the schedulers report to it.
  // Pass nullptr to detach. Telemetry is observational only: attaching it
  // never changes simulated physics (tests/test_observability.cpp).
  void set_telemetry(obs::TelemetryRegistry* registry);

  // --- checkpointing (sim/snapshot.hpp) ---------------------------------
  // Captures the full mutable state at the current instant. Only valid at a
  // quiescent point: between run_until calls, or inside a checkpoint hook
  // (which fires after an event is fully handled). The snapshot embeds the
  // config, so restore needs nothing else.
  [[nodiscard]] WorldSnapshot checkpoint() const;

  // Checkpoint hook: consulted after every fully-processed event. Returning
  // true stops run_until early (before the horizon settle), leaving the
  // world at a quiescent, checkpointable instant; the caller then typically
  // calls checkpoint() and either persists and resumes (periodic
  // checkpoints) or exits (signal-triggered stop, watchdog deadline). Pass
  // nullptr to detach. The hook itself never mutates physics.
  using CheckpointHook = std::function<bool(const World&)>;
  void set_checkpoint_hook(CheckpointHook hook) {
    checkpoint_hook_ = std::move(hook);
  }

  // True once run_until has reached the configured horizon (end of the
  // simulation); a hook-stopped run leaves this false so supervisors can
  // tell "done" from "interrupted".
  [[nodiscard]] bool finished() const { return finished_; }

  // Fault injection: drains the sensor's battery and processes the death
  // immediately (the node behaves like any depleted node afterwards and can
  // be revived by an RV). For chaos/what-if experiments and tests.
  void inject_sensor_failure(SensorId s);

  // Test support: pushes a raw event onto the queue without touching any
  // epoch, so tests can stage epoch-stale events deterministically
  // (tests/test_events.cpp). Never used by the simulation itself.
  void push_event_for_test(double t, EventKind kind, std::size_t subject,
                           std::uint64_t epoch) {
    queue_.push(t, kind, subject, epoch);
  }

  // --- introspection (tests, examples) ----------------------------------
  [[nodiscard]] Second now() const { return Second{now_}; }
  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] const Network& network() const { return net_; }
  [[nodiscard]] const ClusterSet& clusters() const { return clusters_; }
  [[nodiscard]] const RechargeNodeList& recharge_list() const { return requests_; }
  [[nodiscard]] const std::vector<Rv>& rvs() const { return rvs_; }
  [[nodiscard]] const TrafficModel& traffic() const { return traffic_; }
  [[nodiscard]] StateSnapshot snapshot() const;
  // Active monitor of target t (kInvalidId when unmonitored; always
  // kInvalidId under the full-time policy, which has no single monitor).
  [[nodiscard]] SensorId active_monitor(TargetId t) const {
    return active_monitor_[t];
  }
  // Events handled so far (stale discards excluded). Benchmarks divide wall
  // time by this for an events/sec figure.
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }
  // Total energy drained from sensor batteries since t=0 (exact integral of
  // the piecewise-constant drains, including fault-injection drains).
  // Together with the recharged total this gives the sensor-side
  // energy-conservation invariant:
  //   initial + recharged == current levels + consumed.
  [[nodiscard]] Joule sensor_energy_consumed() const {
    return Joule{sensor_energy_consumed_};
  }

 protected:
  // --- derived-state hooks ------------------------------------------------
  // Where derived state is (re)computed: metrics/snapshot state, the drain
  // refresh, the teleport recluster's inputs and the scoped rebalance. Each
  // body is the incremental code; the full-rescan oracle (tests/support/
  // reference_world.hpp) overrides them to recover the same state from
  // first principles. Identical operation sequences keep the two
  // bit-identical, so any divergence pinpoints a stale counter, a missed
  // dirty mark or a grid-query bug. The constructor's recluster() runs these
  // bodies (no override exists yet); the oracle checks t=0 itself.
  //
  // Alive/coverage state for metrics integration and snapshot(): the O(1)
  // counters.
  [[nodiscard]] virtual StateSnapshot derived_state() const;
  // Drain refresh after an event: update_drain over the dirty-marked
  // sensors in ascending id order (the order a full scan visits them).
  virtual void request_drain_refresh();
  // Teleport recluster inputs. Brings recluster_cand_ (each target's alive
  // covering sensors, ascending) and the coverable bits up to date after
  // target `moved` jumped, and lists in readmit_ (ascending) the targets
  // whose admission must re-run. Only the moved target and the targets
  // covering a sensor whose alive flag flipped since the last recluster
  // are re-queried, from the sensing grid, and readmit_ closes them over
  // the coverage-overlap components of the old and new lists together
  // (clustering.hpp: admission never crosses a component). `moved` ==
  // kInvalidId, or an empty cache after a restore, re-queries and
  // re-admits every target.
  virtual void recluster_inputs(TargetId moved);
  // Scoped-rebalance inputs. step_region: the alive sensors within sensing
  // range of either end of a target step (ascending, unique) and whether
  // any sensor, alive or not, covers the new end; both from the sensing
  // grid. rebalance: re-balances `dirty` with candidate targets from the
  // target grid.
  struct StepRegion {
    std::vector<SensorId> dirty;
    bool coverable = false;
  };
  [[nodiscard]] virtual StepRegion step_region(Vec2 from, Vec2 to) const;
  [[nodiscard]] virtual RebalanceResult rebalance(const std::vector<SensorId>& dirty);

  // Everything below is the implementation. It is protected rather than
  // private so the oracle subclass can read and re-derive the state the
  // hooks maintain.

  // Snapshot codec (sim/snapshot.cpp). SnapshotAccess::io is one templated
  // member walk shared by save and load, so the two field lists cannot
  // drift; load_state overwrites the mutable state of a freshly-constructed
  // world with the snapshot's.
  friend struct SnapshotAccess;
  void load_state(const WorldSnapshot& snap);

  // --- construction, in two parts ------------------------------------------
  // The static part: everything derived from the config alone — the
  // deployment and its comm graph and grids (Network), the SoA capacities,
  // the fault plan, the scheduler policy, per-entity array sizes and
  // scratch. Both public constructors start here.
  struct StaticPart {};
  World(const SimConfig& config, StaticPart);
  // Start-up of a fresh run: the first routing build, the initial
  // recluster(kInvalidId) and the first events. A restore skips it:
  // load_state reads that state instead.
  void start_up();

  // --- event handlers ------------------------------------------------------
  void handle(const Event& ev);
  void on_slot_rotation();
  void on_target_move(TargetId t);
  void on_sensor_crossing(SensorId s);
  void on_rv_arrival(RvId r);
  void on_rv_charge_done(RvId r);
  void on_rv_base_charge_done(RvId r);
  void on_rv_breakdown(RvId r);
  void on_rv_repaired(RvId r);
  void on_request_uplink(SensorId s);
  void on_sensor_fault_start(SensorId s);
  void on_sensor_fault_end(SensorId s);

  // --- continuous state --------------------------------------------------
  void advance_to(double t);
  [[nodiscard]] Watt sensor_drain(SensorId s) const;
  // Integrates sensor s's battery from its last settlement to now_ at the
  // current soa_.drain[s]; fires on_sensor_alive_changed when the level
  // clamps to empty. Idempotent within an instant.
  void settle_sensor(SensorId s);
  void settle_all_sensors();
  // Recomputes soa_.drain[s]; on change settles, bumps the epoch and re-predicts
  // the crossing. Sensors whose death event is still pending are left
  // untouched (drain_held) so the crossing fires and handle_death runs
  // exactly once.
  bool update_drain(SensorId s);
  [[nodiscard]] bool drain_held(SensorId s) const;
  // A drain depends on alive, monitoring, the traffic rates and the constant
  // fault noise: every alive or monitoring change marks the sensor here, and
  // the traffic model's touch log marks every rate change.
  void mark_drain_dirty(SensorId s) { drain_marks_.add(s); }
  // Predicted threshold/death crossing time under the current level and
  // drain, or kNoCrossing when none will fire inside the horizon.
  [[nodiscard]] double crossing_prediction(SensorId s) const;
  // Makes every queued crossing for s stale and records that none is
  // pending. Every push of a fresh crossing goes through schedule_crossing
  // (or update_drain's earlier-prediction branch), which re-records the
  // pending time, so crossing_time stays exact.
  void invalidate_crossing(SensorId s) {
    ++soa_.epoch[s];
    soa_.crossing_time[s] = kNoCrossing;
  }
  void schedule_crossing(SensorId s);

  // --- derived-state accounting ------------------------------------------
  // Counters are maintained at every transition; the oracle's derived_state
  // ignores them and rescans, which is what the equivalence suite exploits
  // to validate them.
  void on_sensor_alive_changed(SensorId s, bool alive_now);
  void set_covered(TargetId t, bool v);
  void set_coverable(TargetId t, bool v);
  void recompute_covered(TargetId t);
  // Network::update_routing over the sensors whose alive flag differs from
  // the forest's mask (routing_flips_ narrowed to those), every flow
  // retracted before and re-laid after; nothing when none differs.
  void refresh_routing();
  // Debug check after a recluster: every drain current (drain_held excepted),
  // target mirrors and monitors on members only, monitors exactly the
  // traffic sources, alive_count_ exact.
  [[nodiscard]] bool recluster_consistent() const;
  // Debug oracle after a recluster: clusters_ and the coverable bits equal
  // a full admission over freshly queried candidates of every target.
  [[nodiscard]] bool clusters_match_full_admission() const;

  // --- activity management ---------------------------------------------
  // Teleport motion and construction (`moved` == kInvalidId): Algorithm 1
  // re-run over the clusters recluster_inputs() names, then every cluster
  // restarts its round robin at its lowest-id operational member.
  void recluster(TargetId moved);
  // Scoped re-clustering for a random-waypoint step: only sensors in range
  // of the target's old/new position are re-assigned.
  void recluster_moved_target(TargetId t, Vec2 old_pos);
  // Re-enters a revived sensor into clustering immediately (it may have
  // been stranded when its cluster's target walked away while it was dead).
  void revive_membership(SensorId s);
  // Splices a RebalanceResult into rotors, monitors/activation, coverage
  // counters and ERP evaluation for the affected clusters.
  void apply_rebalance(const RebalanceResult& res, std::vector<TargetId> affected);
  [[nodiscard]] std::vector<Vec2> current_target_positions() const;
  void set_monitor(TargetId t, SensorId s);  // kInvalidId clears
  // Moves the traffic flow of `from` to `to`, either of which may be
  // kInvalidId (or, for `from`, a sensor without a flow): one swap when
  // both are set, else a plain removal or addition.
  void move_flow(SensorId from, SensorId to);
  // Full-time policy: puts `s` on duty exactly when it is an operational
  // cluster member, adding or removing its flow.
  void sync_full_time_duty(SensorId s);
  void evaluate_cluster_requests(ClusterId c);
  void add_request(SensorId s);
  void handle_death(SensorId s);

  // --- fault model (src/fault/; all no-ops when fault_ is null) ---------
  // A sensor is eligible to monitor when it is alive AND its sensing
  // hardware is not in a transient fault window. With faults disabled
  // hw_fault is all-zero and this degenerates to alive().
  [[nodiscard]] bool operational(SensorId s) const {
    return soa_.operational(s);
  }
  // Appends the sensor's request to the recharge node list (the uplink
  // reached the base station).
  void deliver_request(SensorId s);
  // Rolls the fault plan's verdict for the next uplink attempt: delivers,
  // schedules a delayed delivery, schedules a backoff retry, or expires the
  // request after max_retries. Returns whether the request was delivered.
  bool attempt_uplink(SensorId s);
  void expire_request(SensorId s);

  // --- RV control -----------------------------------------------------------
  void dispatch();
  void assign_plan(Rv& rv, const std::vector<RechargeItem>& items,
                   const std::vector<std::size_t>& seq);
  void start_next_leg(Rv& rv);
  void return_to_base(Rv& rv);
  void begin_self_charge(Rv& rv);
  // The one shared refill fallback: an RV with nothing (affordable) to do
  // heads home, or tops up at the dock if already there. Every policy
  // outcome that ends a round without a plan funnels through here.
  void head_home_and_refill(Rv& rv);
  void abandon_plan(Rv& rv);
  [[nodiscard]] Joule rv_reserve() const;
  // Settles every unclaimed requesting sensor and fills `items` with their
  // aggregated recharge items and `arrival` with them oldest request first:
  // one dispatch round's request snapshot.
  void collect_unclaimed(std::vector<RechargeItem>& items,
                         std::vector<SensorId>& arrival);
  // Debug check: a fresh collect_unclaimed equals the snapshot in
  // items_scratch_ / arrival_scratch_ that the round is reusing.
  [[nodiscard]] bool round_snapshot_current();

  // --- misc ------------------------------------------------------------
  // Ends every span still open at the simulation horizon (open requests
  // become "unserved" / "died-waiting", RV segments "sim-end"). Runs once.
  void close_spans();
  [[nodiscard]] double effective_erp() const;
  [[nodiscard]] bool sensor_critical(SensorId s) const;
  void record_sample();

  SimConfig config_;
  RngStreams streams_;
  Xoshiro256 target_rng_;
  Xoshiro256 sched_rng_;

  Network net_;
  TrafficModel traffic_;

  ClusterSet clusters_;
  std::vector<ClusterRotor> rotors_;             // per target
  std::vector<SensorId> active_monitor_;        // per target (RR policy)
  std::vector<bool> coverable_;                  // per target: any sensor in range

  RechargeNodeList requests_;
  std::vector<double> request_time_;             // per sensor, -1 when none
  std::unordered_set<SensorId> claimed_;

  std::vector<Rv> rvs_;
  // The scheduling scheme, instantiated from the registry by name
  // (config_.scheduler) at construction.
  std::unique_ptr<SchedulerPolicy> policy_;

  // --- fault-injection state (null when faults are disabled; the per-sensor
  // hw-fault flags live in soa_.hw_fault) --
  std::unique_ptr<FaultInjector> fault_;
  // Uplink retry/TTL state machine: epoch guards pending kRequestUplink
  // events, attempt counts the uplink tries of the current request, pending
  // records what the in-flight event means (delayed delivery vs retry).
  enum class UplinkPending : std::uint8_t { kNone, kDeliver, kRetry };
  std::vector<std::uint64_t> uplink_epoch_;
  std::vector<std::uint64_t> uplink_attempt_;
  std::vector<UplinkPending> uplink_pending_;
  // Failover bookkeeping: when a breakdown strands a service queue, each
  // stranded sensor is stamped so its eventual recharge yields a
  // time-to-recovery sample. Per RV: index of the next plan window and the
  // start of the current breakdown.
  std::vector<double> stranded_since_;           // per sensor, -1 when none
  std::vector<std::size_t> rv_breakdown_idx_;
  std::vector<double> breakdown_began_;          // per RV, -1 when healthy

  // Random-waypoint motion state (kRandomWaypoint only).
  std::vector<Vec2> target_waypoint_;
  std::vector<bool> target_dwelling_;

  EventQueue queue_;
  double now_ = 0.0;
  double end_ = 0.0;
  bool finished_ = false;

  // Per-sensor hot state (level/capacity/drain/last-settle/position/epoch/
  // death-processed/hw-fault) as packed parallel arrays; the settlement,
  // drain-refresh and crossing-prediction loops run over these. Battery
  // levels are mirrored back into net_ at every mutation so external
  // readers stay current (see sim/sensor_soa.hpp).
  SensorSoa soa_;
  double sensor_energy_consumed_ = 0.0;          // J, cumulative
  DirtySet drain_marks_;                         // pending update_drain targets

  // Incremental target bucket grid: answers "targets within sensing range
  // of this sensor" for the scoped rebalances without an O(M) scan (see
  // sim/target_index.hpp). Maintained on every
  // target waypoint step; cand_scratch_ is the reusable query buffer for
  // rebalance_dirty's candidate-set input.
  TargetIndex target_index_;
  std::vector<std::vector<TargetId>> cand_scratch_;
  // Teleport-recluster state. recluster_cand_ caches each target's
  // candidate list as of the last recluster (cleared on restore, which
  // forces a full refresh); alive_flips_ collects the sensors whose alive
  // flag flipped since, which are all a cached list can go stale by.
  // readmit_ is recluster_inputs()' output; the rest is scratch.
  std::vector<std::vector<SensorId>> recluster_cand_;
  DirtySet alive_flips_;
  std::vector<TargetId> readmit_;
  std::vector<std::vector<SensorId>> old_cand_;  // per refreshed target
  DirtySet refreshed_targets_;
  DirtySet readmit_marks_;
  DirtySet visited_sensors_;
  std::vector<TargetId> component_queue_;
  std::vector<TargetId> covering_scratch_;
  std::vector<SensorId> readmit_members_;     // the old members of readmit_
  std::vector<SensorId> monitor_scratch_;     // the monitors before a recluster
  std::vector<std::pair<SensorId, SensorId>> handoffs_;  // retired -> chosen
  AdmissionScratch admission_scratch_;

  // Derived-state counters (derived_state(); validated against the
  // oracle's rescans by the equivalence suite).
  std::size_t alive_count_ = 0;
  std::size_t coverable_count_ = 0;
  std::size_t covered_count_ = 0;                // coverable AND covered
  std::vector<bool> covered_;                    // per target
  std::vector<std::size_t> alive_members_;       // per target, alive members
  // Every sensor whose alive flag flipped since the last refresh_routing
  // (a restore marks those that differ from the restored mask);
  // flipped_scratch_ holds the ones still differing, ascending.
  DirtySet routing_flips_;
  std::vector<SensorId> flipped_scratch_;

  // Dispatch-round scratch, reused across rounds to avoid reallocating the
  // item / fleet / arrival lists every dispatch. items_scratch_ and
  // arrival_scratch_ hold the round's request snapshot (see dispatch()).
  std::vector<RechargeRequest> unclaimed_scratch_;
  std::vector<RechargeItem> items_scratch_;
  std::vector<Vec2> fleet_scratch_;
  std::vector<SensorId> arrival_scratch_;

  MetricsIntegrator metrics_;
  CheckpointHook checkpoint_hook_;
  bool record_series_ = false;
  TimeSeries series_;
  TraceFn tracer_;
  obs::TraceSink* trace_sink_ = nullptr;
  std::uint64_t events_processed_ = 0;

  // Span tracing + flight recorder (optional, never physics-relevant).
  // Cached span ids play the role the cached Counter* handles play for
  // telemetry: the hot path updates them without any lookups.
  obs::SpanLog* spans_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  bool spans_closed_ = false;
  std::vector<std::uint64_t> request_span_;       // per sensor, 0 = none
  std::vector<std::uint64_t> rv_tour_span_;       // per RV, 0 = not touring
  std::vector<std::uint64_t> rv_leg_span_;        // per RV: current travel/
                                                  // charge/return/self-charge
  std::vector<std::uint64_t> rv_breakdown_span_;  // per RV, 0 = healthy
  // Latency-breakdown stamps (always on: they feed the wait/travel/service
  // percentiles in MetricsReport, with or without spans attached).
  std::vector<double> req_travel_accum_;  // per sensor: approach-leg seconds
  std::vector<double> leg_began_;         // per RV: departure of current leg
  std::vector<double> charge_began_;      // per RV: start of current dwell

  // Telemetry (optional, never physics-relevant). Counter handles are
  // resolved once in set_telemetry so the hot loops update them without
  // registry lookups.
  obs::TelemetryRegistry* telemetry_ = nullptr;
  std::array<obs::Counter*, kNumEventKinds> pop_counters_{};
  obs::Counter* stale_counter_ = nullptr;
  obs::Counter* settle_counter_ = nullptr;        // battery settlements
  obs::Counter* drain_update_counter_ = nullptr;  // drain changes applied
  obs::Counter* readmitted_counter_ = nullptr;    // clusters re-admitted
  obs::Counter* branch_counter_ = nullptr;        // nodes walked by swaps
  obs::Counter* route_repair_counter_ = nullptr;  // forests repaired in place
  obs::Counter* route_build_counter_ = nullptr;   // full forest rebuilds
  obs::Counter* route_node_counter_ = nullptr;    // nodes repairs rewrote
  obs::Counter* fault_lost_counter_ = nullptr;
  obs::Counter* fault_retried_counter_ = nullptr;
  obs::Counter* fault_expired_counter_ = nullptr;
  obs::Counter* fault_breakdown_counter_ = nullptr;
  obs::Counter* fault_failover_counter_ = nullptr;
  obs::Counter* fault_hw_fault_counter_ = nullptr;
  obs::Gauge* queue_hwm_gauge_ = nullptr;
  std::size_t queue_hwm_ = 0;
};

}  // namespace wrsn
