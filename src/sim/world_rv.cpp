// RV dispatch and motion: the scheduling half of the World (Section IV).
#include <algorithm>
#include <limits>

#include "core/error.hpp"
#include "energy/charge_profile.hpp"
#include "sched/tsp.hpp"
#include "sim/world.hpp"

namespace wrsn {

Joule World::rv_reserve() const {
  return config_.rv.capacity * config_.rv.reserve_fraction;
}

void World::collect_unclaimed(std::vector<RechargeItem>& items,
                              std::vector<SensorId>& arrival) {
  // Demands drift while requests wait; refresh them so planners see current
  // values (the base station learns levels from status reports).
  unclaimed_scratch_.clear();
  arrival.clear();
  requests_.for_each([&](const RechargeRequest& r) {
    if (claimed_.contains(r.sensor)) return;
    settle_sensor(r.sensor);  // decision point: planners see current levels
    requests_.update(r.sensor, net_.sensor(r.sensor).battery.demand(),
                     sensor_critical(r.sensor),
                     net_.sensor(r.sensor).battery.fraction());
    unclaimed_scratch_.push_back(r);  // `r` is the entry update() refreshed
    arrival.push_back(r.sensor);
  });
  items = aggregate_requests(unclaimed_scratch_);
}

bool World::round_snapshot_current() {
  std::vector<RechargeItem> items;
  std::vector<SensorId> arrival;
  collect_unclaimed(items, arrival);
  return items == items_scratch_ && arrival == arrival_scratch_;
}

void World::dispatch() {
  const PlannerParams params{config_.rv.move_cost, net_.base_station()};

  // The round's request snapshot (items_scratch_, arrival_scratch_) is built
  // at the first idle RV that needs it and reused by the RVs after it. Only
  // assign_plan (and the abandon_plan inside it) changes claimed_, so only
  // a plan forces a rebuild; any other rebuild would settle no sensor (they
  // are all settled at now_) and rewrite the same values.
  bool snapshot_current = false;
  for (Rv& rv : rvs_) {
    if (!rv.idle()) continue;

    // Low battery: head home and refill before taking new work.
    if (rv.battery.fraction() < config_.rv.self_recharge_fraction) {
      head_home_and_refill(rv);
      continue;
    }

    if (snapshot_current) {
      WRSN_DEBUG_ASSERT(round_snapshot_current(),
                        "dispatch round reused a stale request snapshot");
    } else {
      collect_unclaimed(items_scratch_, arrival_scratch_);
      snapshot_current = true;
    }
    const std::vector<RechargeItem>& items = items_scratch_;
    if (items.empty()) {
      if (rv.in_field) return_to_base(rv);
      continue;
    }

    // Assemble the read-only facade the policy plans against. Fleet
    // positions are per RV: return_to_base at the dock snaps rv.pos.
    const RvPlanState state{rv.pos, rv.battery.level() - rv_reserve()};
    fleet_scratch_.clear();
    fleet_scratch_.reserve(rvs_.size());
    for (const Rv& other : rvs_) fleet_scratch_.push_back(other.pos);
    const DispatchContext ctx(
        items, state, params, rv.id, fleet_scratch_, config_.num_rvs,
        sched_rng_, arrival_scratch_,
        [this](SensorId s) {
          return SensorView{net_.sensor(s).pos,
                            net_.sensor(s).battery.demand(),
                            sensor_critical(s)};
        });

    const DispatchDecision decision = policy_->decide(ctx);
    switch (decision.kind) {
      case DispatchDecision::Kind::kPlan:
        assign_plan(rv, decision.items, decision.sequence);
        snapshot_current = false;
        break;
      case DispatchDecision::Kind::kReturnToBase:
        if (rv.in_field) return_to_base(rv);
        break;
      case DispatchDecision::Kind::kSelfCharge:
        head_home_and_refill(rv);
        break;
      case DispatchDecision::Kind::kHold:
        break;
    }
  }
}

void World::head_home_and_refill(Rv& rv) {
  if (rv.in_field) {
    return_to_base(rv);
  } else if (rv.battery.level() < rv.battery.capacity()) {
    begin_self_charge(rv);
  }
}

void World::assign_plan(Rv& rv, const std::vector<RechargeItem>& items,
                        const std::vector<std::size_t>& seq) {
  WRSN_ASSERT(rv.idle(), "plans can only be assigned to idle RVs");
  WRSN_ASSERT(rv.service_queue.empty(), "plan assigned over a pending queue");
  WRSN_ASSERT(!seq.empty(), "empty plan");
  std::vector<SensorId> visit;
  Vec2 cur = rv.pos;
  for (std::size_t idx : seq) {
    const RechargeItem& item = items[idx];
    // Inside a cluster the visiting order is a nearest-neighbour tour
    // (Section IV-C).
    std::vector<Vec2> positions;
    positions.reserve(item.sensors.size());
    for (SensorId s : item.sensors) positions.push_back(net_.sensor(s).pos);
    const auto order = nearest_neighbor_tour(cur, positions);
    for (std::size_t k : order) visit.push_back(item.sensors[k]);
    if (!order.empty()) cur = positions[order.back()];
  }
  if (config_.two_opt_tours && visit.size() > 2) {
    // Library extension: polish the whole flattened route.
    std::vector<Vec2> positions;
    positions.reserve(visit.size());
    for (SensorId s : visit) positions.push_back(net_.sensor(s).pos);
    std::vector<std::size_t> order(visit.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    two_opt(rv.pos, positions, order);
    std::vector<SensorId> improved;
    improved.reserve(visit.size());
    for (std::size_t i : order) improved.push_back(visit[i]);
    visit = std::move(improved);
  }
  for (SensorId s : visit) {
    WRSN_ASSERT(!claimed_.contains(s), "sensor claimed twice");
    claimed_.insert(s);
    rv.service_queue.push_back(s);
    if (spans_ != nullptr && request_span_[s] != 0) {
      spans_->mark(request_span_[s], "claimed", now_, "",
                   static_cast<double>(rv.id));
    }
  }
  if (!rv.in_field) {
    rv.in_field = true;
    metrics_.on_rv_tour_started();
    if (spans_ != nullptr) {
      rv_tour_span_[rv.id] = spans_->begin("rv", rv.id, "tour", now_);
    }
  }
  start_next_leg(rv);
}

void World::start_next_leg(Rv& rv) {
  WRSN_ASSERT(!rv.service_queue.empty(), "no leg to start");
  const SensorId next = rv.service_queue.front();
  const Vec2 dest = net_.sensor(next).pos;
  const Meter leg{distance(rv.pos, dest)};
  const Meter home{distance(dest, net_.base_station())};
  const Joule need = config_.rv.move_cost * leg + config_.rv.move_cost * home +
                     rv_reserve();
  if (rv.battery.level() < need) {
    abandon_plan(rv);
    return_to_base(rv);
    return;
  }
  rv.state = Rv::State::kTraveling;
  ++rv.epoch;
  rv.battery.drain(config_.rv.move_cost * leg);
  metrics_.on_rv_leg(leg, config_.rv.move_cost * leg);
  rv.distance_traveled += leg.value();
  const double arrive = now_ + (leg / config_.rv.speed).value();
  queue_.push(arrive, EventKind::kRvArrival, rv.id, rv.epoch);
  leg_began_[rv.id] = now_;
  if (spans_ != nullptr) {
    rv_leg_span_[rv.id] =
        spans_->begin("rv", rv.id, "travel", now_, rv_tour_span_[rv.id]);
  }
}

void World::return_to_base(Rv& rv) {
  const Meter leg{distance(rv.pos, net_.base_station())};
  if (leg.value() <= 1e-9) {
    rv.pos = net_.base_station();
    rv.in_field = false;
    if (spans_ != nullptr && rv_tour_span_[rv.id] != 0) {
      spans_->end(rv_tour_span_[rv.id], now_, "completed");
      rv_tour_span_[rv.id] = 0;
    }
    if (rv.battery.level() < rv.battery.capacity()) {
      begin_self_charge(rv);
    } else {
      rv.state = Rv::State::kIdle;
    }
    return;
  }
  rv.state = Rv::State::kReturning;
  ++rv.epoch;
  rv.battery.drain(config_.rv.move_cost * leg);
  metrics_.on_rv_leg(leg, config_.rv.move_cost * leg);
  rv.distance_traveled += leg.value();
  const double arrive = now_ + (leg / config_.rv.speed).value();
  queue_.push(arrive, EventKind::kRvArrival, rv.id, rv.epoch);
  if (spans_ != nullptr) {
    rv_leg_span_[rv.id] =
        spans_->begin("rv", rv.id, "return", now_, rv_tour_span_[rv.id]);
  }
}

void World::begin_self_charge(Rv& rv) {
  rv.state = Rv::State::kSelfCharging;
  ++rv.epoch;
  const Second dwell = rv.battery.demand() / config_.rv.base_recharge_power;
  queue_.push(now_ + dwell.value(), EventKind::kRvBaseChargeDone, rv.id, rv.epoch);
  if (spans_ != nullptr) {
    rv_leg_span_[rv.id] = spans_->begin("rv", rv.id, "self-charge", now_);
  }
}

void World::abandon_plan(Rv& rv) {
  for (SensorId s : rv.service_queue) claimed_.erase(s);
  rv.service_queue.clear();
}

void World::on_rv_arrival(RvId r) {
  Rv& rv = rvs_[r];
  if (rv.state == Rv::State::kReturning) {
    rv.pos = net_.base_station();
    rv.in_field = false;
    if (spans_ != nullptr) {
      if (rv_leg_span_[r] != 0) {
        spans_->end(rv_leg_span_[r], now_, "arrived");
        rv_leg_span_[r] = 0;
      }
      if (rv_tour_span_[r] != 0) {
        spans_->end(rv_tour_span_[r], now_, "completed");
        rv_tour_span_[r] = 0;
      }
    }
    if (rv.battery.level() < rv.battery.capacity()) {
      begin_self_charge(rv);
    } else {
      rv.state = Rv::State::kIdle;
      dispatch();
    }
    return;
  }
  WRSN_ASSERT(rv.state == Rv::State::kTraveling, "arrival in unexpected state");
  WRSN_ASSERT(!rv.service_queue.empty(), "arrived with empty queue");
  const SensorId s = rv.service_queue.front();
  req_travel_accum_[s] += now_ - leg_began_[r];
  charge_began_[r] = now_;
  rv.pos = net_.sensor(s).pos;
  rv.state = Rv::State::kCharging;
  ++rv.epoch;
  if (spans_ != nullptr) {
    if (rv_leg_span_[r] != 0) {
      spans_->end(rv_leg_span_[r], now_, "arrived");
      rv_leg_span_[r] = 0;
    }
    rv_leg_span_[r] = spans_->begin("rv", r, "charge", now_, rv_tour_span_[r]);
  }
  settle_sensor(s);  // dwell is computed from the node's current level
  // Deliver up to the node's demand, bounded by what the RV can spare and
  // still make it home (constraint (7) + the reserve).
  const Joule spare = rv.battery.level() -
                      config_.rv.move_cost *
                          Meter{distance(rv.pos, net_.base_station())} -
                      rv_reserve();
  const Joule planned =
      std::max(Joule{0.0}, std::min(net_.sensor(s).battery.demand(), spare));
  // Dwell follows the configured charge-acceptance model (ref. [15]).
  const ChargeProfile profile{config_.rv.charge_profile, config_.rv.charge_power,
                              config_.rv.charge_knee_soc,
                              config_.rv.charge_trickle_fraction};
  const Second dwell = profile.time_to_reach(
      net_.sensor(s).battery, net_.sensor(s).battery.level() + planned);
  queue_.push(now_ + dwell.value(), EventKind::kRvChargeDone, rv.id, rv.epoch);
}

void World::on_rv_charge_done(RvId r) {
  Rv& rv = rvs_[r];
  WRSN_ASSERT(rv.state == Rv::State::kCharging, "charge-done in unexpected state");
  WRSN_ASSERT(!rv.service_queue.empty(), "charge-done with empty queue");
  const SensorId s = rv.service_queue.front();
  rv.service_queue.pop_front();

  settle_sensor(s);  // realize the drain over the dwell before topping up
  Sensor& sensor = net_.sensor(s);
  const bool was_dead = !soa_.alive(s);
  const Joule spare = rv.battery.level() -
                      config_.rv.move_cost *
                          Meter{distance(rv.pos, net_.base_station())} -
                      rv_reserve();
  const Joule delivered =
      std::max(Joule{0.0}, std::min(sensor.battery.demand(), spare));
  sensor.battery.charge(delivered);
  soa_.level[s] = sensor.battery.level().value();  // mirror into the hot block
  rv.battery.drain(delivered);

  const double requested_at = request_time_[s];
  const Second latency{requested_at >= 0.0 ? now_ - requested_at : 0.0};
  metrics_.on_recharge(s, delivered, latency);
  // Decompose the end-to-end latency: service is this final dwell, travel
  // the accumulated approach legs toward this sensor, wait the remainder
  // (base-station queueing plus time stranded behind breakdowns).
  if (requested_at >= 0.0) {
    const double service = now_ - charge_began_[r];
    const double travel = req_travel_accum_[s];
    const double wait = std::max(0.0, latency.value() - travel - service);
    metrics_.on_recharge_breakdown(Second{wait}, Second{travel}, Second{service});
  } else {
    metrics_.on_recharge_breakdown(Second{0.0}, Second{0.0}, Second{0.0});
  }
  rv.energy_delivered += delivered.value();
  ++rv.nodes_served;
  if (spans_ != nullptr) {
    if (rv_leg_span_[r] != 0) {
      spans_->end(rv_leg_span_[r], now_, "served", delivered.value());
      rv_leg_span_[r] = 0;
    }
    if (request_span_[s] != 0) {
      spans_->end(request_span_[s], now_, "served", delivered.value());
      request_span_[s] = 0;
    }
  }

  sensor.recharge_requested = false;
  requests_.remove(s);
  claimed_.erase(s);
  request_time_[s] = -1.0;
  invalidate_crossing(s);
  WRSN_DEBUG_ASSERT(requests_.consistent(),
                    "recharge list inconsistent after remove");
  if (fault_ != nullptr) {
    ++uplink_epoch_[s];  // cancel any pending retry for the satisfied request
    uplink_pending_[s] = UplinkPending::kNone;
    if (stranded_since_[s] >= 0.0) {
      // Time-to-recovery: breakdown that stranded this sensor -> recharged.
      metrics_.on_failover_recovery(Second{now_ - stranded_since_[s]});
      stranded_since_[s] = -1.0;
    }
  }

  if (was_dead && soa_.alive(s)) {
    // Revived node rejoins the relay fabric and its cluster immediately (it
    // may have been stranded when its cluster's target walked away).
    on_sensor_alive_changed(s, true);
    soa_.death_processed[s] = 0;
    mark_drain_dirty(s);
    refresh_routing();
    revive_membership(s);
  } else {
    if (!soa_.alive(s) && soa_.death_processed[s] == 0) {
      // The epoch bump above invalidated the pending death crossing (the
      // node was depleted but undeliverable); process the death here so it
      // is never lost.
      handle_death(s);
    }
    mark_drain_dirty(s);
  }
  request_drain_refresh();
  schedule_crossing(s);

  rv.state = Rv::State::kIdle;
  if (!rv.service_queue.empty()) {
    start_next_leg(rv);
  } else {
    dispatch();
  }
}

void World::on_rv_base_charge_done(RvId r) {
  Rv& rv = rvs_[r];
  WRSN_ASSERT(rv.state == Rv::State::kSelfCharging,
              "base-charge-done in unexpected state");
  const Joule drawn = rv.battery.demand();
  rv.battery.refill();
  metrics_.on_rv_base_recharge(drawn);
  if (spans_ != nullptr && rv_leg_span_[r] != 0) {
    spans_->end(rv_leg_span_[r], now_, "refilled", drawn.value());
    rv_leg_span_[r] = 0;
  }
  rv.state = Rv::State::kIdle;
  dispatch();
}

// ---------------------------------------------------------------------------
// Fault model: breakdowns and failover (src/fault/)
// ---------------------------------------------------------------------------

void World::on_rv_breakdown(RvId r) {
  Rv& rv = rvs_[r];
  // Consume this plan window whether or not it takes effect, so the index
  // stays aligned with the construction-time event pushes.
  const FaultWindow& w = fault_->plan().rv_breakdowns(r)[rv_breakdown_idx_[r]++];
  if (rv.state == Rv::State::kBrokenDown) return;  // abutting windows collapse

  // The vehicle halts where it is: any in-flight arrival/charge-done/base-
  // charge event becomes stale. A leg in progress keeps its departure-time
  // position and energy accounting (the RV is towed from there).
  ++rv.epoch;
  rv.state = Rv::State::kBrokenDown;
  breakdown_began_[r] = now_;
  if (spans_ != nullptr) {
    if (rv_leg_span_[r] != 0) {
      spans_->end(rv_leg_span_[r], now_, "interrupted");
      rv_leg_span_[r] = 0;
    }
    rv_breakdown_span_[r] =
        spans_->begin("rv", r, "breakdown", now_, rv_tour_span_[r]);
  }

  std::size_t stranded = 0;
  if (config_.fault.rv_failover) {
    // Health-watchdog failover: un-claim the stranded service queue so the
    // requests (still in the recharge node list) are replanned across the
    // surviving RVs by the next dispatch.
    for (SensorId s : rv.service_queue) {
      claimed_.erase(s);
      if (stranded_since_[s] < 0.0) stranded_since_[s] = now_;
      if (spans_ != nullptr && request_span_[s] != 0) {
        spans_->mark(request_span_[s], "stranded", now_);
      }
      ++stranded;
    }
    rv.service_queue.clear();
    WRSN_DEBUG_ASSERT(requests_.consistent(),
                      "recharge list inconsistent after failover re-injection");
  }
  metrics_.on_rv_breakdown(stranded);
  if (fault_breakdown_counter_ != nullptr) fault_breakdown_counter_->add();
  if (fault_failover_counter_ != nullptr && stranded > 0) {
    fault_failover_counter_->add(stranded);
  }

  queue_.push(w.end, EventKind::kRvRepaired, r, rv.epoch);
  if (stranded > 0) dispatch();
}

void World::on_rv_repaired(RvId r) {
  Rv& rv = rvs_[r];
  WRSN_ASSERT(rv.state == Rv::State::kBrokenDown,
              "repair in unexpected state");
  metrics_.on_rv_repaired(Second{now_ - breakdown_began_[r]});
  breakdown_began_[r] = -1.0;
  ++rv.epoch;
  if (spans_ != nullptr && rv_breakdown_span_[r] != 0) {
    spans_->end(rv_breakdown_span_[r], now_, "repaired");
    rv_breakdown_span_[r] = 0;
  }

  if (config_.fault.rv_failover || rv.service_queue.empty()) {
    // Towed back to base and refilled by the repair crew.
    rv.pos = net_.base_station();
    rv.in_field = false;
    if (spans_ != nullptr && rv_tour_span_[r] != 0) {
      spans_->end(rv_tour_span_[r], now_, "towed");
      rv_tour_span_[r] = 0;
    }
    const Joule drawn = rv.battery.demand();
    if (drawn.value() > 0.0) {
      rv.battery.refill();
      metrics_.on_rv_base_recharge(drawn);
    }
    rv.state = Rv::State::kIdle;
    dispatch();
    return;
  }
  // No-failover control: repaired in the field, resumes the interrupted tour
  // (its claims were never released, so nobody else served them).
  rv.state = Rv::State::kIdle;
  start_next_leg(rv);
}

}  // namespace wrsn
