#include "core/config.hpp"

#include <cmath>

#include "core/error.hpp"

namespace wrsn {

void SimConfig::validate() const {
  // Infinity passes every `> 0` comparison and NaN fails them with a
  // misleading message, so reject non-finite inputs up front. Parsing a
  // config file can produce either (e.g. "inf" / "nan" parse as doubles).
  const double finite_checks[] = {
      field_side.value(), comm_range.value(), sensing_range.value(),
      sim_duration.value(), target_period.value(), data_rate_pkt_per_min,
      target_speed.value(), energy_request_percentage, activation_slot.value(),
      critical_fraction, battery.capacity.value(), battery.threshold_fraction,
      battery.self_discharge_per_day, rv.capacity.value(), rv.move_cost.value(),
      rv.speed.value(), rv.charge_power.value(), rv.base_recharge_power.value(),
      rv.reserve_fraction, rv.self_recharge_fraction, rv.charge_knee_soc,
      rv.charge_trickle_fraction, metrics_sample_period.value(),
      radio.bitrate_bps, radio.listen_duty_cycle, radio.tx_power.value(),
      radio.rx_power.value(), radio.idle_power.value(),
      sensing.active_power.value(), sensing.idle_power.value(),
      fault.request_loss_prob, fault.request_delay_prob,
      fault.request_delay_max.value(), fault.request_retry_timeout.value(),
      fault.request_retry_backoff, fault.rv_mtbf_hours,
      fault.rv_repair_duration.value(), fault.rv_breakdown_at.value(),
      fault.sensor_fault_rate_per_day, fault.sensor_fault_duration.value(),
      fault.battery_noise_per_day, link.loss_floor, link.loss_at_range,
      link.loss_exponent, link.rx_duty_tax};
  for (const double v : finite_checks) {
    WRSN_REQUIRE(std::isfinite(v), "configuration values must be finite");
  }
  // Registry membership is checked where the name is resolved (config_io
  // parsing and World construction); core only rejects the trivially bad.
  WRSN_REQUIRE(!scheduler.empty(), "scheduler name must be non-empty");
  WRSN_REQUIRE(!routing.empty(), "routing policy name must be non-empty");
  WRSN_REQUIRE(num_sensors > 0, "need at least one sensor");
  WRSN_REQUIRE(num_rvs > 0, "need at least one RV");
  WRSN_REQUIRE(field_side.value() > 0.0, "field side must be positive");
  WRSN_REQUIRE(comm_range.value() > 0.0, "communication range must be positive");
  WRSN_REQUIRE(sensing_range.value() > 0.0, "sensing range must be positive");
  WRSN_REQUIRE(sim_duration.value() > 0.0, "simulation duration must be positive");
  WRSN_REQUIRE(target_period.value() > 0.0, "target period must be positive");
  WRSN_REQUIRE(data_rate_pkt_per_min >= 0.0, "data rate must be non-negative");
  WRSN_REQUIRE(target_speed.value() > 0.0, "target speed must be positive");
  WRSN_REQUIRE(energy_request_percentage >= 0.0 && energy_request_percentage <= 1.0,
               "ERP must lie in [0,1]");
  WRSN_REQUIRE(activation_slot.value() > 0.0, "activation slot must be positive");
  WRSN_REQUIRE(critical_fraction >= 0.0 && critical_fraction < 1.0,
               "critical fraction must lie in [0,1)");
  WRSN_REQUIRE(battery.capacity.value() > 0.0, "battery capacity must be positive");
  WRSN_REQUIRE(battery.threshold_fraction > 0.0 && battery.threshold_fraction < 1.0,
               "battery threshold fraction must lie in (0,1)");
  WRSN_REQUIRE(battery.self_discharge_per_day >= 0.0 &&
                   battery.self_discharge_per_day < 1.0,
               "self-discharge per day must lie in [0,1)");
  WRSN_REQUIRE(rv.capacity.value() > 0.0, "RV capacity must be positive");
  WRSN_REQUIRE(rv.move_cost.value() >= 0.0, "RV move cost must be non-negative");
  WRSN_REQUIRE(rv.speed.value() > 0.0, "RV speed must be positive");
  WRSN_REQUIRE(rv.charge_power.value() > 0.0, "RV charge power must be positive");
  WRSN_REQUIRE(rv.base_recharge_power.value() > 0.0,
               "base recharge power must be positive");
  WRSN_REQUIRE(rv.reserve_fraction >= 0.0 && rv.reserve_fraction < 1.0,
               "RV reserve fraction must lie in [0,1)");
  WRSN_REQUIRE(rv.charge_knee_soc > 0.0 && rv.charge_knee_soc < 1.0,
               "charge knee SoC must lie in (0,1)");
  WRSN_REQUIRE(rv.charge_trickle_fraction > 0.0 && rv.charge_trickle_fraction <= 1.0,
               "charge trickle fraction must lie in (0,1]");
  WRSN_REQUIRE(rv.self_recharge_fraction >= rv.reserve_fraction &&
                   rv.self_recharge_fraction < 1.0,
               "RV self-recharge fraction must lie in [reserve, 1)");
  WRSN_REQUIRE(metrics_sample_period.value() > 0.0,
               "metrics sample period must be positive");
  WRSN_REQUIRE(radio.bitrate_bps > 0.0, "radio bitrate must be positive");
  WRSN_REQUIRE(radio.listen_duty_cycle >= 0.0 && radio.listen_duty_cycle <= 1.0,
               "listen duty cycle must lie in [0,1]");
  WRSN_REQUIRE(radio.tx_power.value() >= 0.0 && radio.rx_power.value() >= 0.0 &&
                   radio.idle_power.value() >= 0.0,
               "radio powers must be non-negative");
  WRSN_REQUIRE(sensing.active_power.value() >= 0.0 &&
                   sensing.idle_power.value() >= 0.0,
               "sensing powers must be non-negative");
  WRSN_REQUIRE(fault.request_loss_prob >= 0.0 && fault.request_loss_prob <= 1.0,
               "fault request loss probability must lie in [0,1]");
  WRSN_REQUIRE(fault.request_delay_prob >= 0.0 && fault.request_delay_prob <= 1.0,
               "fault request delay probability must lie in [0,1]");
  WRSN_REQUIRE(fault.request_delay_max.value() >= 0.0,
               "fault request delay max must be non-negative");
  WRSN_REQUIRE(fault.request_retry_timeout.value() > 0.0,
               "fault request retry timeout must be positive");
  WRSN_REQUIRE(fault.request_retry_backoff >= 1.0,
               "fault request retry backoff must be at least 1");
  WRSN_REQUIRE(fault.rv_mtbf_hours >= 0.0, "RV MTBF must be non-negative");
  WRSN_REQUIRE(fault.rv_repair_duration.value() > 0.0,
               "RV repair duration must be positive");
  WRSN_REQUIRE(fault.sensor_fault_rate_per_day >= 0.0,
               "sensor fault rate must be non-negative");
  WRSN_REQUIRE(fault.sensor_fault_duration.value() > 0.0,
               "sensor fault duration must be positive");
  WRSN_REQUIRE(fault.battery_noise_per_day >= 0.0 &&
                   fault.battery_noise_per_day < 1.0,
               "battery noise per day must lie in [0,1)");
  WRSN_REQUIRE(link.loss_floor >= 0.0 && link.loss_floor <= 1.0,
               "link loss floor must lie in [0,1]");
  WRSN_REQUIRE(link.loss_at_range >= 0.0 && link.loss_at_range <= 1.0,
               "link loss at range must lie in [0,1]");
  WRSN_REQUIRE(link.loss_exponent > 0.0, "link loss exponent must be positive");
  WRSN_REQUIRE(link.max_retx >= 1, "link max retransmissions must be at least 1");
  WRSN_REQUIRE(link.rx_duty_tax >= 0.0 && link.rx_duty_tax <= 1.0,
               "link rx duty tax must lie in [0,1]");
}

}  // namespace wrsn
