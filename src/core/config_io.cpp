#include "core/config_io.hpp"

#include <charconv>
#include <fstream>
#include <functional>
#include <sstream>

#include "core/error.hpp"
#include "net/routing.hpp"
#include "sched/policy.hpp"

namespace wrsn {

namespace {

struct KeyHandler {
  std::string name;
  std::function<std::string(const SimConfig&)> get;
  std::function<void(SimConfig&, const std::string&)> set;
};

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

double parse_double(const std::string& key, const std::string& value) {
  const std::string v = trim(value);
  std::size_t consumed = 0;
  double out = 0.0;
  try {
    out = std::stod(v, &consumed);
  } catch (const std::exception&) {
    throw InvalidArgument("config key '" + key + "': cannot parse number '" + v + "'");
  }
  WRSN_REQUIRE(consumed == v.size(),
               "config key '" + key + "': trailing junk in '" + v + "'");
  return out;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  const std::string v = trim(value);
  const std::optional<std::uint64_t> out = parse_decimal_u64(v);
  if (!out) {
    throw InvalidArgument("config key '" + key +
                          "' requires a non-negative integer below 2^64, got '" +
                          v + "'");
  }
  return *out;
}

bool parse_bool(const std::string& key, const std::string& value) {
  const std::string v = trim(value);
  if (v == "true" || v == "1" || v == "on" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "off" || v == "no") return false;
  throw InvalidArgument("config key '" + key + "': expected a boolean, got '" + v +
                        "'");
}

// Shortest round-trip formatting: the printed text parses back to the same
// double, bit for bit. Snapshot restore embeds the config as text, so any
// lossy formatting here would silently perturb a resumed run.
std::string fmt(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  WRSN_REQUIRE(ec == std::errc{}, "double formatting failed");
  return std::string(buf, ptr);
}

// The trimmed name, once `registry` knows it.
template <class Policy>
std::string registered(const Registry<Policy>& registry, const std::string& value) {
  std::string name = trim(value);
  registry.require(name);
  return name;
}

// A closed enum knob read through its name table; `field` selects the
// member on a const or mutable config, `kind` names it in errors.
template <class Enum, std::size_t N, class Field>
KeyHandler enum_key(std::string key, const char* kind, const EnumName<Enum> (&table)[N],
                    Field field) {
  return {std::move(key),
          [&table, field](const SimConfig& c) { return enum_name(table, field(c)); },
          [&table, kind, field](SimConfig& c, const std::string& v) {
            const std::string name = trim(v);
            for (const EnumName<Enum>& e : table) {
              if (name == e.name) {
                field(c) = e.value;
                return;
              }
            }
            throw unknown_name(kind, name, enum_names(table));
          }};
}

const std::vector<KeyHandler>& handlers() {
  static const std::vector<KeyHandler> kHandlers = {
      {"num_sensors",
       [](const SimConfig& c) { return std::to_string(c.num_sensors); },
       [](SimConfig& c, const std::string& v) {
         c.num_sensors = parse_u64("num_sensors", v);
       }},
      {"num_targets",
       [](const SimConfig& c) { return std::to_string(c.num_targets); },
       [](SimConfig& c, const std::string& v) {
         c.num_targets = parse_u64("num_targets", v);
       }},
      {"num_rvs", [](const SimConfig& c) { return std::to_string(c.num_rvs); },
       [](SimConfig& c, const std::string& v) { c.num_rvs = parse_u64("num_rvs", v); }},
      {"field_side_m",
       [](const SimConfig& c) { return fmt(c.field_side.value()); },
       [](SimConfig& c, const std::string& v) {
         c.field_side = meters(parse_double("field_side_m", v));
       }},
      {"comm_range_m",
       [](const SimConfig& c) { return fmt(c.comm_range.value()); },
       [](SimConfig& c, const std::string& v) {
         c.comm_range = meters(parse_double("comm_range_m", v));
       }},
      {"sensing_range_m",
       [](const SimConfig& c) { return fmt(c.sensing_range.value()); },
       [](SimConfig& c, const std::string& v) {
         c.sensing_range = meters(parse_double("sensing_range_m", v));
       }},
      {"sim_days",
       [](const SimConfig& c) { return fmt(c.sim_duration.value() / 86400.0); },
       [](SimConfig& c, const std::string& v) {
         c.sim_duration = days(parse_double("sim_days", v));
       }},
      {"target_period_h",
       [](const SimConfig& c) { return fmt(c.target_period.value() / 3600.0); },
       [](SimConfig& c, const std::string& v) {
         c.target_period = hours(parse_double("target_period_h", v));
       }},
      {"data_rate_pkt_per_min",
       [](const SimConfig& c) { return fmt(c.data_rate_pkt_per_min); },
       [](SimConfig& c, const std::string& v) {
         c.data_rate_pkt_per_min = parse_double("data_rate_pkt_per_min", v);
       }},
      enum_key("target_motion", "target motion", kTargetMotionNames,
               [](auto& c) -> auto& { return c.target_motion; }),
      {"target_speed_m_per_s",
       [](const SimConfig& c) { return fmt(c.target_speed.value()); },
       [](SimConfig& c, const std::string& v) {
         c.target_speed = MeterPerSecond{parse_double("target_speed_m_per_s", v)};
       }},
      {"scheduler", [](const SimConfig& c) { return c.scheduler; },
       [](SimConfig& c, const std::string& v) {
         c.scheduler = registered(SchedulerRegistry::instance(), v);
       }},
      {"routing", [](const SimConfig& c) { return c.routing; },
       [](SimConfig& c, const std::string& v) {
         c.routing = registered(RoutingRegistry::instance(), v);
       }},
      {"threads", [](const SimConfig& c) { return std::to_string(c.threads); },
       [](SimConfig& c, const std::string& v) { c.threads = parse_u64("threads", v); }},
      enum_key("activation", "activation policy", kActivationPolicyNames,
               [](auto& c) -> auto& { return c.activation; }),
      {"two_opt_tours",
       [](const SimConfig& c) { return c.two_opt_tours ? "true" : "false"; },
       [](SimConfig& c, const std::string& v) {
         c.two_opt_tours = parse_bool("two_opt_tours", v);
       }},
      {"energy_request_control",
       [](const SimConfig& c) { return c.energy_request_control ? "true" : "false"; },
       [](SimConfig& c, const std::string& v) {
         c.energy_request_control = parse_bool("energy_request_control", v);
       }},
      {"energy_request_percentage",
       [](const SimConfig& c) { return fmt(c.energy_request_percentage); },
       [](SimConfig& c, const std::string& v) {
         c.energy_request_percentage = parse_double("energy_request_percentage", v);
       }},
      {"activation_slot_min",
       [](const SimConfig& c) { return fmt(c.activation_slot.value() / 60.0); },
       [](SimConfig& c, const std::string& v) {
         c.activation_slot = minutes(parse_double("activation_slot_min", v));
       }},
      {"critical_fraction",
       [](const SimConfig& c) { return fmt(c.critical_fraction); },
       [](SimConfig& c, const std::string& v) {
         c.critical_fraction = parse_double("critical_fraction", v);
       }},
      {"radio.listen_duty_cycle",
       [](const SimConfig& c) { return fmt(c.radio.listen_duty_cycle); },
       [](SimConfig& c, const std::string& v) {
         c.radio.listen_duty_cycle = parse_double("radio.listen_duty_cycle", v);
       }},
      {"battery.capacity_j",
       [](const SimConfig& c) { return fmt(c.battery.capacity.value()); },
       [](SimConfig& c, const std::string& v) {
         c.battery.capacity = joules(parse_double("battery.capacity_j", v));
       }},
      {"battery.self_discharge_per_day",
       [](const SimConfig& c) { return fmt(c.battery.self_discharge_per_day); },
       [](SimConfig& c, const std::string& v) {
         c.battery.self_discharge_per_day =
             parse_double("battery.self_discharge_per_day", v);
       }},
      {"battery.threshold_fraction",
       [](const SimConfig& c) { return fmt(c.battery.threshold_fraction); },
       [](SimConfig& c, const std::string& v) {
         c.battery.threshold_fraction = parse_double("battery.threshold_fraction", v);
       }},
      {"rv.capacity_j",
       [](const SimConfig& c) { return fmt(c.rv.capacity.value()); },
       [](SimConfig& c, const std::string& v) {
         c.rv.capacity = joules(parse_double("rv.capacity_j", v));
       }},
      {"rv.move_cost_j_per_m",
       [](const SimConfig& c) { return fmt(c.rv.move_cost.value()); },
       [](SimConfig& c, const std::string& v) {
         c.rv.move_cost = JoulePerMeter{parse_double("rv.move_cost_j_per_m", v)};
       }},
      {"rv.speed_m_per_s",
       [](const SimConfig& c) { return fmt(c.rv.speed.value()); },
       [](SimConfig& c, const std::string& v) {
         c.rv.speed = MeterPerSecond{parse_double("rv.speed_m_per_s", v)};
       }},
      {"rv.charge_power_w",
       [](const SimConfig& c) { return fmt(c.rv.charge_power.value()); },
       [](SimConfig& c, const std::string& v) {
         c.rv.charge_power = watts(parse_double("rv.charge_power_w", v));
       }},
      enum_key("rv.charge_profile", "charge profile", kChargeProfileNames,
               [](auto& c) -> auto& { return c.rv.charge_profile; }),
      {"rv.charge_knee_soc",
       [](const SimConfig& c) { return fmt(c.rv.charge_knee_soc); },
       [](SimConfig& c, const std::string& v) {
         c.rv.charge_knee_soc = parse_double("rv.charge_knee_soc", v);
       }},
      {"rv.charge_trickle_fraction",
       [](const SimConfig& c) { return fmt(c.rv.charge_trickle_fraction); },
       [](SimConfig& c, const std::string& v) {
         c.rv.charge_trickle_fraction =
             parse_double("rv.charge_trickle_fraction", v);
       }},
      {"rv.base_recharge_power_w",
       [](const SimConfig& c) { return fmt(c.rv.base_recharge_power.value()); },
       [](SimConfig& c, const std::string& v) {
         c.rv.base_recharge_power =
             watts(parse_double("rv.base_recharge_power_w", v));
       }},
      {"rv.reserve_fraction",
       [](const SimConfig& c) { return fmt(c.rv.reserve_fraction); },
       [](SimConfig& c, const std::string& v) {
         c.rv.reserve_fraction = parse_double("rv.reserve_fraction", v);
       }},
      {"rv.self_recharge_fraction",
       [](const SimConfig& c) { return fmt(c.rv.self_recharge_fraction); },
       [](SimConfig& c, const std::string& v) {
         c.rv.self_recharge_fraction =
             parse_double("rv.self_recharge_fraction", v);
       }},
      {"metrics_sample_min",
       [](const SimConfig& c) { return fmt(c.metrics_sample_period.value() / 60.0); },
       [](SimConfig& c, const std::string& v) {
         c.metrics_sample_period = minutes(parse_double("metrics_sample_min", v));
       }},
      {"fault.enabled",
       [](const SimConfig& c) { return c.fault.enabled ? "true" : "false"; },
       [](SimConfig& c, const std::string& v) {
         c.fault.enabled = parse_bool("fault.enabled", v);
       }},
      {"fault.request_loss_prob",
       [](const SimConfig& c) { return fmt(c.fault.request_loss_prob); },
       [](SimConfig& c, const std::string& v) {
         c.fault.request_loss_prob = parse_double("fault.request_loss_prob", v);
       }},
      {"fault.request_delay_prob",
       [](const SimConfig& c) { return fmt(c.fault.request_delay_prob); },
       [](SimConfig& c, const std::string& v) {
         c.fault.request_delay_prob = parse_double("fault.request_delay_prob", v);
       }},
      {"fault.request_delay_max_min",
       [](const SimConfig& c) { return fmt(c.fault.request_delay_max.value() / 60.0); },
       [](SimConfig& c, const std::string& v) {
         c.fault.request_delay_max =
             minutes(parse_double("fault.request_delay_max_min", v));
       }},
      {"fault.request_retry_timeout_min",
       [](const SimConfig& c) {
         return fmt(c.fault.request_retry_timeout.value() / 60.0);
       },
       [](SimConfig& c, const std::string& v) {
         c.fault.request_retry_timeout =
             minutes(parse_double("fault.request_retry_timeout_min", v));
       }},
      {"fault.request_retry_backoff",
       [](const SimConfig& c) { return fmt(c.fault.request_retry_backoff); },
       [](SimConfig& c, const std::string& v) {
         c.fault.request_retry_backoff =
             parse_double("fault.request_retry_backoff", v);
       }},
      {"fault.request_max_retries",
       [](const SimConfig& c) { return std::to_string(c.fault.request_max_retries); },
       [](SimConfig& c, const std::string& v) {
         c.fault.request_max_retries = parse_u64("fault.request_max_retries", v);
       }},
      {"fault.rv_mtbf_hours",
       [](const SimConfig& c) { return fmt(c.fault.rv_mtbf_hours); },
       [](SimConfig& c, const std::string& v) {
         c.fault.rv_mtbf_hours = parse_double("fault.rv_mtbf_hours", v);
       }},
      {"fault.rv_repair_duration_h",
       [](const SimConfig& c) { return fmt(c.fault.rv_repair_duration.value() / 3600.0); },
       [](SimConfig& c, const std::string& v) {
         c.fault.rv_repair_duration =
             hours(parse_double("fault.rv_repair_duration_h", v));
       }},
      {"fault.rv_breakdown_at_h",
       [](const SimConfig& c) { return fmt(c.fault.rv_breakdown_at.value() / 3600.0); },
       [](SimConfig& c, const std::string& v) {
         c.fault.rv_breakdown_at = hours(parse_double("fault.rv_breakdown_at_h", v));
       }},
      {"fault.rv_failover",
       [](const SimConfig& c) { return c.fault.rv_failover ? "true" : "false"; },
       [](SimConfig& c, const std::string& v) {
         c.fault.rv_failover = parse_bool("fault.rv_failover", v);
       }},
      {"fault.sensor_fault_rate_per_day",
       [](const SimConfig& c) { return fmt(c.fault.sensor_fault_rate_per_day); },
       [](SimConfig& c, const std::string& v) {
         c.fault.sensor_fault_rate_per_day =
             parse_double("fault.sensor_fault_rate_per_day", v);
       }},
      {"fault.sensor_fault_duration_h",
       [](const SimConfig& c) {
         return fmt(c.fault.sensor_fault_duration.value() / 3600.0);
       },
       [](SimConfig& c, const std::string& v) {
         c.fault.sensor_fault_duration =
             hours(parse_double("fault.sensor_fault_duration_h", v));
       }},
      {"fault.battery_noise_per_day",
       [](const SimConfig& c) { return fmt(c.fault.battery_noise_per_day); },
       [](SimConfig& c, const std::string& v) {
         c.fault.battery_noise_per_day =
             parse_double("fault.battery_noise_per_day", v);
       }},
      {"link.enabled",
       [](const SimConfig& c) { return c.link.enabled ? "true" : "false"; },
       [](SimConfig& c, const std::string& v) {
         c.link.enabled = parse_bool("link.enabled", v);
       }},
      {"link.loss_floor",
       [](const SimConfig& c) { return fmt(c.link.loss_floor); },
       [](SimConfig& c, const std::string& v) {
         c.link.loss_floor = parse_double("link.loss_floor", v);
       }},
      {"link.loss_at_range",
       [](const SimConfig& c) { return fmt(c.link.loss_at_range); },
       [](SimConfig& c, const std::string& v) {
         c.link.loss_at_range = parse_double("link.loss_at_range", v);
       }},
      {"link.loss_exponent",
       [](const SimConfig& c) { return fmt(c.link.loss_exponent); },
       [](SimConfig& c, const std::string& v) {
         c.link.loss_exponent = parse_double("link.loss_exponent", v);
       }},
      {"link.max_retx",
       [](const SimConfig& c) { return std::to_string(c.link.max_retx); },
       [](SimConfig& c, const std::string& v) {
         c.link.max_retx = parse_u64("link.max_retx", v);
       }},
      {"link.rx_duty_tax",
       [](const SimConfig& c) { return fmt(c.link.rx_duty_tax); },
       [](SimConfig& c, const std::string& v) {
         c.link.rx_duty_tax = parse_double("link.rx_duty_tax", v);
       }},
      {"seed", [](const SimConfig& c) { return std::to_string(c.seed); },
       [](SimConfig& c, const std::string& v) { c.seed = parse_u64("seed", v); }},
  };
  return kHandlers;
}

const KeyHandler& find_handler(const std::string& key) {
  for (const KeyHandler& h : handlers()) {
    if (h.name == key) return h;
  }
  throw InvalidArgument("unknown config key '" + key + "'");
}

}  // namespace

std::optional<std::uint64_t> parse_decimal_u64(std::string_view text) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || std::to_string(value) != text) {
    return std::nullopt;
  }
  return value;
}

std::vector<std::string> config_keys() {
  std::vector<std::string> keys;
  keys.reserve(handlers().size());
  for (const KeyHandler& h : handlers()) keys.push_back(h.name);
  return keys;
}

std::string config_get(const SimConfig& config, const std::string& key) {
  return find_handler(key).get(config);
}

void config_set(SimConfig& config, const std::string& key, const std::string& value) {
  find_handler(key).set(config, value);
}

std::string config_to_text(const SimConfig& config) {
  std::ostringstream os;
  os << "# wrsn simulation configuration (Table II defaults unless noted)\n";
  for (const KeyHandler& h : handlers()) {
    os << h.name << " = " << h.get(config) << '\n';
  }
  return os.str();
}

SimConfig config_from_text(const std::string& text, const SimConfig& base) {
  SimConfig config = base;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    WRSN_REQUIRE(eq != std::string::npos,
                 "config line " + std::to_string(line_no) + " has no '='");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    config_set(config, key, value);
  }
  return config;
}

void save_config(const std::string& path, const SimConfig& config) {
  std::ofstream os(path);
  WRSN_REQUIRE(os.good(), "cannot open '" + path + "' for writing");
  os << config_to_text(config);
}

SimConfig load_config(const std::string& path, const SimConfig& base) {
  std::ifstream is(path);
  WRSN_REQUIRE(is.good(), "cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return config_from_text(buffer.str(), base);
}

void apply_fault_arg(SimConfig& config, const std::string& arg) {
  const std::string spec = trim(arg);
  WRSN_REQUIRE(!spec.empty(), "--faults needs a file path or key=value spec");
  if (spec.find('=') == std::string::npos) {
    config = load_config(spec, config);
  } else {
    std::size_t pos = 0;
    while (pos <= spec.size()) {
      const std::size_t comma = std::min(spec.find(',', pos), spec.size());
      const std::string item = trim(spec.substr(pos, comma - pos));
      pos = comma + 1;
      if (item.empty()) continue;
      const std::size_t eq = item.find('=');
      WRSN_REQUIRE(eq != std::string::npos,
                   "--faults item '" + item + "' has no '='");
      std::string key = trim(item.substr(0, eq));
      const std::string value = trim(item.substr(eq + 1));
      if (key.rfind("fault.", 0) != 0) key = "fault." + key;
      config_set(config, key, value);
    }
  }
  config.fault.enabled = true;
}

}  // namespace wrsn
