#include "core/config_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "core/error.hpp"
#include "net/routing.hpp"
#include "sched/policy.hpp"

namespace wrsn {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
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

[[noreturn]] void reject(const char* key, const char* expected, const std::string& got) {
  throw InvalidArgument("config key '" + std::string(key) + "' requires " + expected +
                        ", got '" + got + "'");
}

// --- key rows --------------------------------------------------------------
// One row type per kind of key: get() prints the member, set() parses text
// into it. `T` is the member's type, const on the read-only walks, which
// never instantiate set().

// A real-valued key whose member holds `scale` times the printed number
// (seconds per day, hour or minute, else 1). A parse is the one
// multiplication days()/hours()/minutes() are, so text round-trips exactly.
template <class T>
struct RealKey {
  const char* name;
  T& value;
  double scale;
  [[nodiscard]] std::string get() const { return fmt(value / scale); }
  void set(const std::string& text) const {
    const std::string v = trim(text);
    const std::optional<double> x = parse_finite_double(v);
    if (!x) reject(name, "a finite number", v);
    value = *x * scale;
  }
};

template <class T>
struct CountKey {
  const char* name;
  T& value;
  [[nodiscard]] std::string get() const { return std::to_string(value); }
  void set(const std::string& text) const {
    const std::string v = trim(text);
    const std::optional<std::uint64_t> x = parse_decimal_u64(v);
    if (!x) reject(name, "a non-negative integer below 2^64", v);
    value = *x;
  }
};

template <class T>
struct BoolKey {
  const char* name;
  T& value;
  [[nodiscard]] std::string get() const { return value ? "true" : "false"; }
  void set(const std::string& text) const {
    const std::string v = trim(text);
    if (v == "true" || v == "1" || v == "on" || v == "yes") {
      value = true;
    } else if (v == "false" || v == "0" || v == "off" || v == "no") {
      value = false;
    } else {
      throw InvalidArgument("config key '" + std::string(name) +
                            "': expected a boolean, got '" + v + "'");
    }
  }
};

// A closed enum knob read through its name table; `kind` names it in errors.
template <class T, class Enum, std::size_t N>
struct EnumKey {
  const char* name;
  const char* kind;
  const EnumName<Enum> (&table)[N];
  T& value;
  [[nodiscard]] std::string get() const { return enum_name(table, value); }
  void set(const std::string& text) const {
    const std::string v = trim(text);
    for (const EnumName<Enum>& e : table) {
      if (v == e.name) {
        value = e.value;
        return;
      }
    }
    throw unknown_name(kind, v, enum_names(table));
  }
};

// A policy name, accepted once `registry` knows it.
template <class T, class Registry>
struct NameKey {
  const char* name;
  const Registry& registry;
  T& value;
  [[nodiscard]] std::string get() const { return value; }
  void set(const std::string& text) const {
    std::string v = trim(text);
    registry.require(v);
    value = std::move(v);
  }
};

// The double inside a unit quantity, or the double itself.
double& number(double& v) { return v; }
const double& number(const double& v) { return v; }
template <class Tag>
double& number(Quantity<Tag>& q) { return q.v; }
template <class Tag>
const double& number(const Quantity<Tag>& q) { return q.v; }

template <class Q>
auto real(const char* name, Q& member, double scale = 1.0) {
  return RealKey<std::remove_reference_t<decltype(number(member))>>{
      name, number(member), scale};
}
template <class T>
CountKey<T> count(const char* name, T& member) { return {name, member}; }
template <class T>
BoolKey<T> boolean(const char* name, T& member) { return {name, member}; }
template <class T, class Enum, std::size_t N>
EnumKey<T, Enum, N> enumerated(const char* name, const char* kind,
                               const EnumName<Enum> (&table)[N], T& member) {
  return {name, kind, table, member};
}
template <class T, class Registry>
NameKey<T, Registry> registered(const char* name, const Registry& registry, T& member) {
  return {name, registry, member};
}

constexpr double kDay = days(1.0).value();
constexpr double kHour = hours(1.0).value();
constexpr double kMinute = minutes(1.0).value();

// The one list of config keys, in serialization order: `visit` sees one row
// per key. `Config` is SimConfig, or const SimConfig for the read-only walks.
template <class Config, class Visit>
void visit_keys(Config& c, Visit&& visit) {
  visit(count("num_sensors", c.num_sensors));
  visit(count("num_targets", c.num_targets));
  visit(count("num_rvs", c.num_rvs));
  visit(real("field_side_m", c.field_side));
  visit(real("comm_range_m", c.comm_range));
  visit(real("sensing_range_m", c.sensing_range));
  visit(real("sim_days", c.sim_duration, kDay));
  visit(real("target_period_h", c.target_period, kHour));
  visit(real("data_rate_pkt_per_min", c.data_rate_pkt_per_min));
  visit(enumerated("target_motion", "target motion", kTargetMotionNames, c.target_motion));
  visit(real("target_speed_m_per_s", c.target_speed));
  visit(registered("scheduler", SchedulerRegistry::instance(), c.scheduler));
  visit(registered("routing", RoutingRegistry::instance(), c.routing));
  visit(count("threads", c.threads));
  visit(enumerated("activation", "activation policy", kActivationPolicyNames,
                   c.activation));
  visit(boolean("two_opt_tours", c.two_opt_tours));
  visit(boolean("energy_request_control", c.energy_request_control));
  visit(real("energy_request_percentage", c.energy_request_percentage));
  visit(real("activation_slot_min", c.activation_slot, kMinute));
  visit(real("critical_fraction", c.critical_fraction));
  visit(real("radio.listen_duty_cycle", c.radio.listen_duty_cycle));
  visit(real("battery.capacity_j", c.battery.capacity));
  visit(real("battery.self_discharge_per_day", c.battery.self_discharge_per_day));
  visit(real("battery.threshold_fraction", c.battery.threshold_fraction));
  visit(real("rv.capacity_j", c.rv.capacity));
  visit(real("rv.move_cost_j_per_m", c.rv.move_cost));
  visit(real("rv.speed_m_per_s", c.rv.speed));
  visit(real("rv.charge_power_w", c.rv.charge_power));
  visit(enumerated("rv.charge_profile", "charge profile", kChargeProfileNames,
                   c.rv.charge_profile));
  visit(real("rv.charge_knee_soc", c.rv.charge_knee_soc));
  visit(real("rv.charge_trickle_fraction", c.rv.charge_trickle_fraction));
  visit(real("rv.base_recharge_power_w", c.rv.base_recharge_power));
  visit(real("rv.reserve_fraction", c.rv.reserve_fraction));
  visit(real("rv.self_recharge_fraction", c.rv.self_recharge_fraction));
  visit(real("metrics_sample_min", c.metrics_sample_period, kMinute));
  visit(boolean("fault.enabled", c.fault.enabled));
  visit(real("fault.request_loss_prob", c.fault.request_loss_prob));
  visit(real("fault.request_delay_prob", c.fault.request_delay_prob));
  visit(real("fault.request_delay_max_min", c.fault.request_delay_max, kMinute));
  visit(real("fault.request_retry_timeout_min", c.fault.request_retry_timeout, kMinute));
  visit(real("fault.request_retry_backoff", c.fault.request_retry_backoff));
  visit(count("fault.request_max_retries", c.fault.request_max_retries));
  visit(real("fault.rv_mtbf_hours", c.fault.rv_mtbf_hours));
  visit(real("fault.rv_repair_duration_h", c.fault.rv_repair_duration, kHour));
  visit(real("fault.rv_breakdown_at_h", c.fault.rv_breakdown_at, kHour));
  visit(boolean("fault.rv_failover", c.fault.rv_failover));
  visit(real("fault.sensor_fault_rate_per_day", c.fault.sensor_fault_rate_per_day));
  visit(real("fault.sensor_fault_duration_h", c.fault.sensor_fault_duration, kHour));
  visit(real("fault.battery_noise_per_day", c.fault.battery_noise_per_day));
  visit(boolean("link.enabled", c.link.enabled));
  visit(real("link.loss_floor", c.link.loss_floor));
  visit(real("link.loss_at_range", c.link.loss_at_range));
  visit(real("link.loss_exponent", c.link.loss_exponent));
  visit(count("link.max_retx", c.link.max_retx));
  visit(real("link.rx_duty_tax", c.link.rx_duty_tax));
  visit(count("seed", c.seed));
}

// Runs `fn` on the row named `key`; an unknown key is an error.
template <class Config, class Fn>
void with_key(Config& config, const std::string& key, Fn&& fn) {
  bool found = false;
  visit_keys(config, [&](const auto& row) {
    if (!found && key == row.name) {
      found = true;
      fn(row);
    }
  });
  if (!found) throw InvalidArgument("unknown config key '" + key + "'");
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

std::optional<double> parse_finite_double(std::string_view text) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) return std::nullopt;
  return value;
}

std::vector<std::string> config_keys() {
  std::vector<std::string> keys;
  const SimConfig defaults;
  visit_keys(defaults, [&](const auto& row) { keys.emplace_back(row.name); });
  return keys;
}

std::string config_get(const SimConfig& config, const std::string& key) {
  std::string out;
  with_key(config, key, [&](const auto& row) { out = row.get(); });
  return out;
}

void config_set(SimConfig& config, const std::string& key, const std::string& value) {
  with_key(config, key, [&](const auto& row) { row.set(value); });
}

std::string config_to_text(const SimConfig& config) {
  std::ostringstream os;
  os << "# wrsn simulation configuration (Table II defaults unless noted)\n";
  visit_keys(config, [&](const auto& row) {
    os << row.name << " = " << row.get() << '\n';
  });
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
