#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/config_io.hpp"
#include "core/error.hpp"
#include "net/routing.hpp"
#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

TEST(ConfigIo, KeysAreNonEmptyAndUnique) {
  const auto keys = config_keys();
  EXPECT_GT(keys.size(), 20u);
  std::set<std::string> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
}

TEST(ConfigIo, GetReflectsDefaults) {
  const SimConfig cfg;
  EXPECT_EQ(config_get(cfg, "num_sensors"), "500");
  EXPECT_EQ(config_get(cfg, "scheduler"), "combined");
  EXPECT_EQ(config_get(cfg, "activation"), "round-robin");
  EXPECT_EQ(config_get(cfg, "sim_days"), "120");
  EXPECT_EQ(config_get(cfg, "energy_request_control"), "true");
}

TEST(ConfigIo, SetParsesEveryKind) {
  SimConfig cfg;
  config_set(cfg, "num_sensors", "250");
  EXPECT_EQ(cfg.num_sensors, 250u);
  config_set(cfg, "field_side_m", "150.5");
  EXPECT_DOUBLE_EQ(cfg.field_side.value(), 150.5);
  config_set(cfg, "scheduler", "partition");
  EXPECT_EQ(cfg.scheduler, "partition");
  config_set(cfg, "scheduler", "fcfs");
  EXPECT_EQ(cfg.scheduler, "fcfs");
  config_set(cfg, "activation", "full-time");
  EXPECT_EQ(cfg.activation, ActivationPolicy::kFullTime);
  config_set(cfg, "energy_request_control", "off");
  EXPECT_FALSE(cfg.energy_request_control);
  config_set(cfg, "two_opt_tours", "yes");
  EXPECT_TRUE(cfg.two_opt_tours);
  config_set(cfg, "sim_days", "30");
  EXPECT_DOUBLE_EQ(cfg.sim_duration.value(), 30.0 * 86400.0);
  config_set(cfg, "seed", "12345");
  EXPECT_EQ(cfg.seed, 12345u);
}

TEST(ConfigIo, RejectsBadInput) {
  SimConfig cfg;
  EXPECT_THROW(config_set(cfg, "no_such_key", "1"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "num_sensors", "many"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "num_sensors", "-5"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "num_sensors", "1.5"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "field_side_m", "12abc"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "scheduler", "quantum"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "routing", "pigeon"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "two_opt_tours", "maybe"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "link.enabled", "maybe"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "link.max_retx", "several"), InvalidArgument);
  EXPECT_THROW(config_set(cfg, "parallel_threshold", "1"), InvalidArgument);  // removed
  EXPECT_THROW(config_set(cfg, "event_queue", "heap"), InvalidArgument);      // removed
  EXPECT_THROW((void)config_get(cfg, "no_such_key"), InvalidArgument);
}

TEST(ConfigIo, UnknownEnumValueErrorsListValidNames) {
  // A typo in any enum-like knob must name every accepted value, so the fix
  // is readable straight off the error message.
  const auto error_for = [](const std::string& key, const std::string& value) {
    SimConfig cfg;
    try {
      config_set(cfg, key, value);
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << key << " accepted '" << value << "'";
    return std::string();
  };
  // Table-driven: each enum-like key pairs a bogus value with the full list
  // of names the error must surface. Registry-backed knobs pull the expected
  // list live from their registry, so a newly registered policy is covered
  // without touching this test.
  struct Case {
    const char* key;
    const char* bogus;
    std::vector<std::string> expected;
  };
  const std::vector<Case> cases = {
      {"scheduler", "quantum",
       {"greedy", "partition", "combined", "nearest-first", "fcfs", "edf"}},
      {"routing", "pigeon", routing_names()},
      {"activation", "psychic", {"full-time", "round-robin"}},
      {"target_motion", "warp", {"teleport", "random-waypoint"}},
      {"rv.charge_profile", "fusion", {"constant-power", "tapered-cc-cv"}},
  };
  for (const Case& c : cases) {
    const std::string message = error_for(c.key, c.bogus);
    for (const std::string& name : c.expected) {
      EXPECT_NE(message.find(name), std::string::npos)
          << c.key << ": " << message;
    }
  }
}

TEST(ConfigIo, TextRoundTrip) {
  SimConfig cfg;
  cfg.num_sensors = 321;
  cfg.scheduler = "nearest-first";
  cfg.energy_request_percentage = 0.35;
  cfg.rv.charge_power = watts(2.5);
  const std::string text = config_to_text(cfg);
  const SimConfig back = config_from_text(text);
  EXPECT_EQ(back.num_sensors, 321u);
  EXPECT_EQ(back.scheduler, "nearest-first");
  EXPECT_DOUBLE_EQ(back.energy_request_percentage, 0.35);
  EXPECT_DOUBLE_EQ(back.rv.charge_power.value(), 2.5);
}

TEST(ConfigIo, RoutingAndLinkKeysRoundTrip) {
  SimConfig cfg;
  cfg.routing = "greedy_geo";
  cfg.link.enabled = true;
  cfg.link.loss_floor = 0.02;
  cfg.link.loss_at_range = 0.4;
  cfg.link.loss_exponent = 2.5;
  cfg.link.max_retx = 5;
  cfg.link.rx_duty_tax = 0.03;
  const SimConfig back = config_from_text(config_to_text(cfg));
  EXPECT_EQ(back.routing, "greedy_geo");
  EXPECT_TRUE(back.link.enabled);
  EXPECT_DOUBLE_EQ(back.link.loss_floor, 0.02);
  EXPECT_DOUBLE_EQ(back.link.loss_at_range, 0.4);
  EXPECT_DOUBLE_EQ(back.link.loss_exponent, 2.5);
  EXPECT_EQ(back.link.max_retx, 5u);
  EXPECT_DOUBLE_EQ(back.link.rx_duty_tax, 0.03);
}

TEST(ConfigIo, ParsingSkipsCommentsAndBlanks) {
  const std::string text =
      "# a comment\n"
      "\n"
      "num_sensors = 42   # trailing comment\n"
      "  scheduler =  greedy  \n";
  const SimConfig cfg = config_from_text(text);
  EXPECT_EQ(cfg.num_sensors, 42u);
  EXPECT_EQ(cfg.scheduler, "greedy");
}

TEST(ConfigIo, ParsingOverlaysBase) {
  SimConfig base;
  base.num_targets = 7;
  const SimConfig cfg = config_from_text("num_sensors = 99\n", base);
  EXPECT_EQ(cfg.num_sensors, 99u);
  EXPECT_EQ(cfg.num_targets, 7u);  // untouched
}

TEST(ConfigIo, MalformedLinesRejected) {
  EXPECT_THROW((void)config_from_text("num_sensors 42\n"), InvalidArgument);
  EXPECT_THROW((void)config_from_text("bogus = 1\n"), InvalidArgument);
}

TEST(ConfigIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/wrsn_config_test.cfg";
  SimConfig cfg;
  cfg.num_rvs = 5;
  cfg.radio.listen_duty_cycle = 0.07;
  save_config(path, cfg);
  const SimConfig back = load_config(path);
  EXPECT_EQ(back.num_rvs, 5u);
  EXPECT_DOUBLE_EQ(back.radio.listen_duty_cycle, 0.07);
  std::remove(path.c_str());
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW((void)load_config("/no/such/dir/file.cfg"), InvalidArgument);
}

TEST(ConfigIo, EveryKeyRoundTrips) {
  // Serialize, parse back, and compare key-by-key: catches any handler whose
  // getter and setter disagree (including future additions).
  const SimConfig cfg;  // defaults
  const SimConfig back = config_from_text(config_to_text(cfg));
  for (const std::string& key : config_keys()) {
    EXPECT_EQ(config_get(cfg, key), config_get(back, key)) << "key " << key;
  }
}

TEST(ConfigIo, EverySetterIsObservableThroughItsGetter) {
  // Setting a numeric key to a distinctive value must be readable back.
  for (const std::string& key : config_keys()) {
    SimConfig cfg;
    const std::string before = config_get(cfg, key);
    // Skip enum/bool keys; they are covered by SetParsesEveryKind.
    if (before == "true" || before == "false") continue;
    bool numeric = !before.empty();
    for (char c : before) {
      if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '.' || c == '-' ||
            c == '+' || c == 'e')) {
        numeric = false;
      }
    }
    if (!numeric) continue;
    try {
      config_set(cfg, key, "0.125");
      EXPECT_EQ(config_get(cfg, key), "0.125") << "key " << key;
    } catch (const InvalidArgument&) {
      // Integer-valued key: use an integer probe instead.
      config_set(cfg, key, "7");
      EXPECT_EQ(config_get(cfg, key), "7") << "key " << key;
    }
  }
}

TEST(ConfigIo, RoundTripPreservesValidation) {
  const SimConfig cfg = config_from_text(config_to_text(SimConfig{}));
  EXPECT_NO_THROW(cfg.validate());
}

// Integer keys parse exactly: every uint64_t survives, including values a
// double cannot hold (2^53 + 1), and anything that is not the canonical
// decimal spelling of a uint64_t is rejected rather than rounded, wrapped
// or truncated.
TEST(ConfigIo, IntegerKeysParseExactly) {
  struct Case {
    const char* text;
    bool ok;
    std::uint64_t value;
  };
  // Accepted: zero, surrounding whitespace (trimmed), 2^53, 2^53 + 1 and
  // 2^64 - 1. Rejected, among others: 2^64 and beyond, signs, junk,
  // fractions, exponents, hex and leading zeros.
  const Case cases[] = {
      {"0", true, 0},
      {"12345", true, 12345},
      {"  42  ", true, 42},
      {"9007199254740992", true, 9007199254740992ULL},
      {"9007199254740993", true, 9007199254740993ULL},
      {"18446744073709551615", true, 18446744073709551615ULL},
      {"18446744073709551616", false, 0},
      {"99999999999999999999999", false, 0},
      {"-1", false, 0},
      {"-0", false, 0},
      {"+5", false, 0},
      {"1x", false, 0},
      {"1.5", false, 0},
      {"500.0", false, 0},
      {"1e3", false, 0},
      {"0x10", false, 0},
      {"007", false, 0},
      {"", false, 0},
      {"many", false, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    SimConfig cfg;
    if (c.ok) {
      config_set(cfg, "seed", c.text);
      EXPECT_EQ(cfg.seed, c.value);
      EXPECT_EQ(config_get(cfg, "seed"), std::to_string(c.value));
    } else {
      try {
        config_set(cfg, "seed", c.text);
        ADD_FAILURE() << "accepted";
      } catch (const InvalidArgument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("config key 'seed'"), std::string::npos) << what;
        EXPECT_EQ(what.find('\n'), std::string::npos) << what;
      }
      EXPECT_EQ(cfg.seed, SimConfig{}.seed);
    }
  }
}

// Real-valued keys parse exactly what the shortest round-trip printer can
// write, plus the other plain decimal spellings: an optional '-', digits, a
// fraction and an exponent. Hex floats, a leading '+', nan, inf, values out
// of double's range and trailing junk are rejected with one line naming the
// key, and the member keeps its value.
TEST(ConfigIo, RealKeysParseExactly) {
  struct Case {
    const char* text;
    bool ok;
    double value;
  };
  const Case cases[] = {
      {"0", true, 0.0},
      {"150.5", true, 150.5},
      {"  42  ", true, 42.0},
      {"-2.5", true, -2.5},
      {".5", true, 0.5},
      {"1e3", true, 1000.0},
      {"2.5E-3", true, 0.0025},
      {"0.1", true, 0.1},
      {"0x1p3", false, 0},
      {"0x10", false, 0},
      {"+1", false, 0},
      {"nan", false, 0},
      {"-nan", false, 0},
      {"inf", false, 0},
      {"-infinity", false, 0},
      {"1e400", false, 0},
      {"1x", false, 0},
      {"1.5.2", false, 0},
      {"", false, 0},
      {"many", false, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    SimConfig cfg;
    if (c.ok) {
      config_set(cfg, "field_side_m", c.text);
      EXPECT_EQ(cfg.field_side.value(), c.value);
    } else {
      try {
        config_set(cfg, "field_side_m", c.text);
        ADD_FAILURE() << "accepted";
      } catch (const InvalidArgument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("config key 'field_side_m'"), std::string::npos) << what;
        EXPECT_EQ(what.find('\n'), std::string::npos) << what;
      }
      EXPECT_EQ(cfg.field_side.value(), SimConfig{}.field_side.value());
    }
  }
  // A unit key scales by one multiplication, exactly as days() does.
  SimConfig cfg;
  config_set(cfg, "sim_days", "0.1");
  EXPECT_EQ(cfg.sim_duration.value(), days(0.1).value());
  EXPECT_EQ(config_get(cfg, "sim_days"), "0.1");
}

// A seed above 2^53 survives the snapshot's embedded config text: the
// restored world re-serializes byte-identical and keeps the exact seed.
TEST(ConfigIo, SeedAboveTwoTo53SurvivesSnapshotRoundTrip) {
  SimConfig cfg;
  cfg.num_sensors = 60;
  cfg.num_targets = 4;
  cfg.sim_duration = hours(6.0);
  cfg.seed = (std::uint64_t{1} << 53) + 1;
  World w(cfg);
  w.run_until(hours(2.0));
  const std::string bytes = serialize_snapshot(w.checkpoint());
  const WorldSnapshot snap = deserialize_snapshot(bytes);
  EXPECT_EQ(config_from_text(snap.config_text).seed, cfg.seed);
  const World restored(snap);
  EXPECT_EQ(restored.config().seed, cfg.seed);
  EXPECT_EQ(serialize_snapshot(restored.checkpoint()), bytes);
}

}  // namespace
}  // namespace wrsn
