// Byte goldens for the two hand-kept field sets: the config keys and the
// report fields. The round-trip tests parse back what they print, so they
// cannot see a change of format; these FNV-1a constants can. They cover the
// config text of the defaults and of every shipped config, the key order,
// the report JSON of a synthetic report whose fields all differ, the JSON
// of a cross-replica mean, and the snapshot body (metrics accumulators
// included) after a short World run. On a mismatch the test prints the new
// digest; only a deliberate format change updates a constant.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/binio.hpp"
#include "core/config_io.hpp"
#include "sim/metrics.hpp"
#include "sim/runner.hpp"
#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

#define EXPECT_DIGEST(text, pinned)                                         \
  do {                                                                      \
    const std::uint64_t got_ = fnv1a64(text);                               \
    EXPECT_EQ(got_, static_cast<std::uint64_t>(pinned))                    \
        << #text << ": digest is now " << hex(got_) << ", pinned " << #pinned; \
  } while (0)

SimConfig shipped(const char* name) {
  return load_config(std::string(WRSN_SOURCE_DIR) + "/configs/" + name);
}

TEST(FieldGoldens, ConfigTextOfDefaultsAndShippedConfigs) {
  EXPECT_DIGEST(config_to_text(SimConfig{}), 0xdd58dfa5bb9582d4);
  EXPECT_DIGEST(config_to_text(shipped("paper_table2.cfg")), 0xdd58dfa5bb9582d4);
  EXPECT_DIGEST(config_to_text(shipped("faulty_field.cfg")), 0x780b52216c2ba09f);
  EXPECT_DIGEST(config_to_text(shipped("stress_high_load.cfg")), 0xf2d627bd25ab8756);
  EXPECT_DIGEST(config_to_text(shipped("wildlife_reserve.cfg")), 0xfc92f9d685e5e935);
}

TEST(FieldGoldens, ConfigKeyOrder) {
  std::string joined;
  for (const std::string& key : config_keys()) joined += key + '\n';
  EXPECT_EQ(config_keys().size(), 56u);
  EXPECT_DIGEST(joined, 0x01ef11687367ab3b);
}

// Every field set, each to a value no other field shares; `k` shifts the
// whole report so several of them make a non-trivial mean.
MetricsReport distinct_report(double k) {
  MetricsReport r;
  auto count = [k](std::size_t base) {
    return base + static_cast<std::size_t>(7.0 * k);
  };
  r.duration = Second{86400.25 + k};
  r.rv_travel_energy = Joule{1001.5 + k};
  r.rv_travel_distance = Meter{178.75 + k};
  r.energy_recharged = Joule{2003.125 + k};
  r.rv_base_energy_drawn = Joule{3005.0625 + k};
  r.sensors_recharged = count(11);
  r.rv_tours = count(12);
  r.rv_base_recharges = count(13);
  r.coverage_ratio = 0.8125 + k / 64.0;
  r.missing_rate = 0.1875 - k / 64.0;
  r.nonfunctional_pct = 3.3 + k;
  r.avg_alive_sensors = 480.7 + k;
  r.avg_coverable_targets = 14.3 + k;
  r.packets_delivered = 90000.9 + k;
  r.packets_offered = 120000.1 + k;
  r.avg_delivery_hops = 4.4 + k;
  r.sensor_deaths = count(14);
  r.recharge_requests = count(15);
  r.avg_request_latency = Second{3600.5 + k};
  r.p50_request_latency = Second{3000.5 + k};
  r.p95_request_latency = Second{7000.5 + k};
  r.p99_request_latency = Second{8000.5 + k};
  r.max_request_latency = Second{9000.5 + 100.0 * k};
  r.p99_max_request_latency = Second{8900.5 + k};
  r.avg_request_wait = Second{100.1 + k};
  r.p50_request_wait = Second{101.1 + k};
  r.p95_request_wait = Second{102.1 + k};
  r.p99_request_wait = Second{103.1 + k};
  r.avg_request_travel = Second{200.2 + k};
  r.p50_request_travel = Second{201.2 + k};
  r.p95_request_travel = Second{202.2 + k};
  r.p99_request_travel = Second{203.2 + k};
  r.avg_request_service = Second{300.3 + k};
  r.p50_request_service = Second{301.3 + k};
  r.p95_request_service = Second{302.3 + k};
  r.p99_request_service = Second{303.3 + k};
  r.recharge_fairness_jain = 0.9 - k / 100.0;
  r.requests_lost = count(16);
  r.requests_delayed = count(17);
  r.requests_retried = count(18);
  r.requests_expired = count(19);
  r.rv_breakdowns = count(20);
  r.rv_repairs = count(21);
  r.failover_reinjected = count(22);
  r.sensor_hw_faults = count(23);
  r.rv_downtime = Second{400.4 + k};
  r.avg_failover_recovery = Second{500.5 + k};
  return r;
}

TEST(FieldGoldens, ReportJsonOfDistinctFields) {
  EXPECT_DIGEST(to_json(distinct_report(0.0)), 0x658f2a968a1ec059);
}

TEST(FieldGoldens, MeanReportJsonOfThreeReports) {
  const std::vector<MetricsReport> reports = {
      distinct_report(0.0), distinct_report(1.0 / 3.0), distinct_report(2.25)};
  EXPECT_DIGEST(to_json(mean_report(reports)), 0xd7b1fd8ebc5aa393);
}

TEST(FieldGoldens, SnapshotBodyAfterShortRun) {
  SimConfig cfg = shipped("faulty_field.cfg");
  config_set(cfg, "link.enabled", "true");
  World world(cfg);
  world.run_until(days(3.0));
  const WorldSnapshot snap = world.checkpoint();
  EXPECT_DIGEST(snap.state, 0x7d2107364295df53);
  EXPECT_DIGEST(serialize_snapshot(snap), 0x490df2590409444c);
}

}  // namespace
}  // namespace wrsn
