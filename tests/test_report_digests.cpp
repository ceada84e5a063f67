// Pinned report digests: the FNV-1a hash of the JSON report (the digest
// perfbench prints as report_fnv1a) for a fixed set of runs, compared against
// constants recorded before the incremental recluster bookkeeping landed.
//
// The equivalence suites compare World against ReferenceWorld, so they cannot
// see a change both share (routing checks, rotor resets, the clustering core).
// These constants can. A deliberate re-baseline that changes simulated physics
// updates them and says so in CHANGES.md; on a mismatch the test prints the
// new digest.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/binio.hpp"
#include "core/config_io.hpp"
#include "sim/metrics.hpp"
#include "sim/world.hpp"

namespace wrsn {
namespace {

struct DigestCase {
  const char* name;
  const char* config;  // file under configs/
  std::vector<std::pair<const char*, const char*>> overrides;
  std::uint64_t digest;
};

// Names the case in gtest output instead of dumping the struct's bytes.
void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

std::uint64_t report_digest(const DigestCase& c) {
  SimConfig cfg = load_config(std::string(WRSN_SOURCE_DIR) + "/configs/" + c.config);
  for (const auto& [key, value] : c.overrides) config_set(cfg, key, value);
  World world(cfg);
  return fnv1a64(to_json(world.run()));
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

class ReportDigest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(ReportDigest, MatchesPinnedValue) {
  const DigestCase& c = GetParam();
  const std::uint64_t got = report_digest(c);
  EXPECT_EQ(got, c.digest) << c.name << ": report digest is now " << hex(got)
                           << ", pinned " << hex(c.digest);
}

// paper_table2 at 10 days: teleport motion, so every target move runs the
// global recluster. No sensor dies that early, so the 40-day cases add deaths
// and revivals (routing rebuilds between reclusters). The full-time variants
// activate every member; faulty_field mixes hardware faults, uplink loss and
// RV breakdowns.
const std::vector<DigestCase>& cases() {
  static const std::vector<DigestCase> all = {
      {"table2_greedy_s1", "paper_table2.cfg",
       {{"scheduler", "greedy"}, {"seed", "1"}, {"sim_days", "10"}}, 0x29f817d46776a7ba},
      {"table2_greedy_s2", "paper_table2.cfg",
       {{"scheduler", "greedy"}, {"seed", "2"}, {"sim_days", "10"}}, 0x55dea7f93f0f44bd},
      {"table2_partition_s1", "paper_table2.cfg",
       {{"scheduler", "partition"}, {"seed", "1"}, {"sim_days", "10"}}, 0xc652b7a98a22cd98},
      {"table2_partition_s2", "paper_table2.cfg",
       {{"scheduler", "partition"}, {"seed", "2"}, {"sim_days", "10"}}, 0xefd93863c136900e},
      {"table2_combined_s1", "paper_table2.cfg",
       {{"scheduler", "combined"}, {"seed", "1"}, {"sim_days", "10"}}, 0x341d371578ddce0e},
      {"table2_combined_s2", "paper_table2.cfg",
       {{"scheduler", "combined"}, {"seed", "2"}, {"sim_days", "10"}}, 0x15cde6efddc49425},
      {"table2_full_time_s1", "paper_table2.cfg",
       {{"activation", "full-time"}, {"seed", "1"}, {"sim_days", "10"}}, 0x06e5a7bd0da6b311},
      {"table2_greedy_40d_s1", "paper_table2.cfg",
       {{"scheduler", "greedy"}, {"seed", "1"}, {"sim_days", "40"}}, 0x42f37569f739783a},
      {"table2_combined_40d_s1", "paper_table2.cfg",
       {{"scheduler", "combined"}, {"seed", "1"}, {"sim_days", "40"}}, 0x9845ae8396a57299},
      {"table2_full_time_40d_s2", "paper_table2.cfg",
       {{"activation", "full-time"}, {"seed", "2"}, {"sim_days", "40"}}, 0x7fb5f4e0ad7837ee},
      {"faulty_field_s1", "faulty_field.cfg",
       {{"seed", "1"}, {"sim_days", "2"}}, 0x7c9d0057b5973b98},
  };
  return all;
}

INSTANTIATE_TEST_SUITE_P(Pinned, ReportDigest, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<DigestCase>& p) {
                           return std::string(p.param.name);
                         });

}  // namespace
}  // namespace wrsn
