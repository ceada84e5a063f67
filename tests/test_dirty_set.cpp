#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/dirty_set.hpp"
#include "core/rng.hpp"

namespace wrsn {
namespace {

std::vector<std::size_t> flushed(DirtySet& set) {
  std::vector<std::size_t> seen;
  set.flush([&](std::size_t id) { seen.push_back(id); });
  return seen;
}

class DirtySetSizes : public ::testing::TestWithParam<std::size_t> {};

// Random mark sets (with repeats, the ends of the id space and whole runs of
// neighbours) flush as exactly their sorted unique ids, leave no bit behind,
// and keep ids() in first-insertion order until the flush.
TEST_P(DirtySetSizes, FlushVisitsSortedUniqueMarks) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(0xd1e7u ^ n);
  DirtySet set(n);
  for (int round = 0; round < 20; ++round) {
    const std::size_t draws = 1 + static_cast<std::size_t>(rng.uniform_int(n + 1));
    std::vector<std::size_t> first_seen;
    std::vector<char> seen(n, 0);
    const auto mark = [&](std::size_t id) {
      set.add(id);
      if (seen[id] == 0) {
        seen[id] = 1;
        first_seen.push_back(id);
      }
    };
    if (round % 5 == 0) {
      mark(0);
      mark(n - 1);
    }
    for (std::size_t i = 0; i < draws; ++i) {
      mark(static_cast<std::size_t>(rng.uniform_int(n)));
    }
    if (round % 7 == 3) {
      for (std::size_t id = n / 3; id < std::min(n, n / 3 + 130); ++id) mark(id);
    }

    EXPECT_EQ(set.ids(), first_seen);
    EXPECT_EQ(set.size(), first_seen.size());
    for (const std::size_t id : first_seen) EXPECT_TRUE(set.contains(id));

    std::vector<std::size_t> expected = first_seen;
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(flushed(set), expected) << "n=" << n << " round=" << round;
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(set.bits_clear()) << "n=" << n << " round=" << round;
    for (const std::size_t id : expected) EXPECT_FALSE(set.contains(id));
  }
}

// clear() after partial adds un-marks whole words by id; no word or summary
// bit may survive it, and the set is usable afterwards.
TEST_P(DirtySetSizes, ClearAfterPartialAddsLeavesNoBits) {
  const std::size_t n = GetParam();
  Xoshiro256 rng(0xc1ea5u ^ n);
  DirtySet set(n);
  for (int round = 0; round < 20; ++round) {
    const std::size_t draws = 1 + static_cast<std::size_t>(rng.uniform_int(200));
    for (std::size_t i = 0; i < draws; ++i) {
      set.add(static_cast<std::size_t>(rng.uniform_int(n)));
    }
    set.clear();
    EXPECT_TRUE(set.empty());
    ASSERT_TRUE(set.bits_clear()) << "n=" << n << " round=" << round;
    EXPECT_TRUE(flushed(set).empty());
  }
  set.add(n - 1);
  EXPECT_EQ(flushed(set), std::vector<std::size_t>{n - 1});
}

INSTANTIATE_TEST_SUITE_P(IdSpaces, DirtySetSizes,
                         ::testing::Values(1, 63, 64, 65, 4095, 4096, 4097,
                                           50000));

TEST(DirtySet, DuplicatesAreDroppedAtInsert) {
  DirtySet set(100);
  set.add(7);
  set.add(3);
  set.add(7);
  set.add(99);
  set.add(3);
  EXPECT_EQ(set.ids(), (std::vector<std::size_t>{7, 3, 99}));
  EXPECT_EQ(flushed(set), (std::vector<std::size_t>{3, 7, 99}));
}

TEST(DirtySet, ResetResizesAndDropsMarks) {
  DirtySet set(10);
  set.add(9);
  set.add(2);
  set.reset(5000);
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.bits_clear());
  EXPECT_FALSE(set.contains(9));
  set.add(4999);
  set.add(64);
  set.add(4096);
  EXPECT_EQ(set.ids(), (std::vector<std::size_t>{4999, 64, 4096}));
  EXPECT_EQ(flushed(set), (std::vector<std::size_t>{64, 4096, 4999}));

  set.add(4000);
  set.reset(3);
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.bits_clear());
  set.add(2);
  set.add(0);
  EXPECT_EQ(flushed(set), (std::vector<std::size_t>{0, 2}));
}

TEST(DirtySet, FlushOfEmptySetCallsNothing) {
  DirtySet set(64);
  EXPECT_TRUE(flushed(set).empty());
  DirtySet none(0);
  EXPECT_TRUE(flushed(none).empty());
  EXPECT_TRUE(none.bits_clear());
}

}  // namespace
}  // namespace wrsn
