#include <gtest/gtest.h>

#include <set>

#include "activity/activation.hpp"

namespace wrsn {
namespace {

TEST(ClusterRotor, EmptyRotor) {
  ClusterRotor rotor;
  EXPECT_TRUE(rotor.empty());
  EXPECT_EQ(rotor.current(), kInvalidId);
  EXPECT_EQ(rotor.advance([](SensorId) { return true; }), kInvalidId);
}

TEST(ClusterRotor, MembersSortedAscending) {
  ClusterRotor rotor({9, 3, 7});
  EXPECT_EQ(rotor.members(), (std::vector<SensorId>{3, 7, 9}));
}

// reset() rebuilds a rotor in place; whatever its previous members and
// rotation position, it must equal a freshly constructed rotor.
TEST(ClusterRotor, ResetMatchesFreshRotor) {
  ClusterRotor rotor({4, 1, 9});
  rotor.select_first([](SensorId s) { return s == 9; });
  rotor.add_member(6);
  ASSERT_EQ(rotor.current(), 9u);
  const std::vector<SensorId> members = {12, 3, 7, 5};
  rotor.reset(members);
  const ClusterRotor fresh(members);
  EXPECT_EQ(rotor.members(), fresh.members());
  EXPECT_EQ(rotor.cursor(), fresh.cursor());
  EXPECT_EQ(rotor.current(), fresh.current());

  rotor.select_first([](SensorId s) { return s == 12; });
  rotor.reset({});
  const ClusterRotor empty;
  EXPECT_TRUE(rotor.empty());
  EXPECT_EQ(rotor.cursor(), empty.cursor());
  EXPECT_EQ(rotor.current(), kInvalidId);
}

TEST(ClusterRotor, SelectFirstPicksLowestAliveId) {
  ClusterRotor rotor({5, 2, 8});
  EXPECT_EQ(rotor.select_first([](SensorId) { return true; }), 2u);
  EXPECT_EQ(rotor.current(), 2u);
}

TEST(ClusterRotor, SelectFirstSkipsDead) {
  ClusterRotor rotor({2, 5, 8});
  EXPECT_EQ(rotor.select_first([](SensorId s) { return s != 2; }), 5u);
}

TEST(ClusterRotor, SelectFirstAllDead) {
  ClusterRotor rotor({2, 5});
  EXPECT_EQ(rotor.select_first([](SensorId) { return false; }), kInvalidId);
  EXPECT_EQ(rotor.current(), kInvalidId);
}

TEST(ClusterRotor, AdvanceCyclesInIdOrder) {
  ClusterRotor rotor({1, 2, 3});
  rotor.select_first([](SensorId) { return true; });
  auto alive = [](SensorId) { return true; };
  EXPECT_EQ(rotor.advance(alive), 2u);
  EXPECT_EQ(rotor.advance(alive), 3u);
  EXPECT_EQ(rotor.advance(alive), 1u);  // wraps
  EXPECT_EQ(rotor.advance(alive), 2u);
}

TEST(ClusterRotor, AdvanceSkipsDeadMember) {
  ClusterRotor rotor({1, 2, 3});
  rotor.select_first([](SensorId) { return true; });  // current = 1
  auto alive = [](SensorId s) { return s != 2; };     // 2 never acks
  EXPECT_EQ(rotor.advance(alive), 3u);
  EXPECT_EQ(rotor.advance(alive), 1u);
}

TEST(ClusterRotor, AdvanceSingleSurvivorStays) {
  ClusterRotor rotor({1, 2, 3});
  rotor.select_first([](SensorId s) { return s == 2; });  // current = 2
  auto alive = [](SensorId s) { return s == 2; };
  EXPECT_EQ(rotor.advance(alive), 2u);
  EXPECT_EQ(rotor.advance(alive), 2u);
}

TEST(ClusterRotor, AdvanceAllDeadReturnsInvalid) {
  ClusterRotor rotor({1, 2});
  rotor.select_first([](SensorId) { return true; });
  EXPECT_EQ(rotor.advance([](SensorId) { return false; }), kInvalidId);
  EXPECT_EQ(rotor.current(), kInvalidId);
}

TEST(ClusterRotor, RecoverAfterAllDead) {
  ClusterRotor rotor({4, 6});
  rotor.select_first([](SensorId) { return false; });
  // Everyone revives: advance finds a member again.
  EXPECT_NE(rotor.advance([](SensorId) { return true; }), kInvalidId);
}

TEST(ClusterRotor, SingleMemberRotor) {
  ClusterRotor rotor({7});
  auto alive = [](SensorId) { return true; };
  EXPECT_EQ(rotor.select_first(alive), 7u);
  EXPECT_EQ(rotor.advance(alive), 7u);
}

// Property: over n advances with all members alive, every member is selected
// the same number of times (perfect load balancing, Section III-C).
class RotorFairness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RotorFairness, EqualShares) {
  const std::size_t n = GetParam();
  std::vector<SensorId> members;
  for (std::size_t i = 0; i < n; ++i) members.push_back(i * 3 + 1);
  ClusterRotor rotor(members);
  auto alive = [](SensorId) { return true; };
  rotor.select_first(alive);
  std::map<SensorId, int> counts;
  ++counts[rotor.current()];
  const std::size_t rounds = 4;
  for (std::size_t k = 1; k < n * rounds; ++k) ++counts[rotor.advance(alive)];
  for (const auto& [id, c] : counts) {
    EXPECT_EQ(c, static_cast<int>(rounds)) << "member " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RotorFairness, ::testing::Values(1, 2, 3, 5, 9));

}  // namespace
}  // namespace wrsn
