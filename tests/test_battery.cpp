#include <gtest/gtest.h>

#include "core/error.hpp"
#include "energy/battery.hpp"

namespace wrsn {
namespace {

TEST(Battery, StartsFullByDefault) {
  Battery b(Joule{100.0});
  EXPECT_DOUBLE_EQ(b.level().value(), 100.0);
  EXPECT_DOUBLE_EQ(b.capacity().value(), 100.0);
  EXPECT_DOUBLE_EQ(b.fraction(), 1.0);
  EXPECT_DOUBLE_EQ(b.demand().value(), 0.0);
  EXPECT_FALSE(b.depleted());
}

TEST(Battery, PartialInitialLevel) {
  Battery b(Joule{100.0}, Joule{40.0});
  EXPECT_DOUBLE_EQ(b.fraction(), 0.4);
  EXPECT_DOUBLE_EQ(b.demand().value(), 60.0);
}

TEST(Battery, ConstructionValidation) {
  EXPECT_THROW(Battery(Joule{0.0}), InvalidArgument);
  EXPECT_THROW(Battery(Joule{-1.0}), InvalidArgument);
  EXPECT_THROW(Battery(Joule{10.0}, Joule{11.0}), InvalidArgument);
  EXPECT_THROW(Battery(Joule{10.0}, Joule{-1.0}), InvalidArgument);
}

TEST(Battery, DrainClampsAtZeroAndReportsDrawn) {
  Battery b(Joule{10.0});
  EXPECT_DOUBLE_EQ(b.drain(Joule{4.0}).value(), 4.0);
  EXPECT_DOUBLE_EQ(b.level().value(), 6.0);
  EXPECT_DOUBLE_EQ(b.drain(Joule{100.0}).value(), 6.0);  // clamped
  EXPECT_TRUE(b.depleted());
  EXPECT_DOUBLE_EQ(b.drain(Joule{1.0}).value(), 0.0);
  EXPECT_THROW(b.drain(Joule{-1.0}), InvalidArgument);
}

TEST(Battery, ChargeClampsAtCapacity) {
  Battery b(Joule{10.0}, Joule{2.0});
  EXPECT_DOUBLE_EQ(b.charge(Joule{5.0}).value(), 5.0);
  EXPECT_DOUBLE_EQ(b.level().value(), 7.0);
  EXPECT_DOUBLE_EQ(b.charge(Joule{100.0}).value(), 3.0);  // clamped
  EXPECT_DOUBLE_EQ(b.fraction(), 1.0);
  EXPECT_THROW(b.charge(Joule{-0.5}), InvalidArgument);
}

TEST(Battery, Refill) {
  Battery b(Joule{10.0}, Joule{1.0});
  b.refill();
  EXPECT_DOUBLE_EQ(b.level().value(), 10.0);
}

TEST(Battery, TimeToReachClosedForm) {
  Battery b(Joule{100.0});
  const auto t = b.time_to_reach(Joule{50.0}, Watt{2.0});
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->value(), 25.0);
}

TEST(Battery, TimeToReachAtOrBelowIsZero) {
  Battery b(Joule{100.0}, Joule{30.0});
  const auto t = b.time_to_reach(Joule{50.0}, Watt{2.0});
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->value(), 0.0);
}

TEST(Battery, TimeToReachNoDrain) {
  Battery b(Joule{100.0});
  EXPECT_FALSE(b.time_to_reach(Joule{50.0}, Watt{0.0}).has_value());
  EXPECT_FALSE(b.time_to_reach(Joule{50.0}, Watt{-1.0}).has_value());
}

TEST(Battery, DrainThenCrossingConsistency) {
  // Drain at constant power for the predicted crossing time lands exactly on
  // the threshold (the invariant the DES depends on).
  Battery b(Joule{3240.0 * 2});
  const Watt p{0.0305};
  const auto t = b.time_to_reach(Joule{3240.0}, p);
  ASSERT_TRUE(t.has_value());
  b.drain(p * *t);
  EXPECT_NEAR(b.level().value(), 3240.0, 1e-9);
}

}  // namespace
}  // namespace wrsn
