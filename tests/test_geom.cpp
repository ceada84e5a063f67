#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "geom/coverage.hpp"
#include "geom/grid.hpp"
#include "geom/vec2.hpp"

namespace wrsn {
namespace {

TEST(Vec2, BasicArithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Vec2{2.0, 4.0}));
  EXPECT_EQ(b / 2.0, (Vec2{1.5, -0.5}));
}

TEST(Vec2, DotNormDistance) {
  EXPECT_DOUBLE_EQ(dot({1, 2}, {3, 4}), 11.0);
  EXPECT_DOUBLE_EQ(squared_norm({3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(squared_distance({1, 1}, {4, 5}), 25.0);
}

TEST(Vec2, Lerp) {
  const Vec2 a{0, 0};
  const Vec2 b{10, 20};
  EXPECT_EQ(lerp(a, b, 0.0), a);
  EXPECT_EQ(lerp(a, b, 1.0), b);
  EXPECT_EQ(lerp(a, b, 0.5), (Vec2{5, 10}));
}

class SpatialGridTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Xoshiro256 rng(42);
    points_.reserve(300);
    for (int i = 0; i < 300; ++i) {
      points_.push_back({rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)});
    }
  }
  std::vector<Vec2> points_;
};

TEST_F(SpatialGridTest, RadiusQueryMatchesBruteForce) {
  SpatialGrid grid(200.0, 12.0);
  grid.build(points_);
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec2 q{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
    const double r = rng.uniform(1.0, 40.0);
    auto got = grid.query_radius(q, r);
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (distance(points_[i], q) <= r) want.push_back(i);
    }
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(SpatialGrid, EmptyGridQueriesAreEmpty) {
  SpatialGrid grid(100.0, 10.0);
  grid.build({});
  EXPECT_TRUE(grid.query_radius({50, 50}, 30.0).empty());
  EXPECT_EQ(grid.count_in_radius({50, 50}, 200.0), 0u);
  EXPECT_FALSE(grid.any_in_radius({50, 50}, 200.0));
}

TEST(SpatialGrid, SinglePoint) {
  SpatialGrid grid(100.0, 10.0);
  grid.build({{5.0, 5.0}});
  EXPECT_EQ(grid.query_radius({5.0, 5.0}, 0.1).size(), 1u);
  EXPECT_EQ(grid.query_radius({99.0, 99.0}, 200.0), std::vector<std::size_t>{0});
}

TEST(SpatialGrid, PointsOnBoundary) {
  SpatialGrid grid(100.0, 10.0);
  grid.build({{0.0, 0.0}, {100.0, 100.0}, {0.0, 100.0}, {100.0, 0.0}});
  EXPECT_EQ(grid.query_radius({0.0, 0.0}, 1.0), std::vector<std::size_t>{0});
  EXPECT_EQ(grid.query_radius({50.0, 50.0}, 200.0).size(), 4u);
}

TEST(SpatialGrid, InvalidConstruction) {
  EXPECT_THROW(SpatialGrid(0.0, 1.0), InvalidArgument);
  EXPECT_THROW(SpatialGrid(10.0, 0.0), InvalidArgument);
}

TEST(SpatialGrid, DuplicatePointsAllReturned) {
  SpatialGrid grid(10.0, 2.0);
  grid.build({{3.0, 3.0}, {3.0, 3.0}, {3.0, 3.0}});
  EXPECT_EQ(grid.query_radius({3.0, 3.0}, 0.5).size(), 3u);
}

TEST_F(SpatialGridTest, CountAndAnyMatchQueryRadius) {
  SpatialGrid grid(200.0, 9.0);
  grid.build(points_);
  Xoshiro256 rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec2 q{rng.uniform(-20.0, 220.0), rng.uniform(-20.0, 220.0)};
    const double r = rng.uniform(0.5, 60.0);
    const auto ids = grid.query_radius(q, r);
    EXPECT_EQ(grid.count_in_radius(q, r), ids.size()) << "trial " << trial;
    EXPECT_EQ(grid.any_in_radius(q, r), !ids.empty()) << "trial " << trial;
    std::vector<std::size_t> via_each;
    grid.for_each_in_radius(q, r, [&](std::size_t id) { via_each.push_back(id); });
    std::sort(via_each.begin(), via_each.end());
    EXPECT_EQ(via_each, ids) << "trial " << trial;
  }
}

TEST(Coverage, Eq1MatchesPaperFormula) {
  // N = 3*sqrt(3)*S_a / (2*pi^2*r^2), Table II: L=200, d_s=8.
  const double expected =
      3.0 * std::sqrt(3.0) * 200.0 * 200.0 /
      (2.0 * std::numbers::pi * std::numbers::pi * 8.0 * 8.0);
  EXPECT_EQ(min_sensors_for_coverage(200.0 * 200.0, 8.0),
            static_cast<std::size_t>(std::ceil(expected)));
}

TEST(Coverage, Eq1ScalesInverselyWithRangeSquared) {
  const auto n1 = min_sensors_for_coverage(1e4, 4.0);
  const auto n2 = min_sensors_for_coverage(1e4, 8.0);
  // Doubling the range divides the requirement by ~4 (up to ceil effects).
  EXPECT_NEAR(static_cast<double>(n1) / static_cast<double>(n2), 4.0, 0.15);
}

TEST(Coverage, Eq1Validation) {
  EXPECT_THROW((void)min_sensors_for_coverage(0.0, 1.0), InvalidArgument);
  EXPECT_THROW((void)min_sensors_for_coverage(1.0, 0.0), InvalidArgument);
}

TEST(Coverage, ExpectedDegreeTableII) {
  // 500 sensors, L=200, r=8: lambda = 500*pi*64/40000 ~= 2.513.
  EXPECT_NEAR(expected_coverage_degree(500, 200.0, 8.0), 2.513, 0.01);
}

TEST(Coverage, ExpectedDegreeMonteCarlo) {
  Xoshiro256 rng(99);
  std::vector<Vec2> sensors;
  for (int i = 0; i < 500; ++i) {
    sensors.push_back({rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)});
  }
  SpatialGrid grid(200.0, 8.0);
  grid.build(sensors);
  double total = 0.0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    // Sample interior points to avoid boundary truncation.
    const Vec2 q{rng.uniform(20.0, 180.0), rng.uniform(20.0, 180.0)};
    total += static_cast<double>(grid.query_radius(q, 8.0).size());
  }
  EXPECT_NEAR(total / trials, expected_coverage_degree(500, 200.0, 8.0), 0.25);
}

}  // namespace
}  // namespace wrsn
