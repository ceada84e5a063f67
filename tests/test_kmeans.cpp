#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "net/deployment.hpp"
#include "sched/kmeans.hpp"

namespace wrsn {
namespace {

TEST(KMeans, EmptyInput) {
  Xoshiro256 rng(1);
  const auto r = kmeans({}, 3, rng);
  EXPECT_TRUE(r.assignment.empty());
  EXPECT_TRUE(r.converged);
}

TEST(KMeans, KAtLeastN) {
  Xoshiro256 rng(1);
  const std::vector<Vec2> pts = {{0, 0}, {1, 1}};
  const auto r = kmeans(pts, 5, rng);
  EXPECT_EQ(r.assignment, (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(r.converged);
}

TEST(KMeans, RejectsZeroK) {
  Xoshiro256 rng(1);
  EXPECT_THROW(kmeans({{0, 0}}, 0, rng), InvalidArgument);
}

TEST(KMeans, SeparatesObviousClusters) {
  Xoshiro256 rng(2);
  std::vector<Vec2> pts;
  for (int i = 0; i < 20; ++i) pts.push_back({rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)});
  for (int i = 0; i < 20; ++i) pts.push_back({rng.uniform(95.0, 100.0), rng.uniform(95.0, 100.0)});
  const auto r = kmeans(pts, 2, rng);
  ASSERT_TRUE(r.converged);
  // All of the first 20 share one label, all of the last 20 the other.
  for (int i = 1; i < 20; ++i) EXPECT_EQ(r.assignment[i], r.assignment[0]);
  for (int i = 21; i < 40; ++i) EXPECT_EQ(r.assignment[i], r.assignment[20]);
  EXPECT_NE(r.assignment[0], r.assignment[20]);
}

TEST(KMeans, CentroidsAreClusterMeans) {
  Xoshiro256 rng(3);
  const auto pts = deploy_uniform(100, 50.0, rng);
  const auto r = kmeans(pts, 4, rng);
  std::vector<Vec2> sums(4, Vec2{});
  std::vector<std::size_t> counts(4, 0);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    sums[r.assignment[i]] += pts[i];
    ++counts[r.assignment[i]];
  }
  for (std::size_t c = 0; c < 4; ++c) {
    if (counts[c] == 0) continue;
    const Vec2 mean = sums[c] / static_cast<double>(counts[c]);
    EXPECT_NEAR(mean.x, r.centroids[c].x, 1e-9);
    EXPECT_NEAR(mean.y, r.centroids[c].y, 1e-9);
  }
}

TEST(KMeans, AssignmentIsNearestCentroid) {
  Xoshiro256 rng(4);
  const auto pts = deploy_uniform(150, 80.0, rng);
  const auto r = kmeans(pts, 3, rng);
  ASSERT_TRUE(r.converged);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double assigned = squared_distance(pts[i], r.centroids[r.assignment[i]]);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_LE(assigned, squared_distance(pts[i], r.centroids[c]) + 1e-9);
    }
  }
}

TEST(KMeans, WcssMatchesHelper) {
  Xoshiro256 rng(5);
  const auto pts = deploy_uniform(60, 40.0, rng);
  const auto r = kmeans(pts, 3, rng);
  EXPECT_NEAR(r.wcss, wcss_of(pts, r.assignment, r.centroids), 1e-9);
}

TEST(KMeans, MoreClustersNeverIncreaseWcss) {
  Xoshiro256 rng(6);
  const auto pts = deploy_uniform(120, 60.0, rng);
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= 6; ++k) {
    Xoshiro256 r2(6);  // fresh stream per k for determinism
    const auto r = kmeans(pts, k, r2);
    // Lloyd is a local optimizer; allow slight non-monotonicity headroom.
    EXPECT_LE(r.wcss, prev * 1.10 + 1e-9) << "k=" << k;
    prev = std::min(prev, r.wcss);
  }
}

TEST(KMeans, DeterministicGivenSameRngState) {
  Xoshiro256 a(7), b(7);
  const auto pts = deploy_uniform(80, 30.0, a);
  Xoshiro256 c(9), d(9);
  const auto r1 = kmeans(pts, 3, c);
  const auto r2 = kmeans(pts, 3, d);
  EXPECT_EQ(r1.assignment, r2.assignment);
  EXPECT_DOUBLE_EQ(r1.wcss, r2.wcss);
  (void)b;
}

TEST(KMeans, IdenticalPointsHandled) {
  Xoshiro256 rng(8);
  const std::vector<Vec2> pts(10, Vec2{5.0, 5.0});
  const auto r = kmeans(pts, 3, rng);
  EXPECT_EQ(r.assignment.size(), 10u);
  EXPECT_NEAR(r.wcss, 0.0, 1e-12);
}

TEST(KMeans, NoEmptyClustersOnDistinctPoints) {
  Xoshiro256 rng(9);
  const auto pts = deploy_uniform(50, 100.0, rng);
  const auto r = kmeans(pts, 5, rng);
  std::set<std::size_t> used(r.assignment.begin(), r.assignment.end());
  EXPECT_EQ(used.size(), 5u);
}

// FNV-1a over the assignment vector, one value at a time.
std::uint64_t assignment_hash(const std::vector<std::size_t>& assignment) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::size_t a : assignment) {
    h ^= static_cast<std::uint64_t>(a);
    h *= 1099511628211ull;
  }
  return h;
}

// Pinned Lloyd runs: the exact assignment, iteration count, wcss bits and
// RNG consumption of kmeans() on fixed inputs, from the 40-point lists the
// planner mostly sees up to the 691-point lists of the largest dispatch
// rounds. Any change to the seeding draws, the assignment scan or the
// update step moves at least one of these numbers. The square lattices (10 m
// spacing) put points at equal distance from several centroids, so they
// also pin the tie rules; the 2x2 lattice holds 16 copies of each point, so
// k-means++ duplicates centroids and Lloyd re-seeds empty clusters until
// the iteration cap (101 iterations: not converged).
TEST(KMeans, GoldenLloydRuns) {
  struct Golden {
    std::size_t lattice_side;  // 0: uniform random points
    std::size_t n;
    std::size_t k;
    std::uint64_t assignment_hash;
    std::size_t iterations;
    std::uint64_t wcss_bits;
    std::uint64_t rng_after;
  };
  const Golden cases[] = {
      {0, 40, 3, 0xc6220e0c9d11e61full, 3, 0x40f7626ccbb5afb1ull, 0x7335deba4e4a87e1ull},
      {0, 64, 3, 0xc266eb11f73ef031ull, 8, 0x41030d20184a7bc4ull, 0x651c5f6a8ad91148ull},
      {0, 200, 16, 0xf62887f3a26f7ec6ull, 8, 0x40f08ce3c7eddea0ull, 0xde823efaf5b493abull},
      {0, 691, 3, 0xcd374ce82feceb0eull, 42, 0x413a3e9258bc7690ull, 0xeccd82c74af66eccull},
      {0, 691, 16, 0x0395743305aea05bull, 22, 0x41114e1a16ccde95ull, 0xba19989be197d898ull},
      {8, 64, 3, 0xde0dc40578338babull, 4, 0x40d9d3a532532531ull, 0x217e22e5bcddb813ull},
      {10, 100, 16, 0x6e93f87af447ec8cull, 7, 0x40c3ce3cf3cf3cf4ull, 0x5f9184302fb7ba7eull},
      {2, 64, 16, 0x58d6c1f3b19a314bull, 101, 0x0ull, 0xbc623a779ab5d1ceull},
  };
  for (const Golden& g : cases) {
    Xoshiro256 rng(1000 + g.n + g.k);
    std::vector<Vec2> pts;
    if (g.lattice_side > 0) {
      const std::size_t side = g.lattice_side;
      for (std::size_t i = 0; i < g.n; ++i) {
        pts.push_back({10.0 * static_cast<double>(i % side),
                       10.0 * static_cast<double>((i / side) % side)});
      }
    } else {
      pts = deploy_uniform(g.n, 200.0, rng);
    }
    const auto r = kmeans(pts, g.k, rng);
    const std::uint64_t wcss_bits = std::bit_cast<std::uint64_t>(r.wcss);
    const std::uint64_t rng_after = rng.next();
    EXPECT_EQ(r.converged, r.iterations <= 100) << "n=" << g.n << " k=" << g.k;
    EXPECT_EQ(assignment_hash(r.assignment), g.assignment_hash)
        << "n=" << g.n << " k=" << g.k << std::hex << " hash=0x"
        << assignment_hash(r.assignment);
    EXPECT_EQ(r.iterations, g.iterations) << "n=" << g.n << " k=" << g.k;
    EXPECT_EQ(wcss_bits, g.wcss_bits)
        << "n=" << g.n << " k=" << g.k << std::hex << " wcss_bits=0x" << wcss_bits;
    EXPECT_EQ(rng_after, g.rng_after)
        << "n=" << g.n << " k=" << g.k << std::hex << " rng_after=0x" << rng_after;
  }
}

TEST(KMeans, WcssOfValidation) {
  EXPECT_THROW((void)wcss_of({{0, 0}}, {0, 1}, {{0, 0}}), InvalidArgument);
  EXPECT_THROW((void)wcss_of({{0, 0}}, {3}, {{0, 0}}), InvalidArgument);
}

}  // namespace
}  // namespace wrsn
