#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "net/deployment.hpp"
#include "net/graph.hpp"

namespace wrsn {
namespace {

TEST(CommGraph, LineTopology) {
  // Three sensors in a line 10 m apart, comm range 12 m, BS at the end.
  const std::vector<Vec2> pos = {{0, 0}, {10, 0}, {20, 0}};
  CommGraph g(pos, Vec2{30, 0}, 12.0);
  ASSERT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.base_station_index(), 3u);
  // Sensor 0 reaches only sensor 1.
  ASSERT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.neighbors(0)[0].to, 1u);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].length, 10.0);
  // Sensor 1 reaches 0 and 2.
  EXPECT_EQ(g.degree(1), 2u);
  // Sensor 2 reaches 1 and the BS.
  EXPECT_EQ(g.degree(2), 2u);
  // BS reaches sensor 2 only.
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_EQ(g.neighbors(3)[0].to, 2u);
}

TEST(CommGraph, EdgesAreSymmetric) {
  Xoshiro256 rng(2);
  const auto pos = deploy_uniform(200, 100.0, rng);
  CommGraph g(pos, Vec2{50, 50}, 12.0);
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    for (const auto& e : g.neighbors(u)) {
      bool found = false;
      for (const auto& back : g.neighbors(e.to)) {
        if (back.to == u) {
          EXPECT_DOUBLE_EQ(back.length, e.length);
          found = true;
        }
      }
      EXPECT_TRUE(found) << "edge " << u << "->" << e.to << " not symmetric";
    }
  }
}

// The grid-swept CSR against an all-pairs scan: random fields at several
// sizes, plus points on cell borders (multiples of the range, which is the
// grid's cell size) and pairs exactly at range, along an axis across a
// border and on a 6-8-10 diagonal. An edge is a pair with squared distance
// at most range^2, and its length is the pair's distance, bit for bit.
TEST(CommGraph, MatchesBruteForceAdjacency) {
  const double range = 10.0;
  for (const std::size_t n : {1, 2, 150, 700, 3000}) {
    Xoshiro256 rng(3 + n);
    const double side = std::sqrt(static_cast<double>(n) * 60.0) + 20.0;
    std::vector<Vec2> pos = deploy_uniform(n, side, rng);
    for (std::size_t k = 0; k + 2 < n && k < 40; k += 3) {
      const double x = range * static_cast<double>(rng.uniform_int(
                                   static_cast<std::uint64_t>(side / range)));
      const double y = std::floor(rng.uniform(0.0, side - 8.0));
      pos[k] = {x, y};                      // on a cell border
      pos[k + 1] = {x + range, y};          // exactly at range, next cell
      pos[k + 2] = {x + 6.0, y + 8.0};      // exactly at range, diagonal
    }
    const Vec2 bs{side / 2.0, side / 2.0};
    const CommGraph g(pos, bs, range);

    std::vector<Vec2> all = pos;
    all.push_back(bs);
    ASSERT_EQ(g.num_nodes(), all.size());
    std::size_t at_range = 0;
    for (std::size_t u = 0; u < all.size(); ++u) {
      std::vector<std::size_t> want;
      for (std::size_t v = 0; v < all.size(); ++v) {
        if (v != u && squared_distance(all[u], all[v]) <= range * range) {
          want.push_back(v);
          if (squared_distance(all[u], all[v]) == range * range) ++at_range;
        }
      }
      std::vector<std::size_t> got;
      for (const auto& e : g.neighbors(u)) {
        got.push_back(e.to);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(e.length),
                  std::bit_cast<std::uint64_t>(distance(all[u], all[e.to])))
            << "n " << n << " edge " << u << "-" << e.to;
      }
      ASSERT_EQ(got, want) << "n " << n << " node " << u;
    }
    if (n >= 150) {
      EXPECT_GT(at_range, 0u) << "n " << n;
    }
  }
}

TEST(CommGraph, NeighborsSortedById) {
  Xoshiro256 rng(4);
  const auto pos = deploy_uniform(100, 50.0, rng);
  CommGraph g(pos, Vec2{25, 25}, 15.0);
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    for (std::size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(nbrs[i - 1].to, nbrs[i].to);
    }
  }
}

TEST(CommGraph, EdgeLengthsWithinRange) {
  Xoshiro256 rng(5);
  const auto pos = deploy_uniform(100, 60.0, rng);
  CommGraph g(pos, Vec2{30, 30}, 10.0);
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    for (const auto& e : g.neighbors(u)) {
      EXPECT_LE(e.length, 10.0);
      EXPECT_GT(e.length, 0.0);
    }
  }
}

TEST(CommGraph, EdgeCountConsistent) {
  Xoshiro256 rng(6);
  const auto pos = deploy_uniform(80, 40.0, rng);
  CommGraph g(pos, Vec2{20, 20}, 12.0);
  std::size_t total_degree = 0;
  for (std::size_t u = 0; u < g.num_nodes(); ++u) total_degree += g.degree(u);
  EXPECT_EQ(total_degree, 2 * g.num_edges());
}

TEST(CommGraph, IsolatedNode) {
  const std::vector<Vec2> pos = {{0, 0}, {100, 100}};
  CommGraph g(pos, Vec2{50, 50}, 5.0);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.degree(1), 0u);
  EXPECT_EQ(g.degree(2), 0u);  // BS isolated too
}

TEST(CommGraph, InvalidRange) {
  EXPECT_THROW(CommGraph({{0, 0}}, Vec2{1, 1}, 0.0), InvalidArgument);
}

}  // namespace
}  // namespace wrsn
