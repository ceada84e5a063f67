#include "sched/kmeans.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"
#include "obs/telemetry.hpp"

namespace wrsn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// k-means++ seeding in O(n*k): each point's squared distance to its nearest
// chosen centroid is folded in one new centroid at a time (min of doubles is
// exact, so the weights equal a full rescan's bit for bit), and each new
// centroid is drawn with probability proportional to that distance.
std::vector<Vec2> kmeanspp_init_incremental(const std::vector<Vec2>& points,
                                            std::size_t k, Xoshiro256& rng) {
  std::vector<Vec2> centroids;
  centroids.reserve(k);
  centroids.push_back(points[rng.uniform_int(points.size())]);
  std::vector<double> d2(points.size(), kInf);
  while (centroids.size() < k) {
    const Vec2 latest = centroids.back();
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      d2[i] = std::min(d2[i], squared_distance(points[i], latest));
      total += d2[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with a centroid; duplicate one.
      centroids.push_back(points[rng.uniform_int(points.size())]);
      continue;
    }
    double pick = rng.uniform() * total;
    std::size_t chosen = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      pick -= d2[i];
      if (pick <= 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

// Lloyd update step: each centroid moves to the mean of its points; an empty
// cluster is re-seeded on the point farthest from its centroid. Returns true
// when a re-seed changed the assignment.
bool update_centroids(const std::vector<Vec2>& points, std::size_t k,
                      std::vector<std::size_t>& assignment,
                      std::vector<Vec2>& centroids) {
  bool changed = false;
  std::vector<Vec2> sums(k, Vec2{});
  std::vector<std::size_t> counts(k, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    sums[assignment[i]] += points[i];
    ++counts[assignment[i]];
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] > 0) {
      centroids[c] = sums[c] / static_cast<double>(counts[c]);
    } else {
      // Re-seed an empty cluster on the farthest point from its centroid.
      double far_d = -1.0;
      std::size_t far_i = 0;
      for (std::size_t i = 0; i < points.size(); ++i) {
        const double d = squared_distance(points[i], centroids[assignment[i]]);
        if (d > far_d) {
          far_d = d;
          far_i = i;
        }
      }
      centroids[c] = points[far_i];
      assignment[far_i] = c;
      changed = true;
    }
  }
  return changed;
}

}  // namespace

double wcss_of(const std::vector<Vec2>& points,
               const std::vector<std::size_t>& assignment,
               const std::vector<Vec2>& centroids) {
  WRSN_REQUIRE(assignment.size() == points.size(), "assignment size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    WRSN_REQUIRE(assignment[i] < centroids.size(), "cluster index out of range");
    total += squared_distance(points[i], centroids[assignment[i]]);
  }
  return total;
}

KMeansResult kmeans(const std::vector<Vec2>& points, std::size_t k,
                    Xoshiro256& rng, std::size_t max_iterations) {
  WRSN_OBS_SCOPE("kmeans/lloyd");
  WRSN_REQUIRE(k > 0, "k must be positive");
  KMeansResult result;
  if (points.empty()) {
    result.converged = true;
    return result;
  }
  if (k >= points.size()) {
    result.assignment.resize(points.size());
    result.centroids = points;
    for (std::size_t i = 0; i < points.size(); ++i) result.assignment[i] = i;
    result.converged = true;
    return result;
  }

  result.centroids = kmeanspp_init_incremental(points, k, rng);
  result.assignment.assign(points.size(), 0);

  for (result.iterations = 1; result.iterations <= max_iterations;
       ++result.iterations) {
    // Assignment step.
    bool changed = false;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = kInf;
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = squared_distance(points[i], result.centroids[c]);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      if (result.assignment[i] != best_c) {
        result.assignment[i] = best_c;
        changed = true;
      }
    }
    // Update step.
    if (update_centroids(points, k, result.assignment, result.centroids)) {
      changed = true;
    }
    if (!changed) {
      result.converged = true;
      break;
    }
  }
  result.wcss = wcss_of(points, result.assignment, result.centroids);
  return result;
}

}  // namespace wrsn
