#pragma once
// K-means (Lloyd) clustering used by the Partition-Scheme (Section IV-D-1):
// the recharge node list is split into m geographic groups, one per RV,
// minimizing the within-cluster sum of squares (Eq. (15)). Initialization is
// k-means++ seeded from the caller's RNG stream, so results are
// deterministic per replica.

#include <cstddef>
#include <vector>

#include "core/rng.hpp"
#include "geom/vec2.hpp"

namespace wrsn {

struct KMeansResult {
  std::vector<std::size_t> assignment;  // point index -> cluster in [0, k)
  std::vector<Vec2> centroids;
  double wcss = 0.0;   // within-cluster sum of squares at convergence
  std::size_t iterations = 0;
  bool converged = false;
};

// Runs Lloyd's algorithm on `points` with k clusters. If k >= points.size()
// each point gets its own cluster. `max_iterations` bounds the Lloyd loop.
// Each iteration scans every point against every centroid: the recharge
// lists clustered here average a few points, too few for pruning to pay.
[[nodiscard]] KMeansResult kmeans(const std::vector<Vec2>& points, std::size_t k,
                                  Xoshiro256& rng, std::size_t max_iterations = 100);

// WCSS of an arbitrary assignment (used by tests to verify local optimality).
[[nodiscard]] double wcss_of(const std::vector<Vec2>& points,
                             const std::vector<std::size_t>& assignment,
                             const std::vector<Vec2>& centroids);

}  // namespace wrsn
