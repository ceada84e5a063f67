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
// The production path prunes assignment scans with Elkan/Hamerly-style
// triangle-inequality bounds but is bit-identical to kmeans_reference on every input
// (same RNG consumption, same assignment, centroids, wcss and iteration
// count); inputs below a small size cutoff run the reference directly.
[[nodiscard]] KMeansResult kmeans(const std::vector<Vec2>& points, std::size_t k,
                                  Xoshiro256& rng, std::size_t max_iterations = 100);

// Plain Lloyd reference (full O(n*k) scan per iteration); identical output.
[[nodiscard]] KMeansResult kmeans_reference(const std::vector<Vec2>& points,
                                            std::size_t k, Xoshiro256& rng,
                                            std::size_t max_iterations = 100);

// WCSS of an arbitrary assignment (used by tests to verify local optimality).
[[nodiscard]] double wcss_of(const std::vector<Vec2>& points,
                             const std::vector<std::size_t>& assignment,
                             const std::vector<Vec2>& centroids);

}  // namespace wrsn
