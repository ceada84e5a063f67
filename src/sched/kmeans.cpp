#include "sched/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/error.hpp"
#include "obs/telemetry.hpp"

namespace wrsn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Bound bookkeeping only pays off once the n*k product is sizeable.
constexpr std::size_t kSmallKMeans = 64;

// Certification margin (in metres) for skipping a point's assignment scan:
// a skip is taken only when the bounds prove the current center strictly
// dominates every other by more than this, so the full argmin — ties to the
// lowest index included — provably returns the current assignment. The
// margin towers over the bound drift accumulated across iterations (a few
// hundred ulps), keeping every skip sound in floating point.
constexpr double kMargin = 1e-7;

std::vector<Vec2> kmeanspp_init(const std::vector<Vec2>& points, std::size_t k,
                                Xoshiro256& rng) {
  std::vector<Vec2> centroids;
  centroids.reserve(k);
  centroids.push_back(points[rng.uniform_int(points.size())]);
  std::vector<double> d2(points.size());
  while (centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const Vec2& c : centroids) {
        best = std::min(best, squared_distance(points[i], c));
      }
      d2[i] = best;
      total += best;
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

// Same draws, same centroids, O(n*k) instead of O(n*k^2): the reference
// recomputes every point's distance to every centroid each round, but the
// min over centroids 0..m-1 equals min(previous min, distance to the newest
// centroid) exactly — min of doubles is associative, no rounding is involved
// — so maintaining d2 incrementally reproduces the reference's d2 array (and
// therefore its weights, totals and RNG consumption) bit for bit.
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
      // All remaining points coincide with a centroid; duplicate one. The
      // duplicate is an exact copy, so folding it into d2 next round leaves
      // every minimum unchanged, matching the reference.
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

// The update step shared verbatim by the reference and the Elkan path, so
// both evaluate the exact same floating-point expressions. Appends the
// index of every point used to re-seed an empty cluster to `reseeded`.
bool update_centroids(const std::vector<Vec2>& points, std::size_t k,
                      std::vector<std::size_t>& assignment,
                      std::vector<Vec2>& centroids,
                      std::vector<std::size_t>* reseeded) {
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
      if (reseeded) reseeded->push_back(far_i);
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

KMeansResult kmeans_reference(const std::vector<Vec2>& points, std::size_t k,
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

  result.centroids = kmeanspp_init(points, k, rng);
  result.assignment.assign(points.size(), 0);

  for (result.iterations = 1; result.iterations <= max_iterations;
       ++result.iterations) {
    // Assignment step.
    bool changed = false;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
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
    if (update_centroids(points, k, result.assignment, result.centroids,
                         nullptr)) {
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

KMeansResult kmeans(const std::vector<Vec2>& points, std::size_t k,
                    Xoshiro256& rng, std::size_t max_iterations) {
  if (points.size() < kSmallKMeans) {
    return kmeans_reference(points, k, rng, max_iterations);
  }
  WRSN_OBS_SCOPE("kmeans/lloyd");
  WRSN_REQUIRE(k > 0, "k must be positive");
  KMeansResult result;
  // points.size() > kSmallKMeans > 0 here; the k >= n identity case still
  // mirrors the reference for completeness.
  if (k >= points.size()) {
    result.assignment.resize(points.size());
    result.centroids = points;
    for (std::size_t i = 0; i < points.size(); ++i) result.assignment[i] = i;
    result.converged = true;
    return result;
  }

  result.centroids = kmeanspp_init_incremental(points, k, rng);
  result.assignment.assign(points.size(), 0);

  const std::size_t n = points.size();
  // Hamerly-style triangle-inequality bounds — one pair per point, so the
  // per-iteration bookkeeping is O(n + k^2) instead of the reference's
  // O(n*k) scan (or Elkan's O(n*k) bound maintenance, whose memory traffic
  // eats the savings at the k's this simulator uses):
  //   u[i] >= d(point i, its center)
  //   l[i] <= min over c != assignment[i] of d(point i, center c)
  // both maintained within a few hundred ulps (<< kMargin).
  //
  // Bounds are drifted LAZILY: instead of an O(n) pass after every update
  // step adding each center's drift to u and subtracting the largest drift
  // from l (two stores plus a gather per point per iteration — the memory
  // traffic that made this path slower than the plain scan at n ~ 2000), we
  // keep per-center cumulative drifts and a cumulative max drift, stamp each
  // point with the update count at which its bounds were exact, and
  // reconstruct the drifted bounds inside the skip test from the prefix-sum
  // difference. The reconstructed u is identical to the eagerly-maintained
  // sum up to association of additions; any such u remains a sound upper
  // bound, and soundness is all a skip needs — the full argmin is only ever
  // bypassed when the bounds PROVE it would return the current assignment,
  // so the output stays bit-identical to the reference regardless of which
  // points happen to be certified.
  std::vector<double> u(n, kInf);
  std::vector<double> l(n, 0.0);
  std::vector<double> s(k, 0.0);  // half the distance to the closest other center
  std::vector<std::uint32_t> stamp(n, 0);  // update count when u/l were exact
  const std::size_t kStride = max_iterations + 1;
  std::vector<double> cum(k * kStride, 0.0);  // cum[c*kStride+t]: drift of c over t updates
  std::vector<double> cum_max(kStride, 0.0);  // cumulative max-over-centers drift
  std::vector<Vec2> old_centroids(k);
  std::vector<std::size_t> reseeded;

  // Full reference argmin for one point; refreshes its bounds exactly.
  auto assign_full = [&](std::size_t i) -> std::size_t {
    double best = kInf;
    double second = kInf;
    std::size_t best_c = 0;
    for (std::size_t c = 0; c < k; ++c) {
      const double d = squared_distance(points[i], result.centroids[c]);
      if (d < best) {
        second = best;
        best = d;
        best_c = c;
      } else {
        second = std::min(second, d);
      }
    }
    u[i] = std::sqrt(best);
    l[i] = std::sqrt(second);  // inf stays inf when k == 1
    return best_c;
  };

  for (result.iterations = 1; result.iterations <= max_iterations;
       ++result.iterations) {
    // Updates applied so far; index into the cumulative-drift tables.
    const std::uint32_t now = static_cast<std::uint32_t>(result.iterations - 1);
    bool changed = false;
    if (result.iterations == 1) {
      // First pass: full scans, exactly the reference, seeding the bounds.
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t best_c = assign_full(i);
        if (result.assignment[i] != best_c) {
          result.assignment[i] = best_c;
          changed = true;
        }
      }
    } else {
      for (std::size_t c = 0; c < k; ++c) {
        double nearest = kInf;
        for (std::size_t o = 0; o < k; ++o) {
          if (o == c) continue;
          nearest = std::min(nearest,
                             distance(result.centroids[c], result.centroids[o]));
        }
        s[c] = 0.5 * nearest;
      }
      const double cum_max_now = cum_max[now];
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t a = result.assignment[i];
        const std::uint32_t ti = stamp[i];
        // Reconstruct the drifted bounds from the prefix sums: u grew by the
        // own center's drift since the stamp, l shrank by the accumulated
        // max drift (l may go negative; max with s keeps the test sound).
        const double u_eff = u[i] + (cum[a * kStride + now] - cum[a * kStride + ti]);
        const double l_eff = l[i] - (cum_max_now - cum_max[ti]);
        // Skip when either bound proves strict dominance: any other center
        // c has d(i,c) >= max(2*s[a] - u[i], l[i]) > u[i] >= d(i,a), so the
        // full argmin — ties to the lowest index included — would return
        // the current assignment.
        const double m = std::max(s[a], l_eff);
        if (u_eff + kMargin < m) continue;
        // Tighten u to the exact distance, re-stamp, and retry before paying
        // for the full scan (the cheap test fails mostly because u drifted).
        u[i] = std::sqrt(squared_distance(points[i], result.centroids[a]));
        l[i] = l_eff;
        stamp[i] = now;
        if (u[i] + kMargin < m) continue;
        const std::size_t best_c = assign_full(i);
        if (result.assignment[i] != best_c) {
          result.assignment[i] = best_c;
          changed = true;
        }
        stamp[i] = now;
      }
    }

    // Update step (verbatim reference expressions).
    old_centroids = result.centroids;
    reseeded.clear();
    if (update_centroids(points, k, result.assignment, result.centroids,
                         &reseeded)) {
      changed = true;
    }

    // Extend the cumulative drift tables by this update's movement. No O(n)
    // pass: points pick the drift up lazily from their stamps.
    double d_max = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      const double d = distance(old_centroids[c], result.centroids[c]);
      cum[c * kStride + now + 1] = cum[c * kStride + now] + d;
      d_max = std::max(d_max, d);
    }
    cum_max[now + 1] = cum_max[now] + d_max;
    // A re-seeded point sits exactly on its new center (u = 0 is exact), but
    // its second-best bound is unknown; l = 0 only lets it skip when the
    // s-bound alone proves dominance.
    for (std::size_t i : reseeded) {
      u[i] = 0.0;
      l[i] = 0.0;
      stamp[i] = now + 1;
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
