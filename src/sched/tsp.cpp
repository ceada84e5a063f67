#include "sched/tsp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "geom/grid.hpp"
#include "obs/telemetry.hpp"

namespace wrsn {

namespace {

constexpr std::size_t kBadIndex = std::numeric_limits<std::size_t>::max();

// Under this many stops the quadratic scans beat the grid bookkeeping
// (measured crossover for 2-opt sits between 100 and 500 stops).
constexpr std::size_t kSmallTour = 128;

// Candidate radii are inflated and ring lower bounds shaved by these slacks
// so rounding can only admit extra candidates (harmless — the exact
// acceptance test rejects them), never lose one the reference would take.
constexpr double kRelSlack = 1e-9;
constexpr double kAbsSlack = 1e-9;
constexpr double kLbShave = 1.0 - 1e-12;

double tour_extent(Vec2 start, const std::vector<Vec2>& points) {
  double extent = std::max({1.0, start.x, start.y});
  for (const Vec2& p : points) extent = std::max({extent, p.x, p.y});
  return extent;
}

double cell_size_for(double extent, std::size_t n) {
  const double side = std::ceil(std::sqrt(static_cast<double>(std::max<std::size_t>(n, 1))));
  const int cells = std::clamp(static_cast<int>(side), 1, 256);
  return extent / static_cast<double>(cells);
}

}  // namespace

std::vector<std::size_t> nearest_neighbor_tour_reference(
    Vec2 start, const std::vector<Vec2>& points) {
  WRSN_OBS_SCOPE("tsp/nearest-neighbor");
  const std::size_t n = points.size();
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<bool> used(n, false);
  Vec2 cur = start;
  for (std::size_t step = 0; step < n; ++step) {
    double best_d2 = std::numeric_limits<double>::infinity();
    std::size_t best = kBadIndex;
    for (std::size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const double d2 = squared_distance(cur, points[i]);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = i;
      }
    }
    WRSN_ASSERT(best != kBadIndex, "nearest neighbour found no candidate");
    used[best] = true;
    order.push_back(best);
    cur = points[best];
  }
  return order;
}

std::vector<std::size_t> nearest_neighbor_tour(Vec2 start,
                                               const std::vector<Vec2>& points) {
  const std::size_t n = points.size();
  if (n < kSmallTour) {
    return nearest_neighbor_tour_reference(start, points);
  }
  WRSN_OBS_SCOPE("tsp/nearest-neighbor");

  const double extent = tour_extent(start, points);
  SpatialGrid grid(extent, cell_size_for(extent, n));
  grid.build(points);
  const int cps = grid.cells_per_side();
  const double cell = grid.cell_size();

  // Per-cell count of not-yet-visited points, so exhausted cells are skipped
  // without touching their id slices.
  std::vector<std::size_t> remaining(grid.num_cells(), 0);
  for (const Vec2& p : points) {
    ++remaining[grid.cell_index(grid.cell_coord(p.x), grid.cell_coord(p.y))];
  }

  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<bool> used(n, false);
  Vec2 cur = start;
  for (std::size_t step = 0; step < n; ++step) {
    double best_d2 = std::numeric_limits<double>::infinity();
    std::size_t best = kBadIndex;
    const int qx = grid.cell_coord(cur.x);
    const int qy = grid.cell_coord(cur.y);
    auto visit_cell = [&](int cx, int cy) {
      if (cx < 0 || cx >= cps || cy < 0 || cy >= cps) return;
      const std::size_t ci = grid.cell_index(cx, cy);
      if (remaining[ci] == 0) return;
      if (best != kBadIndex &&
          grid.cell_distance_lower_bound_sq(cur, cx, cy) * kLbShave > best_d2) {
        return;
      }
      grid.for_each_in_cell(cx, cy, [&](std::size_t i) {
        if (used[i]) return;
        const double d2 = squared_distance(cur, points[i]);
        // Strictly-closer wins; on an exact tie the lower index, matching
        // the reference's ascending strict-< scan.
        if (d2 < best_d2 || (d2 == best_d2 && i < best)) {
          best_d2 = d2;
          best = i;
        }
      });
    };
    for (int ring = 0; ring < cps; ++ring) {
      if (ring > 0 && best != kBadIndex) {
        const double ring_lb = static_cast<double>(ring - 1) * cell * kLbShave;
        if (ring_lb * ring_lb > best_d2) break;
      }
      if (ring == 0) {
        visit_cell(qx, qy);
        continue;
      }
      for (int cx = qx - ring; cx <= qx + ring; ++cx) {
        visit_cell(cx, qy - ring);
        visit_cell(cx, qy + ring);
      }
      for (int cy = qy - ring + 1; cy <= qy + ring - 1; ++cy) {
        visit_cell(qx - ring, cy);
        visit_cell(qx + ring, cy);
      }
    }
    WRSN_ASSERT(best != kBadIndex, "nearest neighbour found no candidate");
    used[best] = true;
    --remaining[grid.cell_index(grid.cell_coord(points[best].x),
                                grid.cell_coord(points[best].y))];
    order.push_back(best);
    cur = points[best];
  }
  return order;
}

void two_opt_reference(Vec2 start, const std::vector<Vec2>& points,
                       std::vector<std::size_t>& order, int max_rounds) {
  WRSN_OBS_SCOPE("tsp/two-opt");
  WRSN_REQUIRE(order.size() <= points.size(), "order must index into points");
  if (order.size() < 3) return;
  auto at = [&](std::size_t k) -> Vec2 {
    return k == 0 ? start : points[order[k - 1]];
  };
  const std::size_t n = order.size();
  for (int round = 0; round < max_rounds; ++round) {
    bool improved = false;
    // Edges are (k, k+1) over the sequence [start, order...]; reversing
    // order[i..j] replaces edges (i, i+1) and (j+1, j+2).
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const Vec2 a = at(i);
        const Vec2 b = at(i + 1);
        const Vec2 c = at(j + 1);
        // Open tour: the edge after the last node does not exist.
        const bool has_next = j + 1 < n;
        const Vec2 d = has_next ? at(j + 2) : Vec2{};
        const double before = distance(a, b) + (has_next ? distance(c, d) : 0.0);
        const double after = distance(a, c) + (has_next ? distance(b, d) : 0.0);
        if (after + 1e-12 < before) {
          std::reverse(order.begin() + static_cast<std::ptrdiff_t>(i),
                       order.begin() + static_cast<std::ptrdiff_t>(j + 1));
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
}

// Grid-pruned first-improvement 2-opt replaying the reference's exact move
// sequence. For edge (a, b) = (at(i), at(i+1)), a reversal of order[i..j]
// is improving only if d(a, c) < d(a, b) or d(b, d) < d(c, d) — otherwise
// both replacement edges grew and the summed test cannot pass. Candidate
// j's are therefore generated losslessly from the two clauses (around `a`
// with radius d(a, b) for the first; around `b`, per-candidate radius
// elen[j+1], for the second), sorted ascending, and submitted to the
// reference's own floating-point acceptance test in reference order. The
// tail move (j = n - 1, no next edge) needs d(a, c) < d(a, b) outright, so
// the first query covers it.
//
// The second clause has a per-candidate radius, so it is split by edge
// length: edges no longer than a few mean edge lengths are all covered by
// one small fixed-radius query, while the few long edges (nearest-neighbour
// tours always carry some field-crossing jumps that would blow a single
// query up to the whole grid) are kept in a sorted position list and tested
// explicitly.
void two_opt(Vec2 start, const std::vector<Vec2>& points,
             std::vector<std::size_t>& order, int max_rounds) {
  if (order.size() < kSmallTour) {
    two_opt_reference(start, points, order, max_rounds);
    return;
  }
  WRSN_OBS_SCOPE("tsp/two-opt");
  WRSN_REQUIRE(order.size() <= points.size(), "order must index into points");
  const std::size_t n = order.size();
  auto at = [&](std::size_t k) -> Vec2 {
    return k == 0 ? start : points[order[k - 1]];
  };

  const double extent = tour_extent(start, points);
  SpatialGrid grid(extent, cell_size_for(extent, n));
  grid.build(points);

  // Position of each point id in the tour (at(pos_of[id]) == points[id]);
  // kBadIndex for points outside `order`.
  std::vector<std::size_t> pos_of(points.size(), kBadIndex);
  for (std::size_t k = 0; k < n; ++k) pos_of[order[k]] = k + 1;

  // Cached edge lengths: elen[p] = distance(at(p), at(p+1)), p in [0, n).
  // distance() is bit-symmetric, so reversals permute the inner entries
  // without changing their values.
  std::vector<double> elen(n);
  for (std::size_t p = 0; p < n; ++p) elen[p] = distance(at(p), at(p + 1));

  std::vector<std::size_t> cand;
  cand.reserve(64);
  std::vector<std::size_t> long_pos;  // sorted edge positions with elen > r_short

  // Round-scoped skip bound: all i beyond the last reversal of a round were
  // scanned against the final tour of that round and found clean, so the
  // next round may stop there — unless it changed the tour first.
  std::size_t scan_end = n;  // exclusive bound on i + 1 (i ranges [0, n-1))

  for (int round = 0; round < max_rounds; ++round) {
    bool improved = false;
    std::size_t last_reversal_i = 0;
    bool any_reversal = false;

    // Short/long threshold for this round. Edge values move around during
    // the round but the list is maintained against this fixed cut.
    double mean_elen = 0.0;
    for (std::size_t p = 1; p < n; ++p) mean_elen += elen[p];
    mean_elen /= static_cast<double>(n - 1);
    const double r_short = 4.0 * mean_elen;
    long_pos.clear();
    for (std::size_t p = 1; p < n; ++p) {
      if (elen[p] > r_short) long_pos.push_back(p);
    }

    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (!any_reversal && i + 1 >= scan_end) break;
      const Vec2 a = at(i);
      std::size_t jmin = i + 1;
      for (;;) {
        const Vec2 b = at(i + 1);
        const double ab = elen[i];
        cand.clear();
        // First clause: c = at(j+1) with d(a, c) < d(a, b).
        const double r1 = ab * (1.0 + kRelSlack) + kAbsSlack;
        grid.for_each_in_radius(a, r1, [&](std::size_t id) {
          const std::size_t p = pos_of[id];
          if (p == kBadIndex) return;
          if (p >= jmin + 1 && p >= i + 2) cand.push_back(p - 1);
        });
        // Second clause: d = at(j+2) with d(b, d) < d(c, d) = elen[j+1].
        // Short edges (elen[j+1] <= r_short) all fit inside one query...
        const double r2 = r_short * (1.0 + kRelSlack) + kAbsSlack;
        grid.for_each_in_radius(b, r2, [&](std::size_t id) {
          const std::size_t p = pos_of[id];
          if (p == kBadIndex || p < jmin + 2 || p < i + 3 || p > n) return;
          const std::size_t j = p - 2;
          if (elen[j + 1] > r_short) return;  // covered by the long list
          const double lim = elen[j + 1] * (1.0 + kRelSlack) + kAbsSlack;
          if (squared_distance(b, points[id]) <= lim * lim) cand.push_back(j);
        });
        // ...and the long edges are enumerated outright.
        {
          const std::size_t qlo = std::max(jmin + 1, i + 2);
          for (auto it =
                   std::lower_bound(long_pos.begin(), long_pos.end(), qlo);
               it != long_pos.end(); ++it) {
            const std::size_t q = *it;  // edge (at(q), at(q+1)), q in [1, n)
            const double lim = elen[q] * (1.0 + kRelSlack) + kAbsSlack;
            if (squared_distance(b, at(q + 1)) <= lim * lim) {
              cand.push_back(q - 1);
            }
          }
        }
        std::sort(cand.begin(), cand.end());
        cand.erase(std::unique(cand.begin(), cand.end()), cand.end());

        bool reversed = false;
        for (const std::size_t j : cand) {
          const Vec2 c = at(j + 1);
          const bool has_next = j + 1 < n;
          const Vec2 d = has_next ? at(j + 2) : Vec2{};
          // elen entries are bit-equal to fresh distance() calls, so this
          // is the reference's exact acceptance expression.
          const double before = elen[i] + (has_next ? elen[j + 1] : 0.0);
          const double after = distance(a, c) + (has_next ? distance(b, d) : 0.0);
          if (after + 1e-12 < before) {
            std::reverse(order.begin() + static_cast<std::ptrdiff_t>(i),
                         order.begin() + static_cast<std::ptrdiff_t>(j + 1));
            for (std::size_t k = i; k <= j; ++k) pos_of[order[k]] = k + 1;
            std::reverse(elen.begin() + static_cast<std::ptrdiff_t>(i + 1),
                         elen.begin() + static_cast<std::ptrdiff_t>(j + 1));
            elen[i] = distance(a, c);
            if (has_next) elen[j + 1] = distance(b, d);
            // Remap long-edge positions through the reversal (values in
            // [i+1, j] move to i+1+j-q, staying in-window, so reversing the
            // affected slice restores sorted order), then account for the
            // two boundary edges whose lengths actually changed.
            {
              const auto lo = std::lower_bound(long_pos.begin(),
                                               long_pos.end(), i + 1);
              const auto hi = std::upper_bound(lo, long_pos.end(), j);
              for (auto it = lo; it != hi; ++it) *it = i + 1 + j - *it;
              std::reverse(lo, hi);
              auto set_long = [&](std::size_t q) {
                const bool is_long = elen[q] > r_short;
                const auto it = std::lower_bound(long_pos.begin(),
                                                 long_pos.end(), q);
                const bool present = it != long_pos.end() && *it == q;
                if (is_long && !present) {
                  long_pos.insert(it, q);
                } else if (!is_long && present) {
                  long_pos.erase(it);
                }
              };
              if (i >= 1) set_long(i);
              if (has_next) set_long(j + 1);
            }
            improved = true;
            any_reversal = true;
            last_reversal_i = i;
            // The reference continues its inner loop at j + 1 against the
            // new at(i+1); regenerate candidates from there.
            jmin = j + 1;
            reversed = true;
            break;
          }
        }
        if (!reversed) break;
      }
    }
    scan_end = any_reversal ? last_reversal_i + 2 : 0;
    if (!improved) break;
  }
}

double open_tour_length(Vec2 start, const std::vector<Vec2>& points,
                        const std::vector<std::size_t>& order) {
  double len = 0.0;
  Vec2 cur = start;
  for (std::size_t idx : order) {
    WRSN_REQUIRE(idx < points.size(), "tour index out of range");
    len += distance(cur, points[idx]);
    cur = points[idx];
  }
  return len;
}

}  // namespace wrsn
