// Oracle tests for Algorithm 1's admission core, over all targets and over
// the coverage-overlap components a teleport touches.
//
// `reference_balanced_clustering` below is the original formulation of the
// admission loop, kept here as a test-only reference: an O(M*N) distance
// scan for the candidate sets, an M x N membership matrix, and one stable
// sort of the cluster order by size before every admission. The production
// core (activity/clustering.cpp) replaces the matrix with a sensor->targets
// adjacency and the per-admission sort with a (size, stamp) minimum over
// the sensor's own candidates. Every case here requires the two to return
// identical ClusterSets: members in order, assignment and loads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "activity/clustering.hpp"
#include "core/rng.hpp"
#include "geom/grid.hpp"
#include "net/deployment.hpp"

namespace wrsn {
namespace {

ClusterSet reference_balanced_clustering(const std::vector<Vec2>& sensor_pos,
                                         const std::vector<Vec2>& target_pos,
                                         double sensing_range,
                                         const std::vector<bool>& eligible) {
  const std::size_t n = sensor_pos.size();
  const std::size_t m = target_pos.size();
  ClusterSet out;
  out.members.resize(m);
  out.assignment.assign(n, kInvalidId);
  out.loads.assign(n, 0);

  const double r2 = sensing_range * sensing_range;
  std::vector<std::vector<bool>> covered(m, std::vector<bool>(n, false));
  for (TargetId t = 0; t < m; ++t) {
    for (SensorId s = 0; s < n; ++s) {
      if (!eligible.empty() && !eligible[s]) continue;
      if (squared_distance(sensor_pos[s], target_pos[t]) <= r2) {
        covered[t][s] = true;
        ++out.loads[s];
      }
    }
  }
  std::vector<SensorId> pool;
  for (SensorId s = 0; s < n; ++s) {
    if (out.loads[s] > 0) pool.push_back(s);
  }
  std::stable_sort(pool.begin(), pool.end(), [&](SensorId a, SensorId b) {
    return out.loads[a] < out.loads[b];
  });

  std::vector<std::size_t> sizes(m, 0);
  std::vector<TargetId> order(m);
  for (TargetId t = 0; t < m; ++t) order[t] = t;
  for (const SensorId s : pool) {
    std::stable_sort(order.begin(), order.end(),
                     [&](TargetId a, TargetId b) { return sizes[a] < sizes[b]; });
    for (const TargetId t : order) {
      if (covered[t][s]) {
        out.members[t].push_back(s);
        out.assignment[s] = t;
        ++sizes[t];
        break;
      }
    }
  }
  return out;
}

// Candidate lists the way the simulator builds them: one sensing-grid query
// per target, eligible sensors only, sorted ascending.
std::vector<std::vector<SensorId>> grid_candidates(const std::vector<Vec2>& sensor_pos,
                                                   const std::vector<Vec2>& target_pos,
                                                   double field_side, double range,
                                                   const std::vector<bool>& eligible) {
  SpatialGrid grid(field_side, std::max(range, 1.0));
  grid.build(sensor_pos);
  std::vector<std::vector<SensorId>> cand(target_pos.size());
  for (TargetId t = 0; t < target_pos.size(); ++t) {
    grid.for_each_in_radius(target_pos[t], range, [&](std::size_t s) {
      if (eligible.empty() || eligible[s]) cand[t].push_back(s);
    });
    std::sort(cand[t].begin(), cand[t].end());
  }
  return cand;
}

std::vector<TargetId> all_targets(std::size_t m) {
  std::vector<TargetId> all(m);
  for (TargetId t = 0; t < m; ++t) all[t] = t;
  return all;
}

void expect_same(const ClusterSet& got, const ClusterSet& want) {
  ASSERT_EQ(got.members.size(), want.members.size());
  for (TargetId t = 0; t < want.members.size(); ++t) {
    EXPECT_EQ(got.members[t], want.members[t]) << "target " << t;
  }
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.loads, want.loads);
}

struct Instance {
  std::vector<Vec2> sensors;
  std::vector<Vec2> targets;
  std::vector<bool> eligible;
  double side = 0.0;
  double range = 0.0;
};

// Five regimes, picked by `kind`:
//   0 sparse: the paper's density (500 sensors on a 200 m field, 8 m range)
//   1 dense: ranges comparable to the field, every sensor sees many targets
//   2 sparse with a random eligible mask (dead sensors)
//   3 empty half: sensors only in the lower half, so upper-half targets have
//     no candidates
//   4 dense with a sparse eligible mask and up to ~200 targets
Instance make_instance(int kind, Xoshiro256& rng) {
  Instance in;
  std::size_t n = 0;
  std::size_t m = 0;
  switch (kind) {
    case 0:
    case 2:
      n = 100 + rng.uniform_int(700);
      m = 5 + rng.uniform_int(60);
      in.side = 200.0 * std::sqrt(static_cast<double>(n) / 500.0);
      in.range = 8.0;
      break;
    case 1:
      n = 20 + rng.uniform_int(150);
      m = 2 + rng.uniform_int(40);
      in.side = 30.0 + rng.uniform(0.0, 30.0);
      in.range = in.side * rng.uniform(0.3, 0.9);
      break;
    case 3:
      n = 100 + rng.uniform_int(300);
      m = 10 + rng.uniform_int(50);
      in.side = 100.0;
      in.range = 6.0 + rng.uniform(0.0, 10.0);
      break;
    default:
      n = 50 + rng.uniform_int(250);
      m = 100 + rng.uniform_int(101);
      in.side = 60.0;
      in.range = 10.0 + rng.uniform(0.0, 20.0);
      break;
  }
  in.sensors = deploy_uniform(n, in.side, rng);
  if (kind == 3) {
    for (Vec2& p : in.sensors) p.y *= 0.5;
  }
  in.targets = deploy_uniform(m, in.side, rng);
  if (kind == 2 || kind == 4) {
    const double keep = kind == 2 ? 0.7 : 0.25;
    in.eligible.resize(n);
    for (SensorId s = 0; s < n; ++s) in.eligible[s] = rng.uniform() < keep;
  }
  return in;
}

class AdmissionOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdmissionOracle, CoreMatchesStableSortReference) {
  Xoshiro256 rng(0xc1057e50ULL + GetParam());
  // Storage shared across the five instances, as the simulator shares it
  // across reclusters: stale contents from a larger or smaller previous
  // call must not leak into the next result.
  ClusterSet reused;
  AdmissionScratch scratch;
  for (int kind = 0; kind < 5; ++kind) {
    SCOPED_TRACE(kind);
    const Instance in = make_instance(kind, rng);
    const ClusterSet want =
        reference_balanced_clustering(in.sensors, in.targets, in.range, in.eligible);

    expect_same(balanced_clustering(in.sensors, in.targets, in.range, in.eligible),
                want);

    const auto cand =
        grid_candidates(in.sensors, in.targets, in.side, in.range, in.eligible);
    balanced_clustering(cand, all_targets(cand.size()), in.sensors.size(), reused,
                        scratch);
    expect_same(reused, want);
  }
}

// The simulator's pattern: one ClusterSet and one AdmissionScratch of a
// fixed sensor count reused across many global reclusterings, which then
// reset only the previous members, with scoped rebalance_dirty edits and
// eligibility flips (deaths, revivals) in between. Every reclustering must
// equal a fresh dense run on fresh storage.
TEST_P(AdmissionOracle, SameSizeReuseMatchesFreshDenseRun) {
  Xoshiro256 rng(0x5e05eULL + GetParam());
  const Instance in = make_instance(static_cast<int>(GetParam() % 5), rng);
  const std::size_t n = in.sensors.size();
  std::vector<Vec2> targets = in.targets;
  std::vector<bool> eligible = in.eligible;
  if (eligible.empty()) eligible.assign(n, true);
  const double r2 = in.range * in.range;

  ClusterSet reused;
  AdmissionScratch scratch;
  for (int round = 0; round < 50; ++round) {
    SCOPED_TRACE(round);
    // Teleport one target and flip a few sensors' eligibility, then
    // recluster globally.
    targets[rng.uniform_int(targets.size())] = random_location(in.side, rng);
    for (int k = 0; k < 3; ++k) {
      const std::size_t s = rng.uniform_int(n);
      eligible[s] = !eligible[s];
    }
    const auto cand = grid_candidates(in.sensors, targets, in.side, in.range, eligible);
    balanced_clustering(cand, all_targets(cand.size()), n, reused, scratch);
    ClusterSet fresh;
    AdmissionScratch fresh_scratch;
    balanced_clustering(cand, all_targets(cand.size()), n, fresh, fresh_scratch);
    expect_same(reused, fresh);
    if (::testing::Test::HasFailure()) return;

    // Scoped edits before the next reclustering: a target steps, and the
    // eligible sensors in range of either end are re-balanced.
    const TargetId t = static_cast<TargetId>(rng.uniform_int(targets.size()));
    const Vec2 from = targets[t];
    targets[t] = random_location(in.side, rng);
    std::vector<SensorId> dirty;
    for (SensorId s = 0; s < n; ++s) {
      if (eligible[s] && (squared_distance(in.sensors[s], from) <= r2 ||
                          squared_distance(in.sensors[s], targets[t]) <= r2)) {
        dirty.push_back(s);
      }
    }
    (void)rebalance_dirty(reused, in.sensors, targets, in.range, dirty);
  }
}

// Number of coverage-overlap components among `subset`, linking targets
// whose lists in `lists` share a sensor.
std::size_t count_components(const std::vector<std::vector<SensorId>>& lists,
                             const std::vector<TargetId>& subset, std::size_t n) {
  std::vector<TargetId> parent(lists.size());
  for (TargetId t = 0; t < parent.size(); ++t) parent[t] = t;
  const auto find = [&](TargetId t) {
    while (parent[t] != t) t = parent[t] = parent[parent[t]];
    return t;
  };
  std::vector<TargetId> owner(n, kInvalidId);
  for (const TargetId t : subset) {
    for (const SensorId s : lists[t]) {
      if (owner[s] == kInvalidId) {
        owner[s] = t;
      } else {
        parent[find(t)] = find(owner[s]);
      }
    }
  }
  std::size_t roots = 0;
  for (const TargetId t : subset) roots += find(t) == t ? 1 : 0;
  return roots;
}

// The teleport recluster's scoping: each round one target teleports and a
// few sensors die or revive (a revival re-joins through rebalance_dirty, as
// in the simulator). Only the moved target and the targets covering a
// flipped sensor get fresh lists; the admission re-runs over their
// overlap components in the old and new lists together, on the storage the
// previous rounds left. Every round must equal a fresh global admission,
// and across the rounds components must both split and merge.
struct SubsetRun {
  std::size_t splits = 0;
  std::size_t merges = 0;
};

void run_subset_rounds(std::uint64_t seed, SubsetRun& run) {
  Xoshiro256 rng(0xc0b0ULL + seed);
  const int kinds[] = {0, 2, 3};
  const Instance in = make_instance(kinds[seed % 3], rng);
  const std::size_t n = in.sensors.size();
  const std::size_t m = in.targets.size();
  std::vector<Vec2> targets = in.targets;
  std::vector<bool> eligible = in.eligible;
  if (eligible.empty()) eligible.assign(n, true);
  const double r2 = in.range * in.range;
  const auto covers = [&](TargetId t, SensorId s) {
    return squared_distance(in.sensors[s], targets[t]) <= r2;
  };

  auto lists = grid_candidates(in.sensors, targets, in.side, in.range, eligible);
  ClusterSet reused;
  AdmissionScratch scratch;
  balanced_clustering(lists, all_targets(m), n, reused, scratch);
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE(round);
    std::vector<bool> refreshed(m, false);
    const auto moved = static_cast<TargetId>(rng.uniform_int(m));
    refreshed[moved] = true;
    targets[moved] = random_location(in.side, rng);
    for (int k = 0; k < 3; ++k) {
      const auto s = static_cast<SensorId>(rng.uniform_int(n));
      eligible[s] = !eligible[s];
      for (TargetId t = 0; t < m; ++t) refreshed[t] = refreshed[t] || covers(t, s);
      if (eligible[s]) {
        // A revival re-joins at once; a death leaves its member in place.
        (void)rebalance_dirty(reused, in.sensors, targets, in.range, {s});
      }
    }
    const auto fresh_lists =
        grid_candidates(in.sensors, targets, in.side, in.range, eligible);
    // Targets linked through a sensor on an old or a new list.
    std::vector<std::vector<TargetId>> by_sensor(n);
    for (TargetId t = 0; t < m; ++t) {
      for (const SensorId s : fresh_lists[t]) by_sensor[s].push_back(t);
      if (!refreshed[t]) continue;
      for (const SensorId s : lists[t]) by_sensor[s].push_back(t);
    }
    std::vector<bool> in_subset = refreshed;
    std::vector<TargetId> queue;
    for (TargetId t = 0; t < m; ++t) {
      if (refreshed[t]) queue.push_back(t);
    }
    const auto link = [&](const std::vector<SensorId>& list) {
      for (const SensorId s : list) {
        for (const TargetId u : by_sensor[s]) {
          if (in_subset[u]) continue;
          in_subset[u] = true;
          queue.push_back(u);
        }
      }
    };
    for (std::size_t i = 0; i < queue.size(); ++i) {
      link(fresh_lists[queue[i]]);
      link(lists[queue[i]]);
    }
    std::vector<TargetId> subset;
    for (TargetId t = 0; t < m; ++t) {
      if (in_subset[t]) subset.push_back(t);
    }
    const std::size_t before = count_components(lists, subset, n);
    const std::size_t after = count_components(fresh_lists, subset, n);
    run.splits += after > before ? 1 : 0;
    run.merges += after < before ? 1 : 0;
    lists = fresh_lists;

    balanced_clustering(lists, subset, n, reused, scratch);
    ClusterSet fresh;
    AdmissionScratch fresh_scratch;
    balanced_clustering(lists, all_targets(m), n, fresh, fresh_scratch);
    expect_same(reused, fresh);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(AdmissionOracle, ComponentSubsetMatchesGlobalAdmission) {
  SubsetRun run;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE(seed);
    run_subset_rounds(seed, run);
    if (HasFailure()) return;
  }
  EXPECT_GT(run.splits, 0u);
  EXPECT_GT(run.merges, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, AdmissionOracle,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(AdmissionOracle, TargetsWithoutCandidatesStayEmpty) {
  // Every sensor ineligible: no pool, every cluster empty, loads all zero.
  Xoshiro256 rng(5);
  const auto sensors = deploy_uniform(80, 50.0, rng);
  const auto targets = deploy_uniform(12, 50.0, rng);
  const std::vector<bool> none(sensors.size(), false);
  const ClusterSet got = balanced_clustering(sensors, targets, 10.0, none);
  expect_same(got, reference_balanced_clustering(sensors, targets, 10.0, none));
  for (const auto& m : got.members) EXPECT_TRUE(m.empty());
}

// The tie rule, pinned by hand. Range 1; t0 at x=0 and t1 at x=1.5. Sensor
// 0 sees only t0, sensor 1 only t1, sensor 2 (x=0.75) sees both. Loads are
// 1, 1, 2, so sensors 0 and 1 are admitted first: t0 grows, then t1 grows.
// Sensor 2 then faces two clusters of size 1 and must join t1, the one that
// grew most recently — not t0, the lower id.
TEST(AdmissionOracle, SizeTieGoesToMostRecentlyGrownCluster) {
  const std::vector<Vec2> targets = {{0.0, 0.0}, {1.5, 0.0}};
  const std::vector<Vec2> sensors = {{-0.5, 0.0}, {2.0, 0.0}, {0.75, 0.0}};
  const ClusterSet got = balanced_clustering(sensors, targets, 1.0);
  EXPECT_EQ(got.assignment, (std::vector<TargetId>{0, 1, 1}));
  expect_same(got, reference_balanced_clustering(sensors, targets, 1.0, {}));

  // Swap the ids of the single-target sensors: now t1 grows first and t0
  // last, so the shared sensor joins t0.
  const std::vector<Vec2> swapped = {{2.0, 0.0}, {-0.5, 0.0}, {0.75, 0.0}};
  const ClusterSet got2 = balanced_clustering(swapped, targets, 1.0);
  EXPECT_EQ(got2.assignment, (std::vector<TargetId>{1, 0, 0}));
  expect_same(got2, reference_balanced_clustering(swapped, targets, 1.0, {}));
}

// Clusters that never grew tie by target id: a sensor seeing three empty
// clusters joins the lowest id.
TEST(AdmissionOracle, NeverGrownClustersTieByTargetId) {
  const std::vector<Vec2> targets = {{5.0, 5.0}, {1.0, 1.0}, {1.2, 1.0}, {1.1, 1.2}};
  const std::vector<Vec2> sensors = {{1.1, 1.1}};
  const ClusterSet got = balanced_clustering(sensors, targets, 1.0);
  EXPECT_EQ(got.assignment, (std::vector<TargetId>{1}));
  EXPECT_EQ(got.loads, (std::vector<std::size_t>{3}));
}

}  // namespace
}  // namespace wrsn
