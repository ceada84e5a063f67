#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "sched/request.hpp"

namespace wrsn {
namespace {

RechargeRequest make_request(SensorId s, ClusterId c, Vec2 pos, double demand,
                             bool critical = false) {
  RechargeRequest r;
  r.sensor = s;
  r.cluster = c;
  r.pos = pos;
  r.demand = Joule{demand};
  r.critical = critical;
  return r;
}

TEST(RechargeNodeList, AddRemoveContains) {
  RechargeNodeList list;
  EXPECT_TRUE(list.empty());
  list.add(make_request(3, 0, {1, 1}, 100.0));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_TRUE(list.contains(3));
  EXPECT_FALSE(list.contains(4));
  EXPECT_TRUE(list.remove(3));
  EXPECT_FALSE(list.remove(3));
  EXPECT_TRUE(list.empty());
}

TEST(RechargeNodeList, RejectsDuplicatesAndBadInput) {
  RechargeNodeList list;
  list.add(make_request(1, 0, {0, 0}, 10.0));
  EXPECT_THROW(list.add(make_request(1, 0, {0, 0}, 10.0)), InvalidArgument);
  EXPECT_THROW(list.add(make_request(kInvalidId, 0, {0, 0}, 10.0)), InvalidArgument);
  EXPECT_THROW(list.add(make_request(2, 0, {0, 0}, -5.0)), InvalidArgument);
}

TEST(RechargeNodeList, UpdateRefreshesFields) {
  RechargeNodeList list;
  list.add(make_request(1, 0, {0, 0}, 10.0));
  list.update(1, Joule{42.0}, true, 0.42);
  EXPECT_DOUBLE_EQ(list.requests()[0].demand.value(), 42.0);
  EXPECT_DOUBLE_EQ(list.requests()[0].fraction, 0.42);
  EXPECT_TRUE(list.requests()[0].critical);
  EXPECT_THROW(list.update(9, Joule{1.0}, false, 0.5), InvalidArgument);
}

TEST(RechargeNodeList, RandomOperationsMatchAVectorOracle) {
  // Random add/remove/update sequences against a plain vector kept in
  // arrival order: removals leave tombstones and compaction runs many times,
  // yet every observable stays equal to the oracle's after each operation.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Xoshiro256 rng(seed);
    RechargeNodeList list;
    std::vector<RechargeRequest> oracle;
    const SensorId universe = 8 + static_cast<SensorId>(rng.uniform_int(64));
    std::size_t compactions = 0;
    for (int op = 0; op < 3000; ++op) {
      const SensorId s = static_cast<SensorId>(rng.uniform_int(universe));
      const auto it = std::find_if(oracle.begin(), oracle.end(),
                                   [&](const RechargeRequest& r) { return r.sensor == s; });
      // Alternating fill and drain phases grow the list and then thin it
      // out, so compaction runs at many sizes.
      const double add_share = (op / 150) % 2 == 0 ? 0.6 : 0.2;
      const double roll = rng.uniform();
      if (roll < add_share) {
        if (it != oracle.end()) continue;
        const RechargeRequest r =
            make_request(s, static_cast<ClusterId>(s % 7), {rng.uniform(), rng.uniform()},
                         rng.uniform(0.0, 100.0), rng.uniform() < 0.3);
        list.add(r);
        oracle.push_back(r);
      } else if (roll < add_share + 0.4) {
        const std::size_t before = list.tombstones();
        EXPECT_EQ(list.remove(s), it != oracle.end());
        if (it != oracle.end()) {
          oracle.erase(it);
          if (list.tombstones() < before) ++compactions;
        }
      } else if (it != oracle.end()) {
        const double d = rng.uniform(0.0, 100.0);
        const double f = rng.uniform();
        list.update(s, Joule{d}, d > 50.0, f);
        it->demand = Joule{d};
        it->critical = d > 50.0;
        it->fraction = f;
      }
      ASSERT_TRUE(list.consistent()) << "seed " << seed << " op " << op;
      ASSERT_LE(list.tombstones(), list.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(list.size(), oracle.size());
      ASSERT_EQ(list.empty(), oracle.empty());
      for (SensorId q = 0; q < universe; ++q) {
        const bool want = std::any_of(oracle.begin(), oracle.end(),
                                      [&](const RechargeRequest& r) { return r.sensor == q; });
        ASSERT_EQ(list.contains(q), want) << "sensor " << q;
      }
      const std::vector<RechargeRequest> got = list.requests();
      ASSERT_EQ(got.size(), oracle.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].sensor, oracle[i].sensor) << "arrival order, index " << i;
        ASSERT_EQ(got[i].cluster, oracle[i].cluster);
        ASSERT_EQ(got[i].pos, oracle[i].pos);
        ASSERT_EQ(got[i].demand.value(), oracle[i].demand.value());
        ASSERT_EQ(got[i].critical, oracle[i].critical);
        ASSERT_EQ(got[i].fraction, oracle[i].fraction);
      }
    }
    EXPECT_GT(compactions, 5u) << "seed " << seed;
  }
}

TEST(RechargeNodeList, RemoveLeavesATombstoneUntilTheDeadOutnumberTheLive) {
  RechargeNodeList list;
  for (SensorId s = 0; s < 4; ++s) list.add(make_request(s, 0, {0, 0}, 1.0));
  EXPECT_TRUE(list.remove(1));
  EXPECT_EQ(list.tombstones(), 1u);
  EXPECT_TRUE(list.remove(2));
  EXPECT_EQ(list.tombstones(), 2u);  // 2 dead, 2 live: not yet
  EXPECT_TRUE(list.remove(0));       // 3 dead, 1 live: compact
  EXPECT_EQ(list.tombstones(), 0u);
  EXPECT_EQ(list.size(), 1u);
  list.add(make_request(1, 0, {0, 0}, 1.0));
  ASSERT_EQ(list.requests().size(), 2u);
  EXPECT_EQ(list.requests()[0].sensor, 3u);
  EXPECT_EQ(list.requests()[1].sensor, 1u);
  EXPECT_TRUE(list.consistent());
}

TEST(Aggregate, ClusterRequestsFoldIntoOneItem) {
  std::vector<RechargeRequest> reqs = {
      make_request(1, 5, {0, 0}, 100.0),
      make_request(2, 5, {2, 0}, 200.0),
      make_request(3, 5, {4, 0}, 300.0),
  };
  const auto items = aggregate_requests(reqs);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].cluster, 5u);
  EXPECT_DOUBLE_EQ(items[0].demand.value(), 600.0);
  EXPECT_EQ(items[0].pos, (Vec2{2.0, 0.0}));  // centroid
  EXPECT_EQ(items[0].sensors, (std::vector<SensorId>{1, 2, 3}));
  EXPECT_FALSE(items[0].critical);
}

TEST(Aggregate, CriticalPropagatesFromAnyMember) {
  std::vector<RechargeRequest> reqs = {
      make_request(1, 5, {0, 0}, 100.0, false),
      make_request(2, 5, {2, 0}, 200.0, true),
  };
  const auto items = aggregate_requests(reqs);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_TRUE(items[0].critical);
}

TEST(Aggregate, UnclusteredStaySingles) {
  std::vector<RechargeRequest> reqs = {
      make_request(4, kInvalidId, {1, 1}, 50.0),
      make_request(2, kInvalidId, {3, 3}, 60.0),
  };
  const auto items = aggregate_requests(reqs);
  ASSERT_EQ(items.size(), 2u);
  // Singles sorted by sensor id.
  EXPECT_EQ(items[0].sensors, (std::vector<SensorId>{2}));
  EXPECT_EQ(items[1].sensors, (std::vector<SensorId>{4}));
  EXPECT_EQ(items[0].cluster, kInvalidId);
}

TEST(Aggregate, MixedClustersAndSinglesOrdering) {
  std::vector<RechargeRequest> reqs = {
      make_request(9, kInvalidId, {9, 9}, 10.0),
      make_request(1, 2, {0, 0}, 100.0),
      make_request(3, 1, {5, 5}, 70.0),
      make_request(2, 2, {2, 0}, 100.0),
  };
  const auto items = aggregate_requests(reqs);
  ASSERT_EQ(items.size(), 3u);
  // Clusters first in ascending cluster-id order, then singles.
  EXPECT_EQ(items[0].cluster, 1u);
  EXPECT_EQ(items[1].cluster, 2u);
  EXPECT_EQ(items[1].sensors, (std::vector<SensorId>{1, 2}));
  EXPECT_EQ(items[2].cluster, kInvalidId);
}

TEST(Aggregate, EmptyInput) {
  EXPECT_TRUE(aggregate_requests({}).empty());
}

TEST(Aggregate, DemandConservation) {
  // Total demand across items equals total across requests.
  std::vector<RechargeRequest> reqs;
  double total = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double d = 10.0 * (i + 1);
    reqs.push_back(make_request(i, i % 4 == 0 ? kInvalidId : i % 4,
                                {static_cast<double>(i), 0.0}, d));
    total += d;
  }
  const auto items = aggregate_requests(reqs);
  double got = 0.0;
  std::size_t sensor_count = 0;
  for (const auto& item : items) {
    got += item.demand.value();
    sensor_count += item.sensors.size();
  }
  EXPECT_DOUBLE_EQ(got, total);
  EXPECT_EQ(sensor_count, reqs.size());
}

}  // namespace
}  // namespace wrsn
