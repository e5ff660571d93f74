// The zones-style distance join must be exact: identical pair sets to an
// O(n*m) all-pairs oracle on every distribution, at degenerate radii
// (r = 0, r spanning the whole grid), at full 32-bit grid resolution, and
// for every zone height — and the emission order, serial or pooled, must
// be exactly the (zone, x, id, y) order of a plain sort, not just the same
// set.

#include "relational/distance_join.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "query/executor.h"
#include "query/planner.h"
#include "query/query.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"

namespace probe::relational {
namespace {

using index::PointRecord;
using workload::DataGenConfig;
using workload::Distribution;
using zorder::GridSpec;

/// dx^2 + dy^2 <= radius^2, in 128-bit arithmetic.
bool Within(const PointRecord& p, const PointRecord& q, uint64_t radius) {
  const uint64_t dx =
      p.point[0] > q.point[0] ? p.point[0] - q.point[0] : q.point[0] - p.point[0];
  const uint64_t dy =
      p.point[1] > q.point[1] ? p.point[1] - q.point[1] : q.point[1] - p.point[1];
  return static_cast<unsigned __int128>(dx) * dx +
             static_cast<unsigned __int128>(dy) * dy <=
         static_cast<unsigned __int128>(radius) * radius;
}

/// All-pairs reference: every (r, s) within `radius`.
std::vector<IdPair> OracleJoin(const std::vector<PointRecord>& r,
                               const std::vector<PointRecord>& s,
                               uint64_t radius) {
  std::vector<IdPair> out;
  for (const auto& p : r) {
    for (const auto& q : s) {
      if (Within(p, q, radius)) out.push_back(IdPair{p.id, q.id});
    }
  }
  return out;
}

/// Canonical ordering for set comparison (the join's own emission order is
/// a different, deterministic order — (zone, x) — so sets are compared
/// sorted by id pair).
void SortPairs(std::vector<IdPair>* pairs) {
  std::sort(pairs->begin(), pairs->end(),
            [](const IdPair& a, const IdPair& b) {
              if (a.r_id != b.r_id) return a.r_id < b.r_id;
              return a.s_id < b.s_id;
            });
}

void ExpectSamePairSet(std::vector<IdPair> got, std::vector<IdPair> expect,
                       const char* what) {
  SortPairs(&got);
  SortPairs(&expect);
  ASSERT_EQ(got.size(), expect.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i] == expect[i])
        << what << " i=" << i << " got=(" << got[i].r_id << "," << got[i].s_id
        << ") expect=(" << expect[i].r_id << "," << expect[i].s_id << ")";
  }
}

class DistanceJoinDistributionTest
    : public ::testing::TestWithParam<int> {};

TEST_P(DistanceJoinDistributionTest, MatchesOracle) {
  const GridSpec grid{2, 12};
  workload::PairedDataGenConfig config;
  config.base.distribution = static_cast<Distribution>(GetParam());
  config.base.count = 4000;
  config.base.seed = 4200 + static_cast<uint64_t>(GetParam());
  config.match_fraction = 0.4;
  config.match_sigma = 6.0;
  const auto data = GeneratePairedPoints(grid, config);

  for (const uint64_t radius : {0ull, 3ull, 17ull}) {
    DistanceJoinStats stats;
    auto got = DistanceJoinPairs(data.r, data.s, grid, radius, &stats);
    ExpectSamePairSet(got, OracleJoin(data.r, data.s, radius),
                      DistributionName(config.base.distribution).c_str());
    EXPECT_EQ(stats.pairs, got.size());
    EXPECT_GE(stats.candidate_pairs, stats.pairs);
    EXPECT_EQ(stats.r_rows, data.r.size());
    EXPECT_EQ(stats.s_rows, data.s.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, DistanceJoinDistributionTest,
                         ::testing::Values(0, 1, 2));

TEST(DistanceJoinTest, AsymmetricSidesMatchOracle) {
  const GridSpec grid{2, 10};
  DataGenConfig big;
  big.count = 20000;
  big.seed = 551;
  DataGenConfig small;
  small.distribution = Distribution::kClustered;
  small.count = 700;
  small.seed = 552;
  const auto r = GeneratePoints(grid, big);
  const auto s = GeneratePoints(grid, small);
  const auto got = DistanceJoinPairs(r, s, grid, 9);
  ExpectSamePairSet(got, OracleJoin(r, s, 9), "asymmetric");
}

TEST(DistanceJoinTest, DegenerateRadii) {
  const GridSpec grid{2, 8};
  DataGenConfig config;
  config.count = 600;
  config.seed = 661;
  const auto r = GeneratePoints(grid, config);
  config.seed = 662;
  const auto s = GeneratePoints(grid, config);

  // r = 0: only exact coordinate collisions pair.
  ExpectSamePairSet(DistanceJoinPairs(r, s, grid, 0), OracleJoin(r, s, 0),
                    "r=0");

  // A radius spanning the whole grid: every pair qualifies — the
  // candidate bound degenerates to the cross product and the join must
  // still be exact (and its pair count exactly n*m).
  const uint64_t span = 2 * grid.side();
  DistanceJoinStats stats;
  const auto all = DistanceJoinPairs(r, s, grid, span, &stats);
  EXPECT_EQ(all.size(), r.size() * s.size());
  ExpectSamePairSet(all, OracleJoin(r, s, span), "grid-spanning");
  EXPECT_EQ(stats.candidate_pairs, stats.pairs);
}

TEST(DistanceJoinTest, EmptySides) {
  const GridSpec grid{2, 8};
  DataGenConfig config;
  config.count = 100;
  config.seed = 71;
  const auto pts = GeneratePoints(grid, config);
  const std::vector<PointRecord> empty;
  EXPECT_TRUE(DistanceJoinPairs(empty, pts, grid, 10).empty());
  EXPECT_TRUE(DistanceJoinPairs(pts, empty, grid, 10).empty());
  DistanceJoinStats stats;
  EXPECT_TRUE(DistanceJoinPairs(empty, empty, grid, 10, &stats).empty());
  EXPECT_EQ(stats.pairs, 0u);
}

TEST(DistanceJoinTest, ZoneHeightSweepIsInvariant) {
  // The zone height is a performance knob, never a correctness one: every
  // height must produce the identical pair set (and heights far from r
  // must cost more candidates, not lose pairs).
  const GridSpec grid{2, 10};
  workload::PairedDataGenConfig config;
  config.base.count = 3000;
  config.base.seed = 81;
  const auto data = GeneratePairedPoints(grid, config);
  const uint64_t radius = 7;
  const auto expect = OracleJoin(data.r, data.s, radius);

  for (const uint64_t h : {1ull, 3ull, 7ull, 28ull, 1024ull}) {
    DistanceJoinOptions options;
    options.zone_height = h;
    DistanceJoinStats stats;
    auto got = DistanceJoinPairs(data.r, data.s, grid, radius, &stats,
                                 options);
    EXPECT_EQ(stats.zone_height, h);
    ExpectSamePairSet(got, expect, ("h=" + std::to_string(h)).c_str());
  }
}

TEST(DistanceJoinTest, SerialAndParallelAreBitwiseIdentical) {
  const GridSpec grid{2, 11};
  workload::PairedDataGenConfig config;
  config.base.count = 30000;
  config.base.seed = 91;
  config.match_fraction = 0.3;
  const auto data = GeneratePairedPoints(grid, config);

  const auto serial = DistanceJoinPairs(data.r, data.s, grid, 5);

  util::ThreadPool pool(3);
  for (const int partitions : {0, 2, 3, 7}) {
    DistanceJoinOptions options;
    options.pool = &pool;
    options.partitions = partitions;
    DistanceJoinStats stats;
    const auto parallel =
        DistanceJoinPairs(data.r, data.s, grid, 5, &stats, options);
    // Not a set comparison: the emission *order* must match too.
    ASSERT_EQ(parallel.size(), serial.size()) << partitions;
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_TRUE(parallel[i] == serial[i]) << "partitions=" << partitions
                                            << " i=" << i;
    }
    if (partitions > 1) {
      EXPECT_EQ(stats.partitions, static_cast<size_t>(partitions));
    }
  }
}

/// Points scattered around 40 cluster centers (drawn from `d` alone, so
/// both sides of a join share them) with jitter of up to 12 cells per
/// axis, on a d-bit grid; every fifth point repeats an earlier point's
/// (x, y) under a fresh id. Ids are distinct per side and below 2^32, so
/// they fit next to y at any d <= 32.
std::vector<PointRecord> ClusteredWithDuplicates(int d, size_t count,
                                                 uint64_t seed) {
  constexpr uint64_t jitter = 12;
  const uint64_t side_max = (1ULL << d) - 1;
  util::Rng center_rng(static_cast<uint64_t>(d));
  std::vector<std::pair<uint64_t, uint64_t>> c(40);
  for (auto& [x, y] : c) {
    x = center_rng.NextBelow(side_max + 1);
    y = center_rng.NextBelow(side_max + 1);
  }
  util::Rng rng(seed);
  const auto jittered = [&](uint64_t v) {
    const int64_t off = rng.NextInRange(-static_cast<int64_t>(jitter),
                                        static_cast<int64_t>(jitter));
    const int64_t moved = static_cast<int64_t>(v) + off;
    return static_cast<uint32_t>(std::clamp<int64_t>(
        moved, 0, static_cast<int64_t>(side_max)));
  };
  std::vector<PointRecord> out;
  for (size_t i = 0; i < count; ++i) {
    // A bijection on 32-bit values: distinct ids, not ascending with i, so
    // input order says nothing about id order.
    const uint64_t id = (2654435761u * (i + seed)) & 0xFFFFFFFFu;
    if (i % 5 == 4) {
      const PointRecord& twin = out[rng.NextBelow(out.size())];
      out.push_back({twin.point, id});
      continue;
    }
    const auto& [x, y] = c[rng.NextBelow(c.size())];
    out.push_back({geometry::GridPoint({jittered(x), jittered(y)}), id});
  }
  return out;
}

/// Each point's rank in a plain sort by (zone, x, id, y) at height h.
std::vector<size_t> ZoneRanks(const std::vector<PointRecord>& points,
                              uint64_t h) {
  const auto key = [&](size_t i) {
    const PointRecord& p = points[i];
    return std::tuple(p.point[1] / h, p.point[0], p.id, p.point[1]);
  };
  std::vector<size_t> order(points.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return key(a) < key(b); });
  std::vector<size_t> rank(points.size());
  for (size_t k = 0; k < order.size(); ++k) rank[order[k]] = k;
  return rank;
}

TEST(DistanceJoinTest, ZoneSortMatchesReferenceOrder) {
  // The emission order is part of the contract: R rows in (zone, x, id, y)
  // order, each row's partners in S's (zone, x, id, y) order. The
  // reference orders the oracle's pairs that way with a plain std::sort,
  // and the join must match it element by element — for every grid width
  // (d = 20 and d = 32 at h = 1 have more zones than rows), zone height,
  // and pool size, over inputs that repeat (x, y) under different ids.
  constexpr uint64_t kRadius = 6;
  constexpr uint64_t kHeights[] = {1, kRadius, 7 * kRadius, 1024};
  util::ThreadPool one_lane(0);
  util::ThreadPool two_lanes(1);
  util::ThreadPool four_lanes(3);
  const std::vector<util::ThreadPool*> pools = {nullptr, &one_lane,
                                                &two_lanes, &four_lanes};
  for (const int d : {9, 20, 32}) {
    const GridSpec grid{2, d};
    const auto r = ClusteredWithDuplicates(d, 1500, 1000 + d);
    const auto s = ClusteredWithDuplicates(d, 1300, 2000 + d);
    // Oracle pairs by index, so ranks can order them.
    std::vector<std::pair<size_t, size_t>> oracle;
    for (size_t i = 0; i < r.size(); ++i) {
      for (size_t j = 0; j < s.size(); ++j) {
        if (Within(r[i], s[j], kRadius)) oracle.emplace_back(i, j);
      }
    }
    ASSERT_GT(oracle.size(), r.size()) << "d=" << d;

    for (const uint64_t h : kHeights) {
      const auto r_rank = ZoneRanks(r, h);
      const auto s_rank = ZoneRanks(s, h);
      auto ordered = oracle;
      std::sort(ordered.begin(), ordered.end(),
                [&](const auto& a, const auto& b) {
                  return std::pair(r_rank[a.first], s_rank[a.second]) <
                         std::pair(r_rank[b.first], s_rank[b.second]);
                });
      std::vector<IdPair> expect;
      for (const auto& [i, j] : ordered) {
        expect.push_back(IdPair{r[i].id, s[j].id});
      }

      for (util::ThreadPool* pool : pools) {
        DistanceJoinOptions options;
        options.zone_height = h;
        options.pool = pool;
        const auto got =
            DistanceJoinPairs(r, s, grid, kRadius, nullptr, options);
        const std::string what =
            "d=" + std::to_string(d) + " h=" + std::to_string(h) +
            " lanes=" + std::to_string(pool ? pool->lanes() : 0);
        ASSERT_EQ(got.size(), expect.size()) << what;
        for (size_t k = 0; k < got.size(); ++k) {
          ASSERT_TRUE(got[k] == expect[k])
              << what << " k=" << k << " got=(" << got[k].r_id << ","
              << got[k].s_id << ") expect=(" << expect[k].r_id << ","
              << expect[k].s_id << ")";
        }
      }
    }
  }
}

TEST(DistanceJoinTest, FullResolutionGridCorners) {
  // d = 32: coordinates up to 2^32 - 1, squared distances past uint64 —
  // the join must use the 128-bit scalar path and still be exact.
  const GridSpec grid{2, 32};
  constexpr uint32_t kMax = ~static_cast<uint32_t>(0);
  std::vector<PointRecord> r;
  r.push_back({geometry::GridPoint({0, 0}), 0});
  r.push_back({geometry::GridPoint({kMax, kMax}), 1});
  r.push_back({geometry::GridPoint({kMax, 0}), 2});
  std::vector<PointRecord> s;
  s.push_back({geometry::GridPoint({3, 4}), 0});
  s.push_back({geometry::GridPoint({kMax - 3, kMax - 4}), 1});
  s.push_back({geometry::GridPoint({0, kMax}), 2});

  // Radius 5 catches each corner's jittered partner and nothing else.
  ExpectSamePairSet(DistanceJoinPairs(r, s, grid, 5), OracleJoin(r, s, 5),
                    "corners r=5");
  // A radius past 2^32 spans every axis delta; with 64-bit arithmetic the
  // squared radius would wrap to something tiny and drop the far pairs.
  const uint64_t huge = 1ULL << 33;
  ExpectSamePairSet(DistanceJoinPairs(r, s, grid, huge),
                    OracleJoin(r, s, huge), "corners huge r");
}

TEST(DistanceJoinTest, PlannerRunsDistanceJoinEndToEnd) {
  const GridSpec grid{2, 10};
  workload::PairedDataGenConfig config;
  config.base.count = 2000;
  config.base.seed = 111;
  const auto data = GeneratePairedPoints(grid, config);

  query::PlannerContext ctx;  // no index: the join plans standalone
  auto query = query::Query::DistanceJoin(data.r, data.s, grid, 6);
  auto planned = query::Plan(query, ctx);
  ASSERT_NE(planned.root, nullptr);
  EXPECT_EQ(planned.root->stats().op, "DistanceJoin");
  EXPECT_TRUE(planned.root->stats().has_estimate);

  const auto result = query::Execute(*planned.root).rows;
  const auto expect = OracleJoin(data.r, data.s, 6);
  ASSERT_EQ(result.size(), expect.size());
  // The node's detail must carry the measured counters for EXPLAIN.
  EXPECT_NE(planned.root->stats().detail.find("candidates="),
            std::string::npos);
  EXPECT_NE(planned.root->stats().detail.find("pairs=" +
                                              std::to_string(expect.size())),
            std::string::npos);

  // And the parallel plan: same rows, ParallelDistanceJoin operator.
  util::ThreadPool pool(2);
  ctx.pool = &pool;
  query::PlannerOptions options;
  options.join_parallel_row_threshold = 1;
  auto parallel = query::Plan(query, ctx, options);
  EXPECT_EQ(parallel.root->stats().op, "ParallelDistanceJoin");
  const auto parallel_result = query::Execute(*parallel.root).rows;
  ASSERT_EQ(parallel_result.size(), result.size());
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_TRUE(parallel_result.row(i) == result.row(i)) << i;
  }
}

}  // namespace
}  // namespace probe::relational
