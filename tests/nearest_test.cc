#include "index/nearest.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "workload/datagen.h"
#include "workload/experiment.h"
#include "zorder/shuffle.h"

namespace probe::index {
namespace {

using geometry::GridPoint;
using zorder::GridSpec;

Dist2 Distance2(const GridPoint& a, const GridPoint& b) {
  Dist2 d2 = 0;
  for (int i = 0; i < a.dims(); ++i) {
    const uint64_t d = a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
    d2 += static_cast<Dist2>(d) * d;
  }
  return d2;
}

std::vector<Neighbor> BruteForceKnn(const std::vector<PointRecord>& points,
                                    const GridPoint& query, size_t k) {
  std::vector<Neighbor> all;
  for (const auto& r : points) {
    all.push_back(Neighbor{r.id, Distance2(r.point, query)});
  }
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      if (a.distance2 != b.distance2) {
                        return a.distance2 < b.distance2;
                      }
                      return a.id < b.id;
                    });
  all.resize(keep);
  return all;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& expect) {
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expect[i].id) << "i=" << i;
    EXPECT_TRUE(got[i].distance2 == expect[i].distance2) << "i=" << i;
  }
}

GridPoint RandomPoint(const GridSpec& grid, util::Rng& rng) {
  const uint64_t side = uint64_t{1} << grid.bits_per_dim;
  return GridPoint({static_cast<uint32_t>(rng.NextBelow(side)),
                    static_cast<uint32_t>(rng.NextBelow(side))});
}

TEST(KNearestTest, EmptyIndexAndZeroK) {
  const GridSpec grid{2, 8};
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 32);
  ZkdIndex index(grid, &pool);
  EXPECT_TRUE(KNearest(index, GridPoint({10, 10}), 5).empty());
  index.Insert(GridPoint({1, 1}), 1);
  EXPECT_TRUE(KNearest(index, GridPoint({10, 10}), 0).empty());
}

TEST(KNearestTest, SinglePoint) {
  const GridSpec grid{2, 8};
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 32);
  ZkdIndex index(grid, &pool);
  index.Insert(GridPoint({100, 200}), 42);
  const auto result = KNearest(index, GridPoint({0, 0}), 3);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 42u);
  EXPECT_EQ(result[0].distance2, 100ull * 100 + 200ull * 200);
}

class KnnPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KnnPropertyTest, MatchesBruteForceAcrossDistributions) {
  const GridSpec grid{2, 8};
  workload::DataGenConfig data;
  data.distribution = static_cast<workload::Distribution>(GetParam());
  data.count = 700;
  data.seed = 77 + GetParam();
  const auto points = GeneratePoints(grid, data);
  auto built = workload::BuildZkdIndex(grid, points, 20, 64);

  util::Rng rng(900 + GetParam());
  for (int q = 0; q < 20; ++q) {
    const GridPoint query({static_cast<uint32_t>(rng.NextBelow(256)),
                           static_cast<uint32_t>(rng.NextBelow(256))});
    const size_t k = 1 + rng.NextBelow(10);
    const auto got = KNearest(*built.index, query, k);
    const auto expect = BruteForceKnn(points, query, k);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
      // Distances must match exactly; ids may differ only among exact
      // distance ties at the cut boundary — our tie-break is by id, same
      // as the reference, so require exact agreement.
      EXPECT_EQ(got[i].distance2, expect[i].distance2) << "i=" << i;
      EXPECT_EQ(got[i].id, expect[i].id) << "i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, KnnPropertyTest,
                         ::testing::Values(0, 1, 2));

TEST(KNearestTest, ThreeDimensional) {
  const GridSpec grid{3, 6};
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 32);
  util::Rng rng(911);
  std::vector<PointRecord> points;
  for (uint64_t i = 0; i < 400; ++i) {
    points.push_back({GridPoint({static_cast<uint32_t>(rng.NextBelow(64)),
                                 static_cast<uint32_t>(rng.NextBelow(64)),
                                 static_cast<uint32_t>(rng.NextBelow(64))}),
                      i});
  }
  auto index = ZkdIndex::Build(grid, &pool, points);
  const GridPoint query({30, 30, 30});
  const auto got = KNearest(index, query, 7);
  const auto expect = BruteForceKnn(points, query, 7);
  ASSERT_EQ(got.size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(got[i].id, expect[i].id);
  }
}

TEST(KnnDynamicTreeTest, MatchesBruteForceAfterInsertsAndDeletes) {
  // Leaf and region decisions read the separators of internal pages. A
  // tree grown by single inserts and shrunk by deletes carries prefix
  // separators, redistributed and merged leaves and duplicate runs split
  // across pages; tiny pages make it deep. Answers must stay exact.
  const GridSpec grid{2, 10};
  btree::BTreeConfig config;
  config.leaf_capacity = 8;
  config.internal_capacity = 4;
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 256);
  ZkdIndex index(grid, &pool, config);

  util::Rng rng(606);
  std::vector<PointRecord> points;
  for (uint64_t id = 0; id < 3000; ++id) {
    // Every fourth point repeats an earlier cell: duplicate runs.
    const GridPoint point = id % 4 == 3 && !points.empty()
                                ? points[rng.NextBelow(points.size())].point
                                : RandomPoint(grid, rng);
    index.Insert(point, id);
    points.push_back({point, id});
  }
  std::vector<PointRecord> kept;
  for (const auto& r : points) {
    if (rng.NextBelow(3) == 0) {
      ASSERT_TRUE(index.Delete(r.point, r.id));
    } else {
      kept.push_back(r);
    }
  }
  for (int q = 0; q < 60; ++q) {
    const GridPoint query = RandomPoint(grid, rng);
    const size_t k = 1 + rng.NextBelow(40);
    ExpectSameNeighbors(KNearest(index, query, k),
                        BruteForceKnn(kept, query, k));
  }
}

TEST(KNearestTest, PruningBeatsFullScan) {
  const GridSpec grid{2, 10};
  workload::DataGenConfig data;
  data.count = 5000;
  data.seed = 13;
  const auto points = GeneratePoints(grid, data);
  auto built = workload::BuildZkdIndex(grid, points, 20, 64);
  NearestStats stats;
  KNearest(*built.index, GridPoint({512, 512}), 5, &stats);
  // A 5-NN query must not read most of the 250 data pages.
  EXPECT_LT(stats.leaf_pages, 40u);
  EXPECT_LT(stats.points_examined, 1000u);
}

TEST(KNearestTest, FullResolutionGridCornersDoNotOverflow) {
  // On a 2 x 32-bit grid the corner-to-corner squared distance is
  // 2 * (2^32 - 1)^2 ≈ 2^65 — past uint64_t. With 64-bit accumulation the
  // far corner's distance wrapped *below* the 1-axis corners' (~2^64)
  // distances, corrupting the reported order; Dist2 (128-bit) keeps it
  // straight. A huge scan threshold makes the search scan the grid's two
  // halves directly: with so few points there is no distance bound to
  // prune a 2^64-cell region tree with, and this test is about the
  // distance arithmetic, not the traversal.
  const GridSpec grid{2, 32};
  constexpr uint32_t kMax = ~static_cast<uint32_t>(0);
  std::vector<PointRecord> points;
  points.push_back({GridPoint({kMax, kMax}), 0});        // true d2 ~ 2^65
  points.push_back({GridPoint({kMax, 0}), 1});           // true d2 ~ 2^64
  points.push_back({GridPoint({0, kMax}), 2});           // true d2 ~ 2^64
  points.push_back({GridPoint({5, 7}), 3});              // truly near
  points.push_back({GridPoint({1u << 20, 1u << 20}), 4});  // mid-near
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 32);
  auto index = ZkdIndex::Build(grid, &pool, points);

  NearestOptions options;
  options.scan_cell_threshold = 1ULL << 63;
  const GridPoint query({0, 0});
  const auto got =
      KNearest(index, query, points.size(), nullptr, options);
  const auto expect = BruteForceKnn(points, query, points.size());
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expect[i].id) << "i=" << i;
    EXPECT_TRUE(got[i].distance2 == expect[i].distance2) << "i=" << i;
  }
  // The ordering the overflow used to corrupt: near points first, the
  // one-axis corners next, the far corner last — its distance really is
  // past 64 bits.
  EXPECT_EQ(got[0].id, 3u);
  EXPECT_EQ(got[1].id, 4u);
  EXPECT_EQ(got.back().id, 0u);
  EXPECT_TRUE(got.back().distance2 >
              static_cast<Dist2>(~static_cast<uint64_t>(0)));

  // Best-first pruning at the same resolution: a query beside the far
  // corner must find it without the threshold crutch — MinDistance2 on
  // deep regions must not wrap either.
  const auto nearest = KNearest(index, GridPoint({kMax - 3, kMax - 5}), 1);
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0].id, 0u);
  EXPECT_TRUE(nearest[0].distance2 == static_cast<Dist2>(9 + 25));
}

TEST(KNearestTest, SparseFullResolutionGridWithDefaultOptions) {
  // A few thousand points scattered over 2^64 cells: the region tree
  // below the root is almost all empty space. Default options must still
  // finish quickly and exactly, because empty regions are dropped on one
  // B+-tree probe instead of being split down to the scan threshold.
  const GridSpec grid{2, 32};
  util::Rng rng(2024);
  std::vector<PointRecord> points;
  for (uint64_t i = 0; i < 3000; ++i) {
    points.push_back({RandomPoint(grid, rng), i});
  }
  constexpr uint32_t kMax = ~static_cast<uint32_t>(0);
  points.push_back({GridPoint({kMax, kMax}), 3000});
  points.push_back({GridPoint({0, 0}), 3001});
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 64);
  auto index = ZkdIndex::Build(grid, &pool, points);

  std::vector<GridPoint> queries = {GridPoint({0, 0}), GridPoint({kMax, 0}),
                                    GridPoint({kMax, kMax})};
  for (int q = 0; q < 30; ++q) queries.push_back(RandomPoint(grid, rng));
  for (const GridPoint& query : queries) {
    for (const size_t k : {size_t{1}, size_t{10}}) {
      NearestStats stats;
      ExpectSameNeighbors(KNearest(index, query, k, &stats),
                          BruteForceKnn(points, query, k));
      EXPECT_LT(stats.regions_expanded, 500u) << query.ToString();
    }
  }
  ExpectSameNeighbors(KNearest(index, GridPoint({7, 9}), points.size() + 5),
                      BruteForceKnn(points, GridPoint({7, 9}),
                                    points.size() + 5));
}

class KnnWorkBoundTest : public ::testing::TestWithParam<int> {};

TEST_P(KnnWorkBoundTest, TenNearestTouchesAFewLeaves) {
  // 200k points on a 2^20 x 2^20 grid. Splitting regions by cell count
  // alone cost ~100 000 regions and ~50 000 range scans per 10-NN query on
  // uniform data, and millions on clustered data. Dropping empty regions
  // and scanning a region that sits on one leaf keeps every query to a
  // few dozen regions, a handful of scans and a few dozen leaves.
  const GridSpec grid{2, 20};
  workload::DataGenConfig data;
  data.distribution = static_cast<workload::Distribution>(GetParam());
  data.count = 200000;
  data.seed = 31 + GetParam();
  const auto points = GeneratePoints(grid, data);
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 256);
  auto index = ZkdIndex::Build(grid, &pool, points);

  util::Rng rng(4100 + GetParam());
  NearestStats worst;
  for (int q = 0; q < 40; ++q) {
    const GridPoint query = RandomPoint(grid, rng);
    NearestStats stats;
    ExpectSameNeighbors(KNearest(index, query, 10, &stats),
                        BruteForceKnn(points, query, 10));
    worst.regions_expanded =
        std::max(worst.regions_expanded, stats.regions_expanded);
    worst.range_scans = std::max(worst.range_scans, stats.range_scans);
    worst.leaf_pages = std::max(worst.leaf_pages, stats.leaf_pages);
  }
  EXPECT_LT(worst.regions_expanded, 100u);
  EXPECT_LT(worst.range_scans, 20u);
  EXPECT_LT(worst.leaf_pages, 50u);
}

INSTANTIATE_TEST_SUITE_P(UniformAndClustered, KnnWorkBoundTest,
                         ::testing::Values(0, 1));

TEST(KNearestTest, OffShardQueriesStayBounded) {
  // A shard of a range-partitioned engine holds one z interval; k-NN
  // centers usually fall outside it. Splitting by cell count alone made
  // such a search expand the empty half of the z space region by region
  // (millions of regions; minutes per query at this scale). An empty
  // region is now dropped on one probe, so the search walks straight to
  // the populated half.
  const GridSpec grid{2, 20};
  const int total = grid.total_bits();
  const uint64_t half = uint64_t{1} << (total - 1);
  workload::DataGenConfig data;
  data.count = 240000;
  data.seed = 57;
  std::vector<PointRecord> points;
  for (const auto& r : GeneratePoints(grid, data)) {
    if (zorder::Shuffle2D(grid, r.point[0], r.point[1]).ToInteger() < half) {
      points.push_back(r);
    }
  }
  ASSERT_GE(points.size(), 100000u);
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 256);
  auto index = ZkdIndex::Build(grid, &pool, points);

  util::Rng rng(58);
  int queries = 0;
  while (queries < 20) {
    const GridPoint query = RandomPoint(grid, rng);
    if (zorder::Shuffle2D(grid, query[0], query[1]).ToInteger() < half) {
      continue;  // Centers go in the half this index does not hold.
    }
    ++queries;
    NearestStats stats;
    ExpectSameNeighbors(KNearest(index, query, 10, &stats),
                        BruteForceKnn(points, query, 10));
    EXPECT_LT(stats.regions_expanded, 500u) << query.ToString();
  }
}

TEST(WithinDistanceTest, MatchesBruteForce) {
  const GridSpec grid{2, 7};
  util::Rng rng(913);
  std::vector<PointRecord> points;
  for (uint64_t i = 0; i < 500; ++i) {
    points.push_back({GridPoint({static_cast<uint32_t>(rng.NextBelow(128)),
                                 static_cast<uint32_t>(rng.NextBelow(128))}),
                      i});
  }
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 32);
  auto index = ZkdIndex::Build(grid, &pool, points);

  for (const double radius : {3.0, 10.0, 25.0}) {
    const GridPoint query({60, 70});
    auto got = WithinDistance(index, query, radius);
    std::sort(got.begin(), got.end());
    std::vector<uint64_t> expect;
    for (const auto& r : points) {
      if (static_cast<double>(Distance2(r.point, query)) <= radius * radius) {
        expect.push_back(r.id);
      }
    }
    EXPECT_EQ(got, expect) << "radius " << radius;
  }
}

TEST(KNearestTest, ScanThresholdOptionTradesScansForExpansion) {
  const GridSpec grid{2, 10};
  workload::DataGenConfig data;
  data.count = 5000;
  data.seed = 17;
  const auto points = GeneratePoints(grid, data);
  auto built = workload::BuildZkdIndex(grid, points, 20, 64);

  NearestOptions coarse;
  coarse.scan_cell_threshold = 1 << 14;
  NearestOptions fine;
  fine.scan_cell_threshold = 1 << 6;
  NearestStats coarse_stats, fine_stats;
  const auto a =
      KNearest(*built.index, GridPoint({100, 900}), 10, &coarse_stats, coarse);
  const auto b =
      KNearest(*built.index, GridPoint({100, 900}), 10, &fine_stats, fine);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  EXPECT_LT(coarse_stats.regions_expanded, fine_stats.regions_expanded);
  EXPECT_GE(coarse_stats.points_examined, fine_stats.points_examined);
}

}  // namespace
}  // namespace probe::index
