#include "index/zkd_index.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "btree/simd_filter.h"
#include "geometry/primitives.h"
#include "index/durable_index.h"
#include "server/sharded_engine.h"
#include "temp_file.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"

namespace probe::index {
namespace {

using geometry::GridBox;
using geometry::GridPoint;
using zorder::GridSpec;

std::vector<uint64_t> BruteForce(const std::vector<PointRecord>& points,
                                 const GridBox& box) {
  std::vector<uint64_t> out;
  for (const PointRecord& r : points) {
    if (box.ContainsPoint(r.point)) out.push_back(r.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class IndexFixture {
 public:
  IndexFixture(const GridSpec& grid, std::span<const PointRecord> points,
               int leaf_capacity = 20)
      : pool_(&pager_, 64) {
    btree::BTreeConfig config;
    config.leaf_capacity = leaf_capacity;
    index_ = std::make_unique<ZkdIndex>(
        ZkdIndex::Build(grid, &pool_, points, config));
  }

  ZkdIndex& index() { return *index_; }

 private:
  storage::MemPager pager_;
  storage::BufferPool pool_;
  std::unique_ptr<ZkdIndex> index_;
};

TEST(ZkdIndexTest, EmptyIndexFindsNothing) {
  const GridSpec grid{2, 8};
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 16);
  ZkdIndex index(grid, &pool);
  QueryStats stats;
  const auto hits = index.RangeSearch(GridBox::Make2D(0, 255, 0, 255), &stats);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(stats.results, 0u);
}

TEST(ZkdIndexTest, SmallKnownExample) {
  // Figure 5's flavor: a handful of points, a box, exact answers.
  const GridSpec grid{2, 3};
  std::vector<PointRecord> points = {
      {GridPoint({1, 1}), 1}, {GridPoint({3, 5}), 2}, {GridPoint({6, 2}), 3},
      {GridPoint({2, 3}), 4}, {GridPoint({7, 7}), 5}, {GridPoint({0, 6}), 6},
  };
  IndexFixture fixture(grid, points, 4);
  const GridBox box = GridBox::Make2D(1, 3, 0, 4);
  const auto hits = Sorted(fixture.index().RangeSearch(box));
  EXPECT_EQ(hits, (std::vector<uint64_t>{1, 4}));
}

struct StrategyCase {
  SearchOptions::Merge merge;
  const char* name;
};

class MergeStrategyTest : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(MergeStrategyTest, MatchesBruteForceOnRandomWorkloads) {
  const GridSpec grid{2, 8};
  util::Rng rng(91);
  // Mixed distributions stress different leaf layouts.
  for (int round = 0; round < 3; ++round) {
    workload::DataGenConfig data;
    data.distribution = static_cast<workload::Distribution>(round % 3);
    data.count = 800;
    data.seed = 100 + round;
    const auto points = GeneratePoints(grid, data);
    IndexFixture fixture(grid, points, 20);

    SearchOptions options;
    options.merge = GetParam().merge;
    for (int q = 0; q < 25; ++q) {
      uint32_t x1 = static_cast<uint32_t>(rng.NextBelow(grid.side()));
      uint32_t x2 = static_cast<uint32_t>(rng.NextBelow(grid.side()));
      uint32_t y1 = static_cast<uint32_t>(rng.NextBelow(grid.side()));
      uint32_t y2 = static_cast<uint32_t>(rng.NextBelow(grid.side()));
      const GridBox box = GridBox::Make2D(std::min(x1, x2), std::max(x1, x2),
                                          std::min(y1, y2), std::max(y1, y2));
      QueryStats stats;
      const auto got = Sorted(fixture.index().RangeSearch(box, &stats, options));
      EXPECT_EQ(got, BruteForce(points, box)) << "query " << box.ToString();
      EXPECT_EQ(stats.results, got.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, MergeStrategyTest,
    ::testing::Values(StrategyCase{SearchOptions::Merge::kSkipMerge, "skip"},
                      StrategyCase{SearchOptions::Merge::kPlainMerge, "plain"},
                      StrategyCase{SearchOptions::Merge::kBigMin, "bigmin"}),
    [](const ::testing::TestParamInfo<StrategyCase>& info) {
      return info.param.name;
    });

class DimsRangeTest : public ::testing::TestWithParam<int> {};

TEST_P(DimsRangeTest, WorksInAnyDimension) {
  // Section 3.3: "Algorithms based on z order work without modification in
  // all dimensions."
  const int dims = GetParam();
  const GridSpec grid{dims, dims == 1 ? 12 : (dims == 2 ? 7 : 4)};
  util::Rng rng(97 + dims);
  std::vector<PointRecord> points;
  for (uint64_t i = 0; i < 500; ++i) {
    std::vector<uint32_t> coords(dims);
    for (int d = 0; d < dims; ++d) {
      coords[d] = static_cast<uint32_t>(rng.NextBelow(grid.side()));
    }
    points.push_back({GridPoint(std::span<const uint32_t>(coords)), i});
  }
  IndexFixture fixture(grid, points, 20);

  for (int q = 0; q < 15; ++q) {
    std::vector<zorder::DimRange> ranges(dims);
    for (int d = 0; d < dims; ++d) {
      uint32_t a = static_cast<uint32_t>(rng.NextBelow(grid.side()));
      uint32_t b = static_cast<uint32_t>(rng.NextBelow(grid.side()));
      ranges[d] = {std::min(a, b), std::max(a, b)};
    }
    const GridBox box{std::span<const zorder::DimRange>(ranges)};
    EXPECT_EQ(Sorted(fixture.index().RangeSearch(box)),
              BruteForce(points, box));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, DimsRangeTest, ::testing::Values(1, 2, 3, 4));

TEST(ZkdIndexTest, PartialMatchEqualsDegenerateRange) {
  const GridSpec grid{3, 4};
  util::Rng rng(103);
  std::vector<PointRecord> points;
  for (uint64_t i = 0; i < 600; ++i) {
    points.push_back({GridPoint({static_cast<uint32_t>(rng.NextBelow(16)),
                                 static_cast<uint32_t>(rng.NextBelow(16)),
                                 static_cast<uint32_t>(rng.NextBelow(16))}),
                      i});
  }
  IndexFixture fixture(grid, points, 20);

  const std::optional<uint32_t> fixed[3] = {std::nullopt, 7, std::nullopt};
  const auto got = Sorted(fixture.index().PartialMatch(fixed));
  const GridBox expect_box = GridBox::Make3D(0, 15, 7, 7, 0, 15);
  EXPECT_EQ(got, BruteForce(points, expect_box));
}

TEST(ZkdIndexTest, DynamicInsertDeleteStaysCorrect) {
  const GridSpec grid{2, 6};
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 32);
  btree::BTreeConfig config;
  config.leaf_capacity = 8;
  ZkdIndex index(grid, &pool, config);

  util::Rng rng(107);
  std::vector<PointRecord> live;
  for (int op = 0; op < 1500; ++op) {
    if (live.empty() || rng.NextBelow(100) < 60) {
      PointRecord r{GridPoint({static_cast<uint32_t>(rng.NextBelow(64)),
                               static_cast<uint32_t>(rng.NextBelow(64))}),
                    static_cast<uint64_t>(op)};
      index.Insert(r.point, r.id);
      live.push_back(r);
    } else {
      const size_t victim = rng.NextBelow(live.size());
      EXPECT_TRUE(index.Delete(live[victim].point, live[victim].id));
      live.erase(live.begin() + victim);
    }
  }
  EXPECT_EQ(index.size(), live.size());
  const GridBox box = GridBox::Make2D(10, 50, 5, 60);
  EXPECT_EQ(Sorted(index.RangeSearch(box)), BruteForce(live, box));
}

TEST(ZkdIndexTest, SearchObjectBallMatchesMembership) {
  const GridSpec grid{2, 6};
  util::Rng rng(109);
  std::vector<PointRecord> points;
  for (uint64_t i = 0; i < 800; ++i) {
    points.push_back({GridPoint({static_cast<uint32_t>(rng.NextBelow(64)),
                                 static_cast<uint32_t>(rng.NextBelow(64))}),
                      i});
  }
  IndexFixture fixture(grid, points, 20);
  const geometry::BallObject ball({30.0, 30.0}, 14.0);
  const auto got = Sorted(fixture.index().SearchObject(ball));
  std::vector<uint64_t> expect;
  for (const auto& r : points) {
    if (ball.ContainsCell(r.point)) expect.push_back(r.id);
  }
  EXPECT_EQ(got, Sorted(std::move(expect)));
}

TEST(ZkdIndexTest, DepthCappedSearchStaysExactWithVerification) {
  const GridSpec grid{2, 8};
  workload::DataGenConfig data;
  data.count = 1000;
  data.seed = 5;
  const auto points = GeneratePoints(grid, data);
  IndexFixture fixture(grid, points, 20);

  const GridBox box = GridBox::Make2D(17, 200, 33, 180);
  SearchOptions capped;
  capped.max_element_depth = 8;  // coarse elements
  capped.verify_candidates = true;
  QueryStats capped_stats, full_stats;
  const auto capped_hits =
      Sorted(fixture.index().RangeSearch(box, &capped_stats, capped));
  const auto full_hits =
      Sorted(fixture.index().RangeSearch(box, &full_stats, {}));
  EXPECT_EQ(capped_hits, full_hits);
  EXPECT_EQ(capped_hits, BruteForce(points, box));
  // The cap must actually reduce decomposition work.
  EXPECT_LT(capped_stats.elements_generated, full_stats.elements_generated);
}

TEST(ZkdIndexTest, SkipMergeTouchesFewerPagesThanPlain) {
  const GridSpec grid{2, 10};
  workload::DataGenConfig data;
  data.count = 5000;
  data.seed = 9;
  const auto points = GeneratePoints(grid, data);
  IndexFixture fixture(grid, points, 20);

  // A small query in a big space: plain merge scans every leaf, the skip
  // merge only the relevant ones (Section 3.3's optimization).
  const GridBox box = GridBox::Make2D(100, 160, 700, 760);
  QueryStats skip_stats, plain_stats;
  SearchOptions plain;
  plain.merge = SearchOptions::Merge::kPlainMerge;
  const auto a = Sorted(fixture.index().RangeSearch(box, &skip_stats, {}));
  const auto b = Sorted(fixture.index().RangeSearch(box, &plain_stats, plain));
  EXPECT_EQ(a, b);
  EXPECT_LT(skip_stats.leaf_pages, plain_stats.leaf_pages / 4);
  EXPECT_LT(skip_stats.points_scanned, plain_stats.points_scanned / 4);
}

// One merge behind three APIs: the streaming cursor, the materializing
// RangeSearch (serial and partitioned) and the CountBox aggregate must
// agree on the answer, its order and the work counters, under every depth
// cap, with verification on and off, on the SIMD and the scalar in-page
// filter alike.
TEST(ZkdIndexTest, RangeCursorStreamsSameResultsAsRangeSearch) {
  const GridSpec grid{2, 8};
  util::ThreadPool pool(2);
  for (const auto distribution :
       {workload::Distribution::kUniform, workload::Distribution::kClustered,
        workload::Distribution::kDiagonal}) {
    workload::DataGenConfig data;
    data.distribution = distribution;
    data.count = 1500;
    data.seed = 111;
    const auto points = GeneratePoints(grid, data);
    IndexFixture fixture(grid, points, 20);
    const ZkdIndex& index = fixture.index();
    for (const bool force_scalar : {true, false}) {
      btree::SetForceScalarFilter(force_scalar);
      for (const int depth : {-1, 2, 4, 6}) {
        for (const bool verify : {true, false}) {
          SearchOptions options;
          options.max_element_depth = depth;
          options.verify_candidates = verify;
          util::Rng rng(113);
          for (int q = 0; q < 15; ++q) {
            const uint32_t x = static_cast<uint32_t>(rng.NextBelow(200));
            const uint32_t y = static_cast<uint32_t>(rng.NextBelow(200));
            const GridBox box = GridBox::Make2D(x, x + 50, y, y + 50);
            SCOPED_TRACE(workload::DistributionName(distribution) + " " +
                         box.ToString() + " depth=" + std::to_string(depth) +
                         " verify=" + std::to_string(verify) +
                         " scalar=" + std::to_string(force_scalar));

            QueryStats batch_stats;
            const auto batch = index.RangeSearch(box, &batch_stats, options);

            ZkdIndex::RangeCursor cursor(index, box, options);
            std::vector<uint64_t> streamed;
            uint64_t id = 0;
            GridPoint point;
            while (cursor.Next(&id, &point)) {
              streamed.push_back(id);
              if (verify || depth < 0) {
                EXPECT_TRUE(box.ContainsPoint(point));
              }
            }
            EXPECT_EQ(streamed, batch);
            EXPECT_EQ(
                index.ParallelRangeSearch(box, pool, 3, nullptr, options),
                batch);
            EXPECT_EQ(index.CountBox(box, nullptr, options), batch.size());

            const QueryStats streamed_stats = cursor.stats();
            EXPECT_EQ(streamed_stats.leaf_pages, batch_stats.leaf_pages);
            EXPECT_EQ(streamed_stats.internal_pages,
                      batch_stats.internal_pages);
            EXPECT_EQ(streamed_stats.point_seeks, batch_stats.point_seeks);
            EXPECT_EQ(streamed_stats.elements_generated,
                      batch_stats.elements_generated);
            EXPECT_EQ(streamed_stats.points_scanned,
                      batch_stats.points_scanned);
            EXPECT_EQ(streamed_stats.results, batch.size());
            EXPECT_EQ(batch_stats.results, batch.size());
          }
        }
      }
    }
  }
  btree::SetForceScalarFilter(false);
}

TEST(ZkdIndexTest, RangeCursorEarlyAbandonIsCheap) {
  // A consumer that stops after the first few rows must not pay for the
  // whole result — the point of streaming.
  const GridSpec grid{2, 10};
  workload::DataGenConfig data;
  data.count = 5000;
  data.seed = 117;
  const auto points = GeneratePoints(grid, data);
  IndexFixture fixture(grid, points, 20);
  const GridBox big = GridBox::Make2D(0, 1023, 0, 1023);

  ZkdIndex::RangeCursor cursor(fixture.index(), big);
  uint64_t id = 0;
  for (int i = 0; i < 5 && cursor.Next(&id); ++i) {
  }
  EXPECT_LE(cursor.stats().leaf_pages, 3u);  // stopped after ~5 rows

  QueryStats full;
  fixture.index().RangeSearch(big, &full);
  EXPECT_EQ(full.leaf_pages, 250u);  // the batch call pays for everything
}

TEST(ZkdIndexTest, LeafPartitionsCoverAllPoints) {
  const GridSpec grid{2, 10};
  workload::DataGenConfig data;
  data.count = 5000;
  data.seed = 1;
  const auto points = GeneratePoints(grid, data);
  IndexFixture fixture(grid, points, 20);
  const auto partitions = fixture.index().LeafPartitions();
  uint64_t total = 0;
  for (size_t i = 0; i < partitions.size(); ++i) {
    total += partitions[i].entries;
    EXPECT_LE(partitions[i].entries, 20);
    if (i > 0) {
      EXPECT_LT(partitions[i - 1].first_key, partitions[i].first_key);
    }
  }
  EXPECT_EQ(total, 5000u);
  // The paper's setup: 5000 points at 20/page = 250 pages when packed.
  EXPECT_EQ(partitions.size(), 250u);
}

TEST(ZkdIndexTest, EfficiencyBetweenZeroAndOne) {
  const GridSpec grid{2, 8};
  workload::DataGenConfig data;
  data.count = 2000;
  data.seed = 3;
  const auto points = GeneratePoints(grid, data);
  IndexFixture fixture(grid, points, 20);
  util::Rng rng(11);
  for (int q = 0; q < 20; ++q) {
    const uint32_t x = static_cast<uint32_t>(rng.NextBelow(200));
    const uint32_t y = static_cast<uint32_t>(rng.NextBelow(200));
    QueryStats stats;
    fixture.index().RangeSearch(GridBox::Make2D(x, x + 40, y, y + 40), &stats);
    EXPECT_GE(stats.Efficiency(), 0.0);
    EXPECT_LE(stats.Efficiency(), 1.0);
    EXPECT_LE(stats.results, stats.entries_on_touched_pages);
  }
}

/// The counters that identify a query's own work.
std::vector<uint64_t> Counters(const QueryStats& s) {
  return {s.leaf_pages,  s.internal_pages, s.points_scanned,
          s.elements_generated, s.point_seeks, s.results,
          s.contained_elements, s.materialized_rows};
}

TEST(ZkdIndexTest, EveryQueryOverwritesItsStats) {
  // One stats contract: a query that takes a QueryStats* writes that
  // call's own counters, so a QueryStats reused across queries holds the
  // last query's, never a running sum.
  const GridSpec grid{2, 8};
  workload::DataGenConfig config;
  config.count = 3000;
  config.seed = 321;
  const auto points = workload::GeneratePoints(grid, config);
  const GridBox big = GridBox::Make2D(0, 200, 0, 200);
  const GridBox small = GridBox::Make2D(10, 40, 60, 90);

  IndexFixture fixture(grid, points, 20);
  QueryStats alone;
  fixture.index().CountBox(small, &alone);
  ASSERT_GT(alone.leaf_pages, 0u);
  QueryStats reused;
  fixture.index().CountBox(big, &reused);
  fixture.index().CountBox(small, &reused);
  EXPECT_EQ(Counters(reused), Counters(alone)) << "ZkdIndex::CountBox";

  // The sharded view gathers its parts through RunParts.
  testutil::TempFile tmp("stats_contract");
  struct RemoveShards {  // TempFile knows only the prefix's own files
    std::string prefix;
    ~RemoveShards() {
      for (int i = 0; i < 2; ++i) {
        const std::string base = server::ShardedEngine::ShardPath(prefix, i);
        for (const char* suffix : {"", ".wal", ".wal.tmp"}) {
          std::remove((base + suffix).c_str());
        }
      }
    }
  } remove_shards{tmp.path()};
  util::ThreadPool pool(1);
  server::ShardedEngineOptions options;
  options.shards = 2;
  options.truncate = true;
  server::ShardedEngine engine(grid, tmp.path(), options, &pool);
  ASSERT_TRUE(engine.ok());
  std::vector<DurableIndex::Op> ops;
  for (const auto& r : points) {
    ops.push_back(DurableIndex::Op::Insert(r.point, r.id));
  }
  ASSERT_TRUE(engine.Apply(ops));
  const server::ShardedEngine::View view = engine.CreateView();
  QueryStats view_alone;
  view.RangeSearch(small, &view_alone);
  ASSERT_GT(view_alone.results, 0u);
  QueryStats view_reused;
  view.RangeSearch(big, &view_reused);
  view.RangeSearch(small, &view_reused);
  EXPECT_EQ(Counters(view_reused), Counters(view_alone))
      << "ShardedEngine::View::RangeSearch";
  view.CountBox(small, &view_reused);
  view.CountBox(small, &view_reused);
  EXPECT_EQ(view_reused.results, view_alone.results)
      << "ShardedEngine::View::CountBox";
}

}  // namespace
}  // namespace probe::index
