// Aggregate pushdown: CountRange/CountBox on the index, the planner's
// AggregateCount node, EXPLAIN's rendering of the pushdown counters, and
// the cost model's calibration on compressed (v2) pages.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "btree/btree.h"
#include "index/cost_model.h"
#include "index/zkd_index.h"
#include "query/executor.h"
#include "query/explain.h"
#include "query/planner.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "util/rng.h"
#include "workload/datagen.h"
#include "workload/experiment.h"
#include "workload/querygen.h"
#include "zorder/shuffle.h"

namespace probe::query {
namespace {

using geometry::GridBox;
using index::QueryStats;
using index::ZkdIndex;
using workload::Distribution;
using zorder::GridSpec;

struct Fixture {
  storage::MemPager pager;
  storage::BufferPool pool;
  ZkdIndex index;

  Fixture(const GridSpec& grid, const std::vector<index::PointRecord>& points,
          const btree::BTreeConfig& config)
      : pool(&pager, 1024),
        index(ZkdIndex::Build(grid, &pool, points, config)) {}
};

std::vector<index::PointRecord> Points(const GridSpec& grid, size_t count,
                                       uint64_t seed) {
  workload::DataGenConfig data;
  data.count = count;
  data.seed = seed;
  return GeneratePoints(grid, data);
}

TEST(AggregateCountTest, CountBoxMatchesRangeSearchOnBothFormats) {
  const GridSpec grid{2, 10};
  for (const auto dist : {Distribution::kUniform, Distribution::kClustered,
                          Distribution::kDiagonal}) {
    SCOPED_TRACE(workload::DistributionName(dist));
    workload::DataGenConfig data;
    data.distribution = dist;
    data.count = 20000;
    data.seed = 8800;
    const auto points = GeneratePoints(grid, data);
    Fixture v1(grid, points, {});
    Fixture v2(grid, points, btree::BTreeConfig::Compressed());

    util::Rng rng(8801);
    for (const double volume : {0.001, 0.01, 0.05}) {
      for (const auto& box :
           workload::MakeQueryBoxes2D(grid, volume, 1.0, 8, rng)) {
        const uint64_t expected = v1.index.RangeSearch(box).size();
        QueryStats v1_stats;
        QueryStats v2_stats;
        EXPECT_EQ(v1.index.CountBox(box, &v1_stats), expected);
        EXPECT_EQ(v2.index.CountBox(box, &v2_stats), expected);
        // Full-depth decomposition: every element is contained, nothing
        // is decoded into rows.
        EXPECT_EQ(v1_stats.materialized_rows, 0u);
        EXPECT_EQ(v2_stats.materialized_rows, 0u);
        if (expected > 0) {
          EXPECT_GT(v2_stats.contained_elements, 0u);
        }
      }
    }
  }
}

TEST(AggregateCountTest, DepthCappedCountVerifiesBoundaryRows) {
  const GridSpec grid{2, 10};
  const auto points = Points(grid, 20000, 8810);
  Fixture v2(grid, points, btree::BTreeConfig::Compressed());

  util::Rng rng(8811);
  index::SearchOptions capped;
  capped.max_element_depth = 8;  // coarse cover: boundary cells overcover
  for (const auto& box : workload::MakeQueryBoxes2D(grid, 0.02, 1.0, 8, rng)) {
    const uint64_t expected = v2.index.RangeSearch(box).size();
    QueryStats stats;
    EXPECT_EQ(v2.index.CountBox(box, &stats, capped), expected);
    // The capped cover is inexact, so the count had to verify rows.
    EXPECT_GT(stats.materialized_rows, 0u);
  }
}

TEST(AggregateCountTest, CountRangeMatchesCursorScan) {
  const GridSpec grid{2, 8};
  const auto points = Points(grid, 5000, 8820);
  Fixture v2(grid, points, btree::BTreeConfig::Compressed());

  const int total = grid.total_bits();
  std::vector<uint64_t> zs;
  for (const auto& rec : points) {
    zs.push_back(zorder::Shuffle(grid, rec.point.coords()).ToInteger());
  }
  std::sort(zs.begin(), zs.end());

  util::Rng rng(8821);
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t lo = rng.NextBelow(1ULL << total);
    uint64_t hi = rng.NextBelow(1ULL << total);
    if (lo > hi) std::swap(lo, hi);
    const auto begin = std::lower_bound(zs.begin(), zs.end(), lo);
    const auto end = std::upper_bound(zs.begin(), zs.end(), hi);
    EXPECT_EQ(v2.index.CountRange(lo, hi),
              static_cast<uint64_t>(end - begin));
  }
}

TEST(AggregateCountTest, PlannerProducesAggregateNode) {
  const GridSpec grid{2, 10};
  const auto points = Points(grid, 8000, 8830);
  Fixture v2(grid, points, btree::BTreeConfig::Compressed());
  const index::CostModel model = index::CostModel::FromIndex(v2.index);
  EXPECT_GT(model.avg_leaf_entries(), 400.0);  // v2 density, not v1's 239

  PlannerContext ctx;
  ctx.index = &v2.index;
  ctx.cost_model = &model;

  util::Rng rng(8831);
  const auto boxes = workload::MakeQueryBoxes2D(grid, 0.02, 1.0, 4, rng);
  for (const auto& box : boxes) {
    PlannedQuery planned = Plan(Query::Count(box), ctx);
    EXPECT_NE(planned.summary.find("AggregateCount"), std::string::npos);
    ExecutionResult result = Execute(*planned.root);
    ASSERT_EQ(result.rows.size(), 1u);
    const uint64_t expected = v2.index.RangeSearch(box).size();
    EXPECT_EQ(std::get<int64_t>(result.rows.row(0)[0]),
              static_cast<int64_t>(expected));

    const NodeStats& stats = planned.root->stats();
    EXPECT_TRUE(stats.has_aggregate);
    EXPECT_EQ(stats.materialized_rows, 0u);

    // EXPLAIN surfaces the pushdown counters once executed.
    const std::string text = Explain(*planned.root);
    EXPECT_NE(text.find("materialized rows"), std::string::npos);
    const std::string json = ExplainJson(*planned.root);
    EXPECT_NE(json.find("\"materialized_rows\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"contained_elements\""), std::string::npos);
  }
}

TEST(AggregateCountTest, CostModelCalibratedOnCompressedPages) {
  // The estimator reads leaf boundaries through the format-dispatched
  // walk, so its page predictions must stay inside the ~15% band on v2
  // trees exactly as planner_calibration_test holds them on v1.
  const GridSpec grid{2, 10};
  for (const auto dist : {Distribution::kUniform, Distribution::kClustered}) {
    workload::DataGenConfig data;
    data.distribution = dist;
    data.count = 20000;
    data.seed = 8840;
    const auto points = GeneratePoints(grid, data);
    Fixture v2(grid, points, btree::BTreeConfig::Compressed());
    const index::CostModel model = index::CostModel::FromIndex(v2.index);

    util::Rng rng(8841);
    double total_estimated = 0;
    double total_actual = 0;
    for (const double volume : {0.01, 0.05, 0.10}) {
      for (const auto& box :
           workload::MakeQueryBoxes2D(grid, volume, 1.0, 8, rng)) {
        total_estimated +=
            static_cast<double>(model.EstimatePages(box).pages);
        QueryStats stats;
        v2.index.CountBox(box, &stats);
        total_actual += static_cast<double>(stats.leaf_pages);
      }
    }
    ASSERT_GT(total_actual, 0.0);
    EXPECT_LT(std::abs(total_estimated - total_actual) / total_actual, 0.15)
        << workload::DistributionName(dist);
  }
}

}  // namespace
}  // namespace probe::query
