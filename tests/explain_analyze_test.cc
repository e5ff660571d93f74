// EXPLAIN ANALYZE tests: golden snapshots of the instrumented rendering
// (wall-clock fields masked, everything else deterministic from the
// seeds), plus the two accuracy bars the instrumentation must clear —
//
//   * measured pages: on a cold pool, a serial z scan's reported pool
//     misses equal the BufferPool's own miss delta *exactly*, and sit in
//     the [leaf_pages, leaf_pages + internal_pages] sandwich;
//   * cost model: on the planner-calibration workload (same grid, seeds,
//     and query boxes as planner_calibration_test) the planner's page
//     estimates track the *measured* misses in aggregate.
//
// Regenerate snapshots with:  ./explain_analyze_test --update-golden

#include <cmath>
#include <regex>
#include <string>

#include <gtest/gtest.h>

#include "golden.h"
#include "index/cost_model.h"
#include "query/executor.h"
#include "query/explain.h"
#include "query/planner.h"
#include "storage/buffer_pool.h"
#include "util/rng.h"
#include "workload/datagen.h"
#include "workload/experiment.h"
#include "workload/querygen.h"

namespace probe::query {
namespace {

using geometry::GridBox;
using geometry::GridPoint;
using testutil::CheckGolden;
using zorder::GridSpec;

/// Replaces every wall-clock figure with a fixed token so snapshots are
/// stable across machines: "ms": 1.234 / "total_ms": 1.234 in JSON,
/// "1.234 ms" in text.
std::string MaskTimings(const std::string& s) {
  static const std::regex kJsonMs("(\"(?:total_)?ms\": )[0-9]+\\.[0-9]+");
  static const std::regex kTextMs("[0-9]+\\.[0-9]+ ms");
  std::string out = std::regex_replace(s, kJsonMs, "$1\"<ms>\"");
  return std::regex_replace(out, kTextMs, "<ms>");
}

/// The golden fixture: the same seeded dataset explain_golden_test plans
/// against, re-opened over a *cold* pool so every page count in the
/// snapshots is a pure function of the data.
struct AnalyzeFixture {
  GridSpec grid{2, 10};
  workload::BuiltIndex built;
  std::unique_ptr<storage::BufferPool> cold_pool;
  std::unique_ptr<index::ZkdIndex> index;
  index::CostModel model;

  AnalyzeFixture()
      : built([&] {
          workload::DataGenConfig data;
          data.distribution = workload::Distribution::kUniform;
          data.count = 5000;
          data.seed = 7100;
          const auto points = GeneratePoints(grid, data);
          return workload::BuildZkdIndex(grid, points, 20, 256);
        }()),
        model(index::CostModel::FromIndex(*built.index)) {
    // Push every page the build dirtied down to the pager, then re-open
    // the tree over a fresh pool: first touch of any page is a miss.
    built.pool->FlushAll();
    cold_pool = std::make_unique<storage::BufferPool>(built.pager.get(), 256);
    btree::BTreeConfig config;
    config.leaf_capacity = 20;
    index = std::make_unique<index::ZkdIndex>(index::ZkdIndex::Attach(
        grid, cold_pool.get(), built.index->DetachState(), config));
  }

  PlannerContext Context() const {
    PlannerContext ctx;
    ctx.index = index.get();
    ctx.cost_model = &model;
    return ctx;
  }
};

TEST(ExplainAnalyzeGoldenTest, SerialRangeScanText) {
  const AnalyzeFixture fx;
  PlannedQuery planned =
      Plan(Query::Range(GridBox::Make2D(100, 400, 100, 400)), fx.Context());
  ExplainAnalyzeOptions options;
  options.pool = fx.cold_pool.get();
  const ExplainAnalyzeResult result = ExplainAnalyze(*planned.root, options);
  CheckGolden("analyze_range_serial.txt", MaskTimings(result.text));
}

TEST(ExplainAnalyzeGoldenTest, SerialRangeScanJson) {
  const AnalyzeFixture fx;
  PlannedQuery planned =
      Plan(Query::Range(GridBox::Make2D(100, 400, 100, 400)), fx.Context());
  ExplainAnalyzeOptions options;
  options.pool = fx.cold_pool.get();
  const ExplainAnalyzeResult result = ExplainAnalyze(*planned.root, options);
  CheckGolden("analyze_range_serial.json", MaskTimings(result.json));
}

TEST(ExplainAnalyzeGoldenTest, ProjectedWithinDistanceJson) {
  const AnalyzeFixture fx;
  PlannedQuery planned = Plan(
      Query::WithinDistance(GridPoint({512, 512}), 60.0), fx.Context());
  ExplainAnalyzeOptions options;
  options.pool = fx.cold_pool.get();
  const ExplainAnalyzeResult result = ExplainAnalyze(*planned.root, options);
  CheckGolden("analyze_within_distance.json", MaskTimings(result.json));
}

/// Finds the scan node (the single leaf) in a decorated plan.
const PlanNode* FindLeaf(const PlanNode* node) {
  while (node->child_count() > 0) node = node->child(0);
  return node;
}

// The exactness bar: on a cold pool, the misses ExplainAnalyze reports
// are the BufferPool's own miss delta — the summary, the leaf node's
// window, and the externally measured delta must all be the same number.
TEST(ExplainAnalyzeTest, MeasuredPagesEqualPoolMissDeltaExactly) {
  const AnalyzeFixture fx;
  PlannedQuery planned =
      Plan(Query::Range(GridBox::Make2D(100, 400, 100, 400)), fx.Context());

  const storage::BufferPoolStats before = fx.cold_pool->stats();
  ExplainAnalyzeOptions options;
  options.pool = fx.cold_pool.get();
  const ExplainAnalyzeResult result = ExplainAnalyze(*planned.root, options);
  const storage::BufferPoolStats after = fx.cold_pool->stats();

  const uint64_t measured_misses = after.misses - before.misses;
  ASSERT_TRUE(result.has_pool_stats);
  EXPECT_EQ(result.pool_misses, measured_misses);
  EXPECT_EQ(result.pool_hits, after.hits - before.hits);
  EXPECT_EQ(result.pool_fetches, after.fetches - before.fetches);

  const NodeStats& leaf = FindLeaf(planned.root.get())->stats();
  ASSERT_TRUE(leaf.has_pool_stats);
  EXPECT_EQ(leaf.pool_misses, measured_misses)
      << "the scan node's Open..Close window missed pool traffic";

  // Cold cache: every leaf entered is a miss, plus at most the descent.
  EXPECT_GE(measured_misses, leaf.actual_pages);
  EXPECT_LE(measured_misses, leaf.actual_pages + fx.index->tree().height());
  EXPECT_GT(result.rows.size(), 0u);
}

// A warm second run of the same query must be all hits — the miss window
// proves the pool (not the instrumentation) is what changed.
TEST(ExplainAnalyzeTest, WarmRunReportsZeroMisses) {
  const AnalyzeFixture fx;
  ExplainAnalyzeOptions options;
  options.pool = fx.cold_pool.get();
  const Query query = Query::Range(GridBox::Make2D(100, 400, 100, 400));

  PlannedQuery cold = Plan(query, fx.Context());
  const ExplainAnalyzeResult first = ExplainAnalyze(*cold.root, options);

  PlannedQuery warm = Plan(query, fx.Context());
  const ExplainAnalyzeResult second = ExplainAnalyze(*warm.root, options);

  EXPECT_GT(first.pool_misses, 0u);
  EXPECT_EQ(second.pool_misses, 0u);
  EXPECT_EQ(second.pool_hits, second.pool_fetches);
  EXPECT_EQ(first.rows.size(), second.rows.size());
}

// Cross-check against the PR 2 cost model on the planner-calibration
// workload: the page estimates the planner attaches must track the pool
// misses ExplainAnalyze measures. The calibration suite already holds
// estimate-vs-leaf_pages drift under 15%; measured misses add the descent
// pages, so the aggregate band here is a looser 25%.
TEST(ExplainAnalyzeTest, EstimatesTrackMeasuredMissesOnCalibrationWorkload) {
  const GridSpec grid{2, 10};
  workload::DataGenConfig data;
  data.distribution = workload::Distribution::kUniform;
  data.count = 5000;
  data.seed = 7900;
  const auto points = GeneratePoints(grid, data);
  auto built = workload::BuildZkdIndex(grid, points, 20, 256);
  const index::CostModel model = index::CostModel::FromIndex(*built.index);
  built.pool->FlushAll();

  util::Rng rng(7910);
  double total_estimated = 0;
  double total_measured = 0;
  int queries = 0;
  for (const double volume : {0.01, 0.02, 0.05, 0.10}) {
    for (const double aspect : {1.0, 4.0}) {
      for (const auto& box :
           workload::MakeQueryBoxes2D(grid, volume, aspect, 5, rng)) {
        // Fresh cold pool per query: misses == pages this query touched.
        storage::BufferPool pool(built.pager.get(), 256);
        btree::BTreeConfig config;
        config.leaf_capacity = 20;
        index::ZkdIndex index = index::ZkdIndex::Attach(
            grid, &pool, built.index->DetachState(), config);

        PlannerContext ctx;
        ctx.index = &index;
        ctx.cost_model = &model;
        PlannedQuery planned = Plan(Query::Range(box), ctx);

        ExplainAnalyzeOptions options;
        options.pool = &pool;
        const ExplainAnalyzeResult result =
            ExplainAnalyze(*planned.root, options);

        const NodeStats& leaf = FindLeaf(planned.root.get())->stats();
        ASSERT_TRUE(leaf.has_estimate);
        total_estimated += static_cast<double>(leaf.est_pages);
        total_measured += static_cast<double>(result.pool_misses);
        ++queries;
      }
    }
  }
  ASSERT_GT(queries, 0);
  ASSERT_GT(total_measured, 0.0);
  const double drift =
      std::abs(total_estimated - total_measured) / total_measured;
  EXPECT_LT(drift, 0.25) << "estimated " << total_estimated
                         << " pages vs measured " << total_measured
                         << " misses over " << queries << " queries";
}

}  // namespace
}  // namespace probe::query

int main(int argc, char** argv) {
  return probe::testutil::GoldenTestMain(argc, argv);
}
