// Golden-file EXPLAIN tests: the planner's decisions for a fixed workload,
// snapshotted as pretty-printed ExplainJson under tests/golden/.
//
// Plans are snapshotted *before* execution, so the JSON holds only the
// chosen operators, their shapes, and the cost estimates — all pure
// functions of the (seeded) dataset and the planner options, never wall
// clock. A diff in a golden file is a planner behavior change: estimates
// moved, a threshold flipped, an operator was renamed. Review the diff,
// then regenerate with
//
//   ./explain_golden_test --update-golden
//
// which rewrites every snapshot in the source tree and exits green.
//
// Each case then drains the plan it snapshotted and checks the answer:
// equal to the engine's direct call (same ids in the same order, the
// same count, the same pairs) and, for every index-backed plan, equal to
// a brute-force pass over the fixture's points. The brute-force half is
// what lets a fault in the skip-merge fail these tests, since the plan
// and the direct call run the same merge.

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "golden.h"
#include "index/cost_model.h"
#include "index/nearest.h"
#include "query/executor.h"
#include "query/explain.h"
#include "query/planner.h"
#include "relational/distance_join.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workload/experiment.h"

namespace probe::query {
namespace {

using geometry::GridBox;
using geometry::GridPoint;
using testutil::CheckGolden;
using zorder::GridSpec;

/// The one fixture every snapshot is planned against. Everything is
/// seeded: a different dataset would change every estimate in every file.
struct GoldenFixture {
  GridSpec grid{2, 10};
  std::vector<index::PointRecord> points;
  workload::BuiltIndex built;
  index::CostModel model;
  baseline::BucketKdTree kd_tree;

  GoldenFixture()
      : points([&] {
          workload::DataGenConfig data;
          data.distribution = workload::Distribution::kUniform;
          data.count = 5000;
          data.seed = 7100;
          return GeneratePoints(grid, data);
        }()),
        built(workload::BuildZkdIndex(grid, points, 20, 256)),
        model(index::CostModel::FromIndex(*built.index)),
        kd_tree(baseline::BucketKdTree::Build(grid.dims, points, 20)) {}

  PlannerContext Context(util::ThreadPool* pool = nullptr,
                         bool with_kd = false) const {
    PlannerContext ctx;
    ctx.index = built.index.get();
    ctx.cost_model = &model;
    ctx.pool = pool;
    if (with_kd) ctx.kd_tree = &kd_tree;
    return ctx;
  }
};

uint64_t SquaredDistance(const GridPoint& a, const GridPoint& b) {
  const int64_t dx = static_cast<int64_t>(a[0]) - b[0];
  const int64_t dy = static_cast<int64_t>(a[1]) - b[1];
  return static_cast<uint64_t>(dx * dx + dy * dy);
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Brute force: the sorted ids of the fixture's points that `keep` admits.
template <typename Pred>
std::vector<uint64_t> OracleIds(const GoldenFixture& fx, Pred keep) {
  std::vector<uint64_t> ids;
  for (const auto& r : fx.points) {
    if (keep(r.point)) ids.push_back(r.id);
  }
  return Sorted(std::move(ids));
}

std::vector<uint64_t> OracleBox(const GoldenFixture& fx, const GridBox& box) {
  return OracleIds(fx,
                   [&](const GridPoint& p) { return box.ContainsPoint(p); });
}

/// Drains a range plan: the engine's own RangeSearch in stream order (or,
/// for a plan that is not a z scan, as a set), and the brute-force set.
void ExpectRangeAnswer(const GoldenFixture& fx, PlanNode& root,
                       const GridBox& box, bool z_order) {
  const auto ids = ExecuteIds(root);
  const auto direct = fx.built.index->RangeSearch(box);
  if (z_order) {
    EXPECT_EQ(ids, direct);
  } else {
    EXPECT_EQ(Sorted(ids), Sorted(direct));
  }
  EXPECT_EQ(Sorted(ids), OracleBox(fx, box));
}

/// The second catalog every distance-join case joins against.
std::vector<index::PointRecord> JoinCatalog(const GridSpec& grid) {
  workload::DataGenConfig s_config;
  s_config.count = 3000;
  s_config.seed = 7200;
  return GeneratePoints(grid, s_config);
}

/// Drains a distance-join plan: the (r_id, s_id) rows equal the direct
/// DistanceJoinPairs stream, in order.
void ExpectJoinAnswer(const GoldenFixture& fx, PlanNode& root,
                      std::span<const index::PointRecord> s_points,
                      uint64_t radius) {
  const ExecutionResult result = Execute(root);
  const auto direct =
      relational::DistanceJoinPairs(fx.points, s_points, fx.grid, radius);
  ASSERT_EQ(result.rows.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(std::get<int64_t>(result.rows.row(i)[0]),
              static_cast<int64_t>(direct[i].r_id));
    EXPECT_EQ(std::get<int64_t>(result.rows.row(i)[1]),
              static_cast<int64_t>(direct[i].s_id));
  }
}

TEST(ExplainGoldenTest, SerialRangeScan) {
  const GoldenFixture fx;
  const GridBox box = GridBox::Make2D(100, 400, 100, 400);
  PlannedQuery planned = Plan(Query::Range(box), fx.Context());
  CheckGolden("range_serial.json", ExplainJsonPretty(*planned.root));
  ExpectRangeAnswer(fx, *planned.root, box, /*z_order=*/true);
}

TEST(ExplainGoldenTest, ParallelRangeScan) {
  const GoldenFixture fx;
  util::ThreadPool pool(3);
  PlannerOptions options;
  options.parallel_page_threshold = 1;
  options.pages_per_lane = 1;
  const GridBox box = GridBox::Make2D(50, 800, 50, 800);
  PlannedQuery planned = Plan(Query::Range(box), fx.Context(&pool), options);
  CheckGolden("range_parallel.json", ExplainJsonPretty(*planned.root));
  ExpectRangeAnswer(fx, *planned.root, box, /*z_order=*/true);
}

TEST(ExplainGoldenTest, DepthCappedRangeScan) {
  const GoldenFixture fx;
  PlannerOptions options;
  options.element_budget = 64;
  const GridBox box = GridBox::Make2D(10, 900, 10, 900);
  PlannedQuery planned = Plan(Query::Range(box), fx.Context(), options);
  CheckGolden("range_depth_capped.json", ExplainJsonPretty(*planned.root));
  ExpectRangeAnswer(fx, *planned.root, box, /*z_order=*/true);
}

TEST(ExplainGoldenTest, BucketKdFallback) {
  const GoldenFixture fx;
  PlannerOptions options;
  options.kd_advantage = 1e9;  // any finite kd estimate wins
  const GridBox box = GridBox::Make2D(100, 400, 100, 400);
  PlannedQuery planned =
      Plan(Query::Range(box), fx.Context(nullptr, /*with_kd=*/true), options);
  CheckGolden("range_kd_fallback.json", ExplainJsonPretty(*planned.root));
  ExpectRangeAnswer(fx, *planned.root, box, /*z_order=*/false);
}

TEST(ExplainGoldenTest, AggregateCount) {
  const GoldenFixture fx;
  const GridBox box = GridBox::Make2D(100, 400, 100, 400);
  PlannedQuery planned = Plan(Query::Count(box), fx.Context());
  CheckGolden("aggregate_count.json", ExplainJsonPretty(*planned.root));
  const ExecutionResult result = Execute(*planned.root);
  ASSERT_EQ(result.rows.size(), 1u);
  const auto count =
      static_cast<uint64_t>(std::get<int64_t>(result.rows.row(0)[0]));
  EXPECT_EQ(count, fx.built.index->CountBox(box));
  EXPECT_EQ(count, OracleBox(fx, box).size());
}

TEST(ExplainGoldenTest, WithinDistance) {
  const GoldenFixture fx;
  const GridPoint center({512, 512});
  PlannedQuery planned =
      Plan(Query::WithinDistance(center, 60.0), fx.Context());
  CheckGolden("within_distance.json", ExplainJsonPretty(*planned.root));
  const auto ids = ExecuteIds(*planned.root);
  EXPECT_EQ(ids, index::WithinDistance(*fx.built.index, center, 60.0));
  EXPECT_EQ(Sorted(ids), OracleIds(fx, [&](const GridPoint& p) {
              return SquaredDistance(p, center) <= 60 * 60;
            }));
}

TEST(ExplainGoldenTest, KNearest) {
  const GoldenFixture fx;
  const GridPoint center({512, 512});
  constexpr size_t kK = 16;
  PlannedQuery planned = Plan(Query::KNearest(center, kK), fx.Context());
  CheckGolden("k_nearest.json", ExplainJsonPretty(*planned.root));
  const ExecutionResult result = Execute(*planned.root);
  // Brute force: every point by (distance, id), the first k — the order
  // KNearest promises, ties included.
  std::vector<std::pair<uint64_t, uint64_t>> all;
  for (const auto& r : fx.points) {
    all.emplace_back(SquaredDistance(r.point, center), r.id);
  }
  std::sort(all.begin(), all.end());
  const auto direct = index::KNearest(*fx.built.index, center, kK);
  ASSERT_EQ(direct.size(), kK);
  ASSERT_EQ(result.rows.size(), kK);
  for (size_t i = 0; i < kK; ++i) {
    EXPECT_EQ(std::get<int64_t>(result.rows.row(i)[0]),
              static_cast<int64_t>(direct[i].id));
    EXPECT_EQ(std::get<int64_t>(result.rows.row(i)[1]),
              static_cast<int64_t>(direct[i].distance2));
    EXPECT_EQ(direct[i].id, all[i].second);
    EXPECT_EQ(static_cast<uint64_t>(direct[i].distance2), all[i].first);
  }
}

TEST(ExplainGoldenTest, DistanceJoin) {
  const GoldenFixture fx;
  // A second seeded catalog joined against the fixture's points; the
  // distance join plans standalone (no index), so only the analytic
  // estimate and the operator shape land in the snapshot.
  const auto s_points = JoinCatalog(fx.grid);
  PlannedQuery planned = Plan(
      Query::DistanceJoin(fx.points, s_points, fx.grid, 8), fx.Context());
  CheckGolden("distance_join.json", ExplainJsonPretty(*planned.root));
  ExpectJoinAnswer(fx, *planned.root, s_points, 8);
}

TEST(ExplainGoldenTest, ParallelDistanceJoin) {
  const GoldenFixture fx;
  const auto s_points = JoinCatalog(fx.grid);
  util::ThreadPool pool(3);
  PlannerOptions options;
  options.join_parallel_row_threshold = 1;
  PlannedQuery planned =
      Plan(Query::DistanceJoin(fx.points, s_points, fx.grid, 8),
           fx.Context(&pool), options);
  CheckGolden("distance_join_parallel.json", ExplainJsonPretty(*planned.root));
  ExpectJoinAnswer(fx, *planned.root, s_points, 8);
}

}  // namespace
}  // namespace probe::query

int main(int argc, char** argv) {
  return probe::testutil::GoldenTestMain(argc, argv);
}
