#include "server/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "index/durable_index.h"
#include "storage/wal.h"
#include "temp_file.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workload/querygen.h"

// The ShardedEngine's load-bearing promise: scatter-gather answers are
// *bitwise identical* to a single engine holding all the points —
// element for element, in the same order — across the paper's U/C/D
// distributions, for RANGE, BOX (rows), COUNT, and k-NN, including with a
// depth-capped search, and including after one shard's WAL is killed
// mid-batch and recovered.

namespace probe::server {
namespace {

using geometry::GridBox;
using geometry::GridPoint;
using index::DurableIndex;
using probe::util::Rng;
using workload::DataGenConfig;
using workload::Distribution;

constexpr zorder::GridSpec kGrid{2, 8};

// Removes the per-shard database files TempFile's own cleanup does not
// know about.
class ShardFiles {
 public:
  ShardFiles(std::string prefix, int shards)
      : prefix_(std::move(prefix)), shards_(shards) {
    Remove();
  }
  ~ShardFiles() { Remove(); }

  const std::string& prefix() const { return prefix_; }

 private:
  void Remove() {
    for (int i = 0; i < shards_; ++i) {
      const std::string base = ShardedEngine::ShardPath(prefix_, i);
      std::remove(base.c_str());
      std::remove((base + ".wal").c_str());
      std::remove((base + ".wal.tmp").c_str());
    }
  }

  std::string prefix_;
  int shards_;
};

std::vector<DurableIndex::Op> InsertOps(
    const std::vector<index::PointRecord>& points) {
  std::vector<DurableIndex::Op> ops;
  ops.reserve(points.size());
  for (const auto& r : points) ops.push_back(DurableIndex::Op::Insert(r.point, r.id));
  return ops;
}

std::vector<index::PointRecord> Points(Distribution d, size_t count,
                                       uint64_t seed) {
  DataGenConfig config;
  config.distribution = d;
  config.count = count;
  config.seed = seed;
  return workload::GeneratePoints(kGrid, config);
}

void ExpectIdentical(const ShardedEngine& sharded, const ShardedEngine& single,
                     const GridBox& box) {
  // RANGE: same ids in the same (z) order.
  EXPECT_EQ(sharded.RangeSearch(box), single.RangeSearch(box)) << box.ToString();

  // BOX rows: same (id, point) pairs in the same order.
  const auto sharded_rows = sharded.RangeSearchRows(box);
  const auto single_rows = single.RangeSearchRows(box);
  ASSERT_EQ(sharded_rows.size(), single_rows.size()) << box.ToString();
  for (size_t i = 0; i < sharded_rows.size(); ++i) {
    EXPECT_EQ(sharded_rows[i].id, single_rows[i].id);
    EXPECT_EQ(sharded_rows[i].point, single_rows[i].point);
  }

  // COUNT: aggregate pushdown sums to the same total.
  EXPECT_EQ(sharded.CountBox(box), single.CountBox(box)) << box.ToString();

  // Depth-capped search (the session override path) stays exact too.
  index::SearchOptions capped;
  capped.max_element_depth = 8;
  EXPECT_EQ(sharded.RangeSearch(box, nullptr, capped),
            single.RangeSearch(box, nullptr, capped))
      << box.ToString() << " depth-capped";
}

class ShardedEngineIdentityTest
    : public ::testing::TestWithParam<Distribution> {};

TEST_P(ShardedEngineIdentityTest, MatchesSingleShardBitwise) {
  testutil::TempFile tmp_sharded("sharded_multi");
  testutil::TempFile tmp_single("sharded_single");
  ShardFiles multi_files(tmp_sharded.path(), 4);
  ShardFiles single_files(tmp_single.path(), 1);
  util::ThreadPool pool(4);

  ShardedEngineOptions multi;
  multi.shards = 4;
  multi.truncate = true;
  ShardedEngineOptions one;
  one.shards = 1;
  one.truncate = true;

  ShardedEngine sharded(kGrid, multi_files.prefix(), multi, &pool);
  ShardedEngine single(kGrid, single_files.prefix(), one, &pool);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(single.ok());

  const auto points = Points(GetParam(), 3000, 42);
  const auto ops = InsertOps(points);
  ASSERT_TRUE(sharded.Apply(ops));
  ASSERT_TRUE(single.Apply(ops));
  EXPECT_EQ(sharded.size(), single.size());

  Rng rng(7);
  std::vector<GridBox> boxes;
  for (const double volume : {0.001, 0.01, 0.1}) {
    for (const auto& b :
         workload::MakeQueryBoxes2D(kGrid, volume, 2.0, 5, rng)) {
      boxes.push_back(b);
    }
  }
  boxes.push_back(GridBox::Make2D(0, 255, 0, 255));  // everything
  boxes.push_back(GridBox::Make2D(17, 17, 99, 99));  // a single cell

  for (const auto& box : boxes) ExpectIdentical(sharded, single, box);

  // k-NN: same neighbors in the same (distance, id) order.
  for (int i = 0; i < 10; ++i) {
    const GridPoint center({static_cast<uint32_t>(rng.NextBelow(256)),
                            static_cast<uint32_t>(rng.NextBelow(256))});
    const auto a = sharded.KNearest(center, 10);
    const auto b = single.KNearest(center, 10);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id);
      EXPECT_EQ(a[j].distance2, b[j].distance2);
    }
  }

  // Deletes route like inserts; identity must survive them.
  std::vector<DurableIndex::Op> deletes;
  for (size_t i = 0; i < points.size(); i += 3) {
    deletes.push_back(DurableIndex::Op::Delete(points[i].point, points[i].id));
  }
  ASSERT_TRUE(sharded.Apply(deletes));
  ASSERT_TRUE(single.Apply(deletes));
  for (const auto& box : boxes) ExpectIdentical(sharded, single, box);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ShardedEngineIdentityTest,
                         ::testing::Values(Distribution::kUniform,
                                           Distribution::kClustered,
                                           Distribution::kDiagonal),
                         [](const auto& info) {
                           return workload::DistributionName(info.param);
                         });

TEST(ShardedEngineTest, BoxRowsHonourSearchOptions) {
  // BOX streams rows through per-shard cursors, RANGE materializes ids:
  // under a depth cap both must run the same capped merge, so the rows
  // carry RANGE's ids in RANGE's order and the decomposition work matches.
  testutil::TempFile tmp("sharded_box_options");
  ShardFiles files(tmp.path(), 4);
  util::ThreadPool pool(2);
  ShardedEngineOptions options;
  options.shards = 4;
  options.truncate = true;
  ShardedEngine engine(kGrid, files.prefix(), options, &pool);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(
      engine.Apply(InsertOps(Points(Distribution::kClustered, 3000, 9))));

  const ShardedEngine::View view = engine.CreateView();
  for (const int depth : {-1, 4, 6}) {
    index::SearchOptions capped;
    capped.max_element_depth = depth;
    for (const auto& box :
         {GridBox::Make2D(0, 255, 0, 255), GridBox::Make2D(30, 220, 10, 190),
          GridBox::Make2D(100, 140, 60, 70)}) {
      index::QueryStats st, st2;
      const auto rows = view.RangeSearchRows(box, &st, capped);
      const auto ids = view.RangeSearch(box, &st2, capped);
      ASSERT_EQ(rows.size(), ids.size())
          << box.ToString() << " depth " << depth;
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].id, ids[i]);
        EXPECT_TRUE(box.ContainsPoint(rows[i].point));
      }
      EXPECT_EQ(st.elements_generated, st2.elements_generated)
          << box.ToString() << " depth " << depth;
      EXPECT_EQ(st.results, ids.size());
    }
  }
}

TEST(ShardedEngineTest, KNearestAtScaleMatchesSingleShard) {
  // Every shard answers every k-NN query, so most of a shard's searches
  // start from a center outside its own z interval. At this scale a search
  // that expanded the empty half of the z space by cell count alone ran
  // for minutes; dropping empty regions bounds it. The gather must still
  // equal one engine holding all the points, for centers on either shard.
  constexpr zorder::GridSpec kWideGrid{2, 16};
  testutil::TempFile tmp_sharded("sharded_knn_two");
  testutil::TempFile tmp_single("sharded_knn_one");
  ShardFiles two_files(tmp_sharded.path(), 2);
  ShardFiles one_files(tmp_single.path(), 1);
  util::ThreadPool pool(2);

  ShardedEngineOptions two;
  two.shards = 2;
  two.truncate = true;
  ShardedEngineOptions one;
  one.shards = 1;
  one.truncate = true;
  ShardedEngine sharded(kWideGrid, two_files.prefix(), two, &pool);
  ShardedEngine single(kWideGrid, one_files.prefix(), one, &pool);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(single.ok());

  DataGenConfig config;
  config.count = 100000;
  config.seed = 2718;
  const auto ops = InsertOps(workload::GeneratePoints(kWideGrid, config));
  ASSERT_TRUE(sharded.Apply(ops));
  ASSERT_TRUE(single.Apply(ops));

  Rng rng(31);
  int centers_on[2] = {0, 0};
  while (centers_on[0] < 8 || centers_on[1] < 8) {
    const GridPoint center({static_cast<uint32_t>(rng.NextBelow(1u << 16)),
                            static_cast<uint32_t>(rng.NextBelow(1u << 16))});
    int& on_shard = centers_on[sharded.ShardOf(sharded.ZOf(center))];
    if (on_shard == 8) continue;
    ++on_shard;
    const auto a = sharded.KNearest(center, 10);
    const auto b = single.KNearest(center, 10);
    ASSERT_EQ(a.size(), 10u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].id, b[j].id) << center.ToString() << " j=" << j;
      EXPECT_TRUE(a[j].distance2 == b[j].distance2)
          << center.ToString() << " j=" << j;
    }
  }
}

TEST(ShardedEngineTest, RoutingPartitionsTheZSpace) {
  testutil::TempFile tmp("sharded_routing");
  ShardFiles files(tmp.path(), 5);
  util::ThreadPool pool(2);
  ShardedEngineOptions options;
  options.shards = 5;  // deliberately not a power of two
  options.truncate = true;
  ShardedEngine engine(kGrid, files.prefix(), options, &pool);
  ASSERT_TRUE(engine.ok());

  // The shard intervals tile [0, 2^16) contiguously...
  EXPECT_EQ(engine.ShardZRange(0).first, 0u);
  EXPECT_EQ(engine.ShardZRange(4).second, 0xFFFFu);
  for (int s = 0; s + 1 < 5; ++s) {
    EXPECT_EQ(engine.ShardZRange(s).second + 1,
              engine.ShardZRange(s + 1).first);
  }
  // ...and ShardOf agrees with the interval ends.
  for (int s = 0; s < 5; ++s) {
    const auto [lo, hi] = engine.ShardZRange(s);
    EXPECT_EQ(engine.ShardOf(lo), s);
    EXPECT_EQ(engine.ShardOf(hi), s);
  }
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t z = rng.NextBelow(0x10000);
    const int s = engine.ShardOf(z);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 5);
    const auto [lo, hi] = engine.ShardZRange(s);
    EXPECT_GE(z, lo);
    EXPECT_LE(z, hi);
  }
}

TEST(ShardedEngineTest, PointsLandOnTheirOwnShard) {
  testutil::TempFile tmp("sharded_placement");
  ShardFiles files(tmp.path(), 4);
  util::ThreadPool pool(4);
  ShardedEngineOptions options;
  options.shards = 4;
  options.truncate = true;
  ShardedEngine engine(kGrid, files.prefix(), options, &pool);
  ASSERT_TRUE(engine.ok());

  const auto points = Points(Distribution::kUniform, 1000, 11);
  ASSERT_TRUE(engine.Apply(InsertOps(points)));

  const auto everything = GridBox::Make2D(0, 255, 0, 255);
  for (int s = 0; s < 4; ++s) {
    const auto [zlo, zhi] = engine.ShardZRange(s);
    const auto ids = engine.shard(s).index().RangeSearch(everything);
    std::set<uint64_t> on_shard(ids.begin(), ids.end());
    for (const auto& r : points) {
      const uint64_t z = engine.ZOf(r.point);
      EXPECT_EQ(on_shard.count(r.id) != 0, z >= zlo && z <= zhi)
          << "id " << r.id << " z " << z << " shard " << s;
    }
  }
}

TEST(ShardedEngineTest, ValidationRejectsWrongDimsAndOutOfGrid) {
  testutil::TempFile tmp("sharded_validate");
  ShardFiles files(tmp.path(), 2);
  util::ThreadPool pool(2);
  ShardedEngineOptions options;
  options.shards = 2;
  options.truncate = true;
  ShardedEngine engine(kGrid, files.prefix(), options, &pool);
  ASSERT_TRUE(engine.ok());

  EXPECT_TRUE(engine.ValidBox(GridBox::Make2D(0, 255, 0, 255)));
  EXPECT_FALSE(engine.ValidBox(GridBox::Make2D(0, 256, 0, 255)));  // off-grid
  const uint32_t coords3[] = {1, 2, 3};
  const zorder::DimRange ranges3[] = {{0, 1}, {0, 1}, {0, 1}};
  EXPECT_FALSE(
      engine.ValidBox(GridBox(std::span<const zorder::DimRange>(ranges3, 3))));
  EXPECT_TRUE(engine.ValidPoint(GridPoint({255, 255})));
  EXPECT_FALSE(engine.ValidPoint(GridPoint({256, 0})));
  EXPECT_FALSE(
      engine.ValidPoint(GridPoint(std::span<const uint32_t>(coords3, 3))));
}

TEST(ShardedEngineTest, KillAndRecoverOneShardKeepsIdentity) {
  testutil::TempFile tmp("sharded_kill");
  testutil::TempFile tmp_ref("sharded_kill_ref");
  ShardFiles files(tmp.path(), 4);
  ShardFiles ref_files(tmp_ref.path(), 1);
  util::ThreadPool pool(4);

  ShardedEngineOptions options;
  options.shards = 4;

  const auto batch1 = InsertOps(Points(Distribution::kClustered, 2000, 99));
  const auto batch2 = InsertOps(Points(Distribution::kUniform, 500, 100));
  const int victim = 2;

  {
    options.truncate = true;
    ShardedEngine engine(kGrid, files.prefix(), options, &pool);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine.Apply(batch1));

    // Arm the victim shard's WAL to tear the second record of the next
    // batch, then apply a batch that touches every shard. Any batch that
    // reaches a shard writes at least two records there (a page image and
    // the commit), so the tear is certain to happen.
    auto& wal = engine.shard(victim).wal();
    wal.SetFaultPlan(
        {.fail_after_records = wal.stats().records + 1, .tear_bytes = 257});
    EXPECT_FALSE(engine.Apply(batch2));
    EXPECT_TRUE(wal.dead());
  }

  // Reopen: per-shard recovery truncates the victim's torn tail.
  options.truncate = false;
  ShardedEngine engine(kGrid, files.prefix(), options, &pool);
  ASSERT_TRUE(engine.ok());

  const auto everything = GridBox::Make2D(0, 255, 0, 255);

  // The victim shard lost exactly the uncommitted batch: its contents are
  // batch1's points routed to it, nothing more, nothing less.
  {
    std::set<uint64_t> expect;
    const auto [zlo, zhi] = engine.ShardZRange(victim);
    for (const auto& op : batch1) {
      const uint64_t z = engine.ZOf(op.point);
      if (z >= zlo && z <= zhi) expect.insert(op.id);
    }
    const auto got_ids = engine.shard(victim).index().RangeSearch(everything);
    EXPECT_EQ(std::set<uint64_t>(got_ids.begin(), got_ids.end()), expect);
  }

  // Every shard holds batch1's share plus either all or none of batch2's
  // share (per-shard batch atomicity).
  for (int s = 0; s < 4; ++s) {
    const auto [zlo, zhi] = engine.ShardZRange(s);
    std::set<uint64_t> base;
    std::set<uint64_t> extra;
    for (const auto& op : batch1) {
      const uint64_t z = engine.ZOf(op.point);
      if (z >= zlo && z <= zhi) base.insert(op.id);
    }
    for (const auto& op : batch2) {
      const uint64_t z = engine.ZOf(op.point);
      if (z >= zlo && z <= zhi) extra.insert(op.id);
    }
    const auto got_ids = engine.shard(s).index().RangeSearch(everything);
    const std::set<uint64_t> got(got_ids.begin(), got_ids.end());
    std::set<uint64_t> with_batch2 = base;
    with_batch2.insert(extra.begin(), extra.end());
    EXPECT_TRUE(got == base || got == with_batch2) << "shard " << s;
  }

  // Scatter-gather over the recovered engine is still bitwise identical to
  // a single engine loaded with exactly the surviving records.
  const auto survivors = engine.RangeSearchRows(everything);
  std::vector<DurableIndex::Op> rebuild;
  rebuild.reserve(survivors.size());
  for (const auto& row : survivors) {
    rebuild.push_back(DurableIndex::Op::Insert(row.point, row.id));
  }
  ShardedEngineOptions ref_options;
  ref_options.shards = 1;
  ref_options.truncate = true;
  ShardedEngine reference(kGrid, ref_files.prefix(), ref_options, &pool);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference.Apply(rebuild));

  Rng rng(13);
  for (const auto& box : workload::MakeQueryBoxes2D(kGrid, 0.05, 1.0, 8, rng)) {
    ExpectIdentical(engine, reference, box);
  }
  ExpectIdentical(engine, reference, everything);

  // The recovered engine accepts new batches.
  EXPECT_TRUE(engine.Apply(InsertOps(Points(Distribution::kDiagonal, 50, 5))));
  EXPECT_TRUE(engine.Checkpoint());
}

TEST(ShardedEngineTest, ReopenAfterCheckpointPreservesContents) {
  testutil::TempFile tmp("sharded_reopen");
  ShardFiles files(tmp.path(), 3);
  util::ThreadPool pool(3);
  ShardedEngineOptions options;
  options.shards = 3;

  const auto points = Points(Distribution::kDiagonal, 1000, 21);
  std::vector<uint64_t> before;
  {
    options.truncate = true;
    ShardedEngine engine(kGrid, files.prefix(), options, &pool);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine.Apply(InsertOps(points)));
    ASSERT_TRUE(engine.Checkpoint());
    before = engine.RangeSearch(GridBox::Make2D(0, 255, 0, 255));
  }
  options.truncate = false;
  ShardedEngine engine(kGrid, files.prefix(), options, &pool);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.RangeSearch(GridBox::Make2D(0, 255, 0, 255)), before);
  EXPECT_EQ(engine.size(), points.size());
}

// Checkpoint is documented safe to overlap with queries and writers.
// The hazard this pins down: a shard's checkpoint drains that shard's
// snapshot pins while CreateView pins shards one by one, so two shards
// draining at once can cycle (view A pins shard 0 and blocks at shard
// 1's drain, view B pins shard 1 and blocks at shard 0's drain, each
// drain waiting on the other view's pin). Checkpoint serializes its
// drains to break the cycle; this storm — view-creating readers, an
// epoch-advancing writer, and two concurrent checkpointers — deadlocks
// (hangs the test) if that ever regresses. The reader churn also
// exercises dropping the last reference to a stale cached snapshot while
// another thread is inside CreateSnapshot.
TEST(ShardedEngineTest, CheckpointsOverlapQueriesAndWritesWithoutDeadlock) {
  testutil::TempFile tmp("sharded_ckpt_overlap");
  ShardFiles files(tmp.path(), 4);
  util::ThreadPool pool(4);
  ShardedEngineOptions options;
  options.shards = 4;
  options.truncate = true;
  ShardedEngine engine(kGrid, files.prefix(), options, &pool);
  ASSERT_TRUE(engine.ok());

  const auto points = Points(Distribution::kUniform, 2000, 99);
  ASSERT_TRUE(engine.Apply(InsertOps(points)));

  const GridBox everything = GridBox::Make2D(0, 255, 0, 255);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writer_batches{0};
  constexpr size_t kBatch = 8;

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&engine, &everything, &stop] {
      while (!stop.load()) {
        const ShardedEngine::View view = engine.CreateView();
        // Each shard snapshot is internally consistent, so a full-space
        // scan over the view must account for exactly its pinned sizes.
        EXPECT_EQ(view.RangeSearch(everything).size(), view.size());
        EXPECT_EQ(view.CountBox(everything), view.size());
      }
    });
  }

  std::thread writer([&engine, &stop, &writer_batches] {
    Rng rng(1234);
    uint64_t next_id = 1'000'000;
    while (!stop.load()) {
      std::vector<DurableIndex::Op> ops;
      for (size_t i = 0; i < kBatch; ++i) {
        const GridPoint p({static_cast<uint32_t>(rng.NextBelow(256)),
                           static_cast<uint32_t>(rng.NextBelow(256))});
        ops.push_back(DurableIndex::Op::Insert(p, next_id++));
      }
      if (!engine.Apply(ops)) {
        ADD_FAILURE() << "concurrent Apply failed";
        break;
      }
      writer_batches.fetch_add(1);
    }
  });

  std::vector<std::thread> checkpointers;
  for (int c = 0; c < 2; ++c) {
    checkpointers.emplace_back([&engine] {
      for (int i = 0; i < 10; ++i) EXPECT_TRUE(engine.Checkpoint());
    });
  }

  for (auto& t : checkpointers) t.join();
  stop.store(true);
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(engine.CountBox(everything),
            points.size() + writer_batches.load() * kBatch);
}

}  // namespace
}  // namespace probe::server
