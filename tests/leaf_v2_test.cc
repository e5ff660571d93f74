// End-to-end coverage of the compressed (v2) leaf format: bulk build on
// the U, C and D distributions (at least 2x the keys per leaf page),
// incremental maintenance, result identity with the v1 format across
// serial, parallel, and WAL-recovered indexes, and mixed-format trees
// produced by re-attaching a v1 image under the compressed config.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "btree/btree.h"
#include "geometry/box.h"
#include "index/durable_index.h"
#include "index/zkd_index.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "temp_file.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workload/querygen.h"

namespace probe::index {
namespace {

using geometry::GridBox;
using zorder::GridSpec;

std::vector<PointRecord> UniformPoints(const GridSpec& grid, size_t count,
                                       uint64_t seed) {
  workload::DataGenConfig data;
  data.count = count;
  data.seed = seed;
  return GeneratePoints(grid, data);
}

std::vector<GridBox> QueryBatch(const GridSpec& grid, int count,
                                uint64_t seed) {
  util::Rng rng(seed);
  return workload::MakeQueryBoxes2D(grid, 0.01, 1.0, count, rng);
}

TEST(LeafV2Test, BulkBuildMatchesV1AcrossSerialAndParallel) {
  const GridSpec grid{2, 10};
  util::ThreadPool pool(3);
  for (const auto dist :
       {workload::Distribution::kUniform, workload::Distribution::kClustered,
        workload::Distribution::kDiagonal}) {
    SCOPED_TRACE(workload::DistributionName(dist));
    workload::DataGenConfig data;
    data.distribution = dist;
    data.count = 20000;
    data.seed = 42;
    const auto points = GeneratePoints(grid, data);

    storage::MemPager v1_pager;
    storage::BufferPool v1_pool(&v1_pager, 1024);
    const auto v1 = ZkdIndex::Build(grid, &v1_pool, points);

    storage::MemPager v2_pager;
    storage::BufferPool v2_pool(&v2_pager, 1024);
    const auto v2 = ZkdIndex::Build(grid, &v2_pool, points,
                                    btree::BTreeConfig::Compressed());

    // The compression claim itself, on every distribution: the same
    // entries on at most half the leaves, i.e. at least 2x the keys per
    // page (the format's acceptance bar is 1.3x; leaf counts are
    // deterministic).
    EXPECT_GE(v1.LeafPartitions().size(), 2 * v2.LeafPartitions().size());

    for (const auto& box : QueryBatch(grid, 24, 43)) {
      QueryStats v1_stats;
      QueryStats v2_stats;
      const auto expected = v1.RangeSearch(box, &v1_stats);
      EXPECT_EQ(v2.RangeSearch(box, &v2_stats), expected);
      EXPECT_EQ(v2.ParallelRangeSearch(box, pool), expected);
      // Fewer leaves means fewer page accesses on the same query.
      EXPECT_LE(v2_stats.leaf_pages, v1_stats.leaf_pages);
    }
  }
}

TEST(LeafV2Test, IncrementalInsertDeleteMatchesBruteForce) {
  const GridSpec grid{2, 8};
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 512);
  btree::BTreeConfig config = btree::BTreeConfig::Compressed();
  config.leaf_capacity = 40;  // force splits and merges
  ZkdIndex index(grid, &pool, config);

  util::Rng rng(4242);
  std::vector<PointRecord> live;
  for (int op = 0; op < 4000; ++op) {
    if (live.empty() || rng.NextBelow(3) != 0) {
      PointRecord rec;
      rec.point = geometry::GridPoint(
          {static_cast<uint32_t>(rng.NextBelow(grid.side())),
           static_cast<uint32_t>(rng.NextBelow(grid.side()))});
      rec.id = static_cast<uint64_t>(op);
      index.Insert(rec.point, rec.id);
      live.push_back(rec);
    } else {
      const size_t victim = rng.NextBelow(live.size());
      ASSERT_TRUE(index.Delete(live[victim].point, live[victim].id));
      live.erase(live.begin() + static_cast<long>(victim));
    }
  }

  for (const auto& box : QueryBatch(grid, 16, 4243)) {
    std::vector<uint64_t> expected;
    for (const auto& rec : live) {
      if (box.ContainsPoint(rec.point)) expected.push_back(rec.id);
    }
    auto got = index.RangeSearch(box);
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(LeafV2Test, WalRecoveredIndexIsIdentical) {
  const GridSpec grid{2, 8};
  const auto points = UniformPoints(grid, 3000, 77);
  testutil::TempFile tmp("leaf_v2_wal");

  DurableIndex::Options options;
  options.config = btree::BTreeConfig::Compressed();
  options.truncate = true;

  std::vector<std::vector<uint64_t>> expected;
  const auto boxes = QueryBatch(grid, 12, 78);
  {
    DurableIndex db(grid, tmp.path(), options);
    ASSERT_TRUE(db.ok());
    std::vector<DurableIndex::Op> batch;
    for (const auto& rec : points) {
      batch.push_back(DurableIndex::Op::Insert(rec.point, rec.id));
    }
    ASSERT_TRUE(db.Apply(batch));
    for (const auto& box : boxes) {
      expected.push_back(db.index().RangeSearch(box));
    }
  }

  // Reopen (recovery path) and compare bitwise: same ids, same order.
  DurableIndex::Options reopen = options;
  reopen.truncate = false;
  DurableIndex db(grid, tmp.path(), reopen);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.index().size(), points.size());
  for (size_t q = 0; q < boxes.size(); ++q) {
    EXPECT_EQ(db.index().RangeSearch(boxes[q]), expected[q]) << q;
  }
}

TEST(LeafV2Test, MixedFormatTreeStaysCorrect) {
  // A v1-built image re-attached under the compressed config: old leaves
  // keep their v1 tag, every page the insert path touches re-encodes as
  // v2, and readers dispatch per page — queries never notice.
  const GridSpec grid{2, 8};
  const auto points = UniformPoints(grid, 4000, 99);
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 512);

  btree::BTree::PersistentState state;
  {
    const auto v1 = ZkdIndex::Build(grid, &pool, points);
    state = v1.DetachState();
  }
  ZkdIndex mixed = ZkdIndex::Attach(grid, &pool, state,
                                    btree::BTreeConfig::Compressed());
  EXPECT_EQ(mixed.size(), points.size());

  std::vector<PointRecord> extra = UniformPoints(grid, 2000, 100);
  for (auto& rec : extra) {
    rec.id += 1000000;
    mixed.Insert(rec.point, rec.id);
  }

  std::vector<PointRecord> all = points;
  all.insert(all.end(), extra.begin(), extra.end());
  for (const auto& box : QueryBatch(grid, 16, 101)) {
    std::vector<uint64_t> expected;
    for (const auto& rec : all) {
      if (box.ContainsPoint(rec.point)) expected.push_back(rec.id);
    }
    auto got = mixed.RangeSearch(box);
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected);
  }
}

}  // namespace
}  // namespace probe::index
