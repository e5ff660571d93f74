// End-to-end coverage of the compressed leaf format: bulk build on the
// U, C and D distributions (at least 2x the keys of a 17-byte fixed-width
// entry per leaf page), incremental maintenance, and result identity with
// a brute-force scan across serial, parallel, and WAL-recovered indexes.

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

std::vector<uint64_t> BruteForce(const std::vector<PointRecord>& points,
                                 const GridBox& box) {
  std::vector<uint64_t> ids;
  for (const auto& rec : points) {
    if (box.ContainsPoint(rec.point)) ids.push_back(rec.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(LeafV2Test, BulkBuildMatchesBruteForceAcrossSerialAndParallel) {
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

    storage::MemPager pager;
    storage::BufferPool buffer_pool(&pager, 1024);
    const auto built = ZkdIndex::Build(grid, &buffer_pool, points);

    // The compression claim itself, on every distribution: at least twice
    // the 240 keys a page of 17-byte fixed-width entries holds (the
    // format's acceptance bar is 1.3x; leaf counts are deterministic).
    constexpr size_t kFixedWidthKeysPerPage = 240;
    EXPECT_GE(points.size(),
              2 * kFixedWidthKeysPerPage * built.LeafPartitions().size());

    for (const auto& box : QueryBatch(grid, 24, 43)) {
      const auto expected = BruteForce(points, box);
      auto serial = built.RangeSearch(box);
      auto parallel = built.ParallelRangeSearch(box, pool);
      EXPECT_EQ(parallel, serial);
      std::sort(serial.begin(), serial.end());
      EXPECT_EQ(serial, expected);
    }
  }
}

TEST(LeafV2Test, IncrementalInsertDeleteMatchesBruteForce) {
  const GridSpec grid{2, 8};
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 512);
  btree::BTreeConfig config;
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

}  // namespace
}  // namespace probe::index
