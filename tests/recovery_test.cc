// Recovery unit tests: redo of committed batches, discard of uncommitted
// tails, idempotent double-recovery, checkpoint truncation, torn-page
// repair, and the full DurableIndex reopen path (including planning
// queries against a recovered index).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/cost_model.h"
#include "index/durable_index.h"
#include "query/executor.h"
#include "query/planner.h"
#include "storage/buffer_pool.h"
#include "storage/fault_pager.h"
#include "storage/file_pager.h"
#include "storage/recovery.h"
#include "storage/txn_pager.h"
#include "storage/wal.h"
#include "temp_file.h"
#include "util/rng.h"

namespace probe {
namespace {

using geometry::GridBox;
using geometry::GridPoint;
using index::DurableIndex;
using storage::FilePager;
using storage::Page;
using storage::PageId;
using storage::Recover;
using storage::TxnPager;
using storage::Wal;

const std::vector<uint8_t> kMeta = {0xDE, 0xAD, 0xBE, 0xEF};

// Writes `value` at offset 0 of page `id` through a pool over `txn`.
void WritePage(storage::BufferPool* pool, PageId id, uint64_t value) {
  storage::PageRef ref = pool->Fetch(id);
  ref.page().Write<uint64_t>(0, value);
  ref.MarkDirty();
}

uint64_t ReadPage(FilePager* pager, PageId id) {
  Page page;
  pager->Read(id, &page);
  return page.Read<uint64_t>(0);
}

TEST(RecoveryTest, MissingLogMeansNothingToDo) {
  testutil::TempFile tmp("rec_nolog");
  FilePager base(tmp.path(), /*truncate=*/true);
  const auto result = Recover(tmp.wal_path(), &base);
  EXPECT_FALSE(result.log_found);
  EXPECT_EQ(result.records_redone, 0u);
}

TEST(RecoveryTest, CommittedBatchIsReplayedIntoAnEmptyBase) {
  testutil::TempFile tmp("rec_replay");
  {
    FilePager base(tmp.path(), /*truncate=*/true);
    Wal wal(tmp.wal_path(), /*truncate=*/true);
    TxnPager txn(&base, &wal);
    storage::BufferPool pool(&txn, 8);
    for (int i = 0; i < 4; ++i) {
      PageId id;
      storage::PageRef ref = pool.New(&id);
      ref.page().Write<uint64_t>(0, 100 + static_cast<uint64_t>(i));
      ref.MarkDirty();
    }
    pool.FlushAll();
    ASSERT_TRUE(txn.Commit(kMeta));
    // No checkpoint: the base file never saw a byte (no-steal).
    EXPECT_EQ(base.page_count(), 0u);
  }
  FilePager base(tmp.path());
  const auto result = Recover(tmp.wal_path(), &base);
  EXPECT_TRUE(result.log_found);
  EXPECT_EQ(result.records_redone, 4u);
  EXPECT_EQ(result.meta, kMeta);
  ASSERT_EQ(base.page_count(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ReadPage(&base, static_cast<PageId>(i)),
              100 + static_cast<uint64_t>(i));
  }
}

TEST(RecoveryTest, UncommittedTailIsDiscardedAndTruncated) {
  testutil::TempFile tmp("rec_tail");
  {
    FilePager base(tmp.path(), /*truncate=*/true);
    Wal wal(tmp.wal_path(), /*truncate=*/true);
    TxnPager txn(&base, &wal);
    storage::BufferPool pool(&txn, 8);
    PageId id;
    storage::PageRef ref = pool.New(&id);
    ref.page().Write<uint64_t>(0, 41);
    ref.MarkDirty();
    ref.Release();
    pool.FlushAll();
    ASSERT_TRUE(txn.Commit(kMeta));

    // A second batch updates the page and allocates another — but never
    // commits: the crash interrupts it.
    WritePage(&pool, id, 42);
    PageId id2;
    storage::PageRef ref2 = pool.New(&id2);
    ref2.page().Write<uint64_t>(0, 77);
    ref2.MarkDirty();
    ref2.Release();
    pool.FlushAll();
  }
  FilePager base(tmp.path());
  const auto result = Recover(tmp.wal_path(), &base);
  // Only the committed batch survives; the tail was cut off the log.
  EXPECT_EQ(result.records_redone, 1u);
  EXPECT_GT(result.bytes_truncated, 0u);
  ASSERT_EQ(base.page_count(), 1u);
  EXPECT_EQ(ReadPage(&base, 0), 41u);
}

TEST(RecoveryTest, DoubleRecoveryIsIdempotent) {
  testutil::TempFile tmp("rec_idem");
  {
    FilePager base(tmp.path(), /*truncate=*/true);
    Wal wal(tmp.wal_path(), /*truncate=*/true);
    TxnPager txn(&base, &wal);
    storage::BufferPool pool(&txn, 8);
    PageId id;
    storage::PageRef ref = pool.New(&id);
    ref.page().Write<uint64_t>(0, 7);
    ref.MarkDirty();
    ref.Release();
    pool.FlushAll();
    ASSERT_TRUE(txn.Commit(kMeta));
    WritePage(&pool, id, 8);  // uncommitted
    pool.FlushAll();
  }
  FilePager base(tmp.path());
  const auto first = Recover(tmp.wal_path(), &base);
  EXPECT_EQ(first.records_redone, 1u);
  EXPECT_GT(first.bytes_truncated, 0u);
  const uint64_t lsn = first.boundary_lsn;

  // Recovering again — as a crash *during* recovery would force — finds
  // the same boundary, redoes the same image onto identical bytes, and
  // has nothing left to truncate.
  const auto second = Recover(tmp.wal_path(), &base);
  EXPECT_EQ(second.boundary_lsn, lsn);
  EXPECT_EQ(second.records_redone, 1u);
  EXPECT_EQ(second.bytes_truncated, 0u);
  EXPECT_EQ(second.meta, first.meta);
  EXPECT_EQ(base.page_count(), 1u);
  EXPECT_EQ(ReadPage(&base, 0), 7u);
}

TEST(RecoveryTest, CheckpointForcesBaseAndResetsLog) {
  testutil::TempFile tmp("rec_ckpt");
  {
    FilePager base(tmp.path(), /*truncate=*/true);
    Wal wal(tmp.wal_path(), /*truncate=*/true);
    TxnPager txn(&base, &wal);
    storage::BufferPool pool(&txn, 8);
    for (int i = 0; i < 6; ++i) {
      PageId id;
      storage::PageRef ref = pool.New(&id);
      ref.page().Write<uint64_t>(0, static_cast<uint64_t>(i));
      ref.MarkDirty();
    }
    pool.FlushAll();
    ASSERT_TRUE(txn.Commit(kMeta));
    const uint64_t log_before = wal.size_bytes();
    ASSERT_TRUE(txn.Checkpoint(kMeta));
    EXPECT_LT(wal.size_bytes(), log_before);
    EXPECT_EQ(txn.pending_pages(), 0u);
    EXPECT_EQ(base.page_count(), 6u);  // forced
  }
  FilePager base(tmp.path());
  const auto result = Recover(tmp.wal_path(), &base);
  // The checkpoint is the boundary; there are no images to redo.
  EXPECT_TRUE(result.boundary_was_checkpoint);
  EXPECT_EQ(result.records_redone, 0u);
  EXPECT_EQ(result.meta, kMeta);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(ReadPage(&base, static_cast<PageId>(i)),
              static_cast<uint64_t>(i));
  }
}

TEST(RecoveryTest, CheckpointRefusesMidBatch) {
  testutil::TempFile tmp("rec_ckpt_midbatch");
  FilePager base(tmp.path(), /*truncate=*/true);
  Wal wal(tmp.wal_path(), /*truncate=*/true);
  TxnPager txn(&base, &wal);
  Page page;
  const PageId id = txn.Allocate();
  txn.Write(id, page);
  // Forcing uncommitted images would violate no-steal.
  EXPECT_FALSE(txn.Checkpoint(kMeta));
  ASSERT_TRUE(txn.Commit(kMeta));
  EXPECT_TRUE(txn.Checkpoint(kMeta));
}

TEST(RecoveryTest, TornBasePageFromCrashedCheckpointIsRepaired) {
  testutil::TempFile tmp("rec_torn_base");
  {
    FilePager base(tmp.path(), /*truncate=*/true);
    storage::FaultInjectingPager faulty(&base);
    Wal wal(tmp.wal_path(), /*truncate=*/true);
    TxnPager txn(&faulty, &wal);
    storage::BufferPool pool(&txn, 8);
    for (int i = 0; i < 4; ++i) {
      PageId id;
      storage::PageRef ref = pool.New(&id);
      ref.page().Write<uint64_t>(0, 900 + static_cast<uint64_t>(i));
      ref.MarkDirty();
    }
    pool.FlushAll();
    ASSERT_TRUE(txn.Commit(kMeta));

    // The third base write of the checkpoint's force lands torn, then the
    // disk dies: the checkpoint record is never written.
    faulty.SetFaultPlan({.kind = storage::FaultPlan::Kind::kShortWrite,
                         .fail_after_writes = 2,
                         .seed = 0xC0FFEE});
    EXPECT_FALSE(txn.Checkpoint(kMeta));
    EXPECT_TRUE(faulty.crashed());
  }
  FilePager base(tmp.path());
  const auto result = Recover(tmp.wal_path(), &base);
  // The commit (not a checkpoint) is the boundary; redo overwrites the
  // torn page with its logged after-image.
  EXPECT_FALSE(result.boundary_was_checkpoint);
  EXPECT_EQ(result.records_redone, 4u);
  ASSERT_EQ(base.page_count(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ReadPage(&base, static_cast<PageId>(i)),
              900 + static_cast<uint64_t>(i));
  }
}

// ------------------------------------------------------------------ the
// full stack: DurableIndex crash/reopen.

std::vector<DurableIndex::Op> InsertBatch(util::Rng* rng, uint32_t side,
                                          uint64_t id_base, int count) {
  std::vector<DurableIndex::Op> ops;
  for (int i = 0; i < count; ++i) {
    ops.push_back(DurableIndex::Op::Insert(
        GridPoint({static_cast<uint32_t>(rng->NextBelow(side)),
                   static_cast<uint32_t>(rng->NextBelow(side))}),
        id_base + static_cast<uint64_t>(i)));
  }
  return ops;
}

TEST(DurableIndexTest, CleanReopenSeesEveryCommittedBatch) {
  testutil::TempFile tmp("durable_reopen");
  const zorder::GridSpec grid{2, 8};
  DurableIndex::Options options;
  options.config.leaf_capacity = 10;
  options.pool_pages = 16;
  util::Rng rng(9100);
  std::vector<index::PointRecord> all;

  {
    options.truncate = true;
    DurableIndex db(grid, tmp.path(), options);
    ASSERT_TRUE(db.ok());
    for (int batch = 0; batch < 10; ++batch) {
      auto ops = InsertBatch(&rng, 256, static_cast<uint64_t>(batch) * 100, 40);
      ASSERT_TRUE(db.Apply(ops));
      for (const auto& op : ops) all.push_back({op.point, op.id});
      if (batch == 4) {
        ASSERT_TRUE(db.Checkpoint());
      }
    }
    // No shutdown courtesy of any kind — the process "dies" here.
  }

  options.truncate = false;
  DurableIndex db(grid, tmp.path(), options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.index().size(), all.size());
  EXPECT_TRUE(db.index().tree().CheckInvariants());

  const auto box = GridBox::Make2D(30, 200, 50, 220);
  auto got = db.index().RangeSearch(box);
  std::sort(got.begin(), got.end());
  std::vector<uint64_t> expect;
  for (const auto& r : all) {
    if (box.ContainsPoint(r.point)) expect.push_back(r.id);
  }
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);
}

TEST(DurableIndexTest, CrashMidBatchLosesExactlyTheUncommittedBatch) {
  testutil::TempFile tmp("durable_midbatch");
  const zorder::GridSpec grid{2, 8};
  DurableIndex::Options options;
  options.config.leaf_capacity = 10;
  options.pool_pages = 8;
  util::Rng rng(9200);
  std::vector<index::PointRecord> committed;

  {
    options.truncate = true;
    DurableIndex db(grid, tmp.path(), options);
    ASSERT_TRUE(db.ok());
    auto ops = InsertBatch(&rng, 256, 0, 50);
    ASSERT_TRUE(db.Apply(ops));
    for (const auto& op : ops) committed.push_back({op.point, op.id});

    // Arm the log to die a few records into the next batch's flush.
    db.wal().SetFaultPlan({.fail_after_records = db.wal().stats().records + 3,
                           .tear_bytes = 513});
    auto doomed = InsertBatch(&rng, 256, 1000, 50);
    EXPECT_FALSE(db.Apply(doomed));
  }

  options.truncate = false;
  DurableIndex db(grid, tmp.path(), options);
  ASSERT_TRUE(db.ok());
  EXPECT_GT(db.recovery().bytes_truncated, 0u);
  EXPECT_EQ(db.index().size(), committed.size());
  EXPECT_TRUE(db.index().tree().CheckInvariants());

  const auto everything = GridBox::Make2D(0, 255, 0, 255);
  auto got = db.index().RangeSearch(everything);
  std::sort(got.begin(), got.end());
  std::vector<uint64_t> expect;
  for (const auto& r : committed) expect.push_back(r.id);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);

  // The recovered database accepts new batches.
  EXPECT_TRUE(db.Insert(GridPoint({1, 2}), 424242));
  EXPECT_TRUE(db.Delete(GridPoint({1, 2}), 424242));
}

TEST(DurableIndexTest, PlansRunAgainstARecoveredIndex) {
  testutil::TempFile tmp("durable_planner");
  const zorder::GridSpec grid{2, 8};
  DurableIndex::Options options;
  options.config.leaf_capacity = 10;
  util::Rng rng(9300);
  std::vector<index::PointRecord> all;

  {
    options.truncate = true;
    DurableIndex db(grid, tmp.path(), options);
    ASSERT_TRUE(db.ok());
    for (int batch = 0; batch < 5; ++batch) {
      auto ops = InsertBatch(&rng, 256, static_cast<uint64_t>(batch) * 1000,
                             100);
      ASSERT_TRUE(db.Apply(ops));
      for (const auto& op : ops) all.push_back({op.point, op.id});
    }
  }

  options.truncate = false;
  DurableIndex db(grid, tmp.path(), options);
  ASSERT_TRUE(db.ok());

  // The planner sees a recovered index exactly like a built one.
  const auto model = index::CostModel::FromIndex(db.index());
  query::PlannerContext ctx;
  ctx.index = &db.index();
  ctx.cost_model = &model;
  const auto box = GridBox::Make2D(40, 180, 40, 180);
  query::PlannedQuery planned = query::Plan(query::Query::Range(box), ctx);
  const auto ids = query::ExecuteIds(*planned.root);
  EXPECT_EQ(ids, db.index().RangeSearch(box)) << planned.summary;
  EXPECT_FALSE(ids.empty());
}

TEST(DurableIndexTest, RefusesAForeignDatabase) {
  testutil::TempFile tmp("durable_foreign");
  {
    // A bare FilePager database with pages but no WAL metadata.
    FilePager base(tmp.path(), /*truncate=*/true);
    base.Allocate();
  }
  const zorder::GridSpec grid{2, 8};
  DurableIndex db(grid, tmp.path());
  EXPECT_FALSE(db.ok());
}

TEST(DurableIndexTest, RefusesAMismatchedGrid) {
  testutil::TempFile tmp("durable_grid");
  {
    DurableIndex::Options options;
    options.truncate = true;
    DurableIndex db(zorder::GridSpec{2, 8}, tmp.path(), options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.Insert(GridPoint({3, 4}), 1));
  }
  DurableIndex db(zorder::GridSpec{2, 6}, tmp.path());
  EXPECT_FALSE(db.ok());
}

TEST(DurableIndexTest, RefusesAnOlderFormatStamp) {
  // A "PZK2" file may hold fixed-width leaves (kind 0) or entries at the
  // old offset; attaching it would misread every leaf, so it must fail.
  testutil::TempFile tmp("durable_pzk2");
  const zorder::GridSpec grid{2, 8};
  {
    DurableIndex::Options options;
    options.truncate = true;
    DurableIndex db(grid, tmp.path(), options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.Insert(GridPoint({3, 4}), 1));
  }
  {
    // Re-commit the last state under the older magic.
    FilePager base(tmp.path(), /*truncate=*/false);
    const auto recovered = Recover(tmp.wal_path(), &base);
    ASSERT_FALSE(recovered.meta.empty());
    std::vector<uint8_t> meta = recovered.meta;
    const uint8_t kOldMagic[4] = {'P', 'Z', 'K', '2'};
    std::copy(kOldMagic, kOldMagic + 4, meta.begin());
    Wal wal(tmp.wal_path());
    ASSERT_TRUE(wal.ok());
    ASSERT_NE(wal.AppendCommit(recovered.page_count, meta), 0u);
  }
  DurableIndex db(grid, tmp.path());
  EXPECT_FALSE(db.ok());
}

}  // namespace
}  // namespace probe
