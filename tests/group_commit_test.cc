// Group commit and epoch snapshots, the deterministic half of the
// concurrency tier: WAL commit grouping (one fsync acks many commits),
// the acked ⊆ durable invariant under a multi-threaded commit storm,
// concurrent DurableIndex::Apply equivalence with serial epoch-order
// replay, concurrent Applies sharing fsyncs, snapshot isolation from
// later commits, checkpoint draining, and the schedule harness's
// same-seed determinism. The TSan build runs this
// via the `concurrency` ctest label; the seeded interleaving sweep lives
// in schedule_fuzz_test.cc.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "index/durable_index.h"
#include "storage/wal.h"
#include "temp_file.h"
#include "util/mutex.h"
#include "util/yieldpoint.h"

namespace probe {
namespace {

using geometry::GridBox;
using geometry::GridPoint;
using index::DurableIndex;
using storage::Wal;
using Op = index::DurableIndex::Op;

constexpr zorder::GridSpec kGrid{2, 8};
constexpr uint32_t kSide = 256;

std::vector<uint8_t> Meta(uint8_t tag) { return std::vector<uint8_t>{tag}; }

// ------------------------------------------------------------ WAL level

TEST(GroupCommitTest, DeferredCommitsShareOneSync) {
  testutil::TempFile tmp("group_commit_share");
  Wal wal(tmp.path(), /*truncate=*/true);
  ASSERT_TRUE(wal.ok());

  const auto meta = Meta(1);
  const uint64_t c1 = wal.AppendCommitDeferred(1, meta);
  const uint64_t c2 = wal.AppendCommitDeferred(2, meta);
  const uint64_t c3 = wal.AppendCommitDeferred(3, meta);
  ASSERT_NE(c1, 0u);
  ASSERT_LT(c1, c2);
  ASSERT_LT(c2, c3);
  EXPECT_EQ(wal.stats().syncs, 0u) << "deferred commits must not fsync";
  EXPECT_EQ(wal.durable_lsn(), 0u);

  // Waiting on the *last* commit elects this thread leader once; the one
  // fsync covers all three queued commits.
  ASSERT_TRUE(wal.GroupCommit(c3));
  storage::WalStats stats = wal.stats();
  EXPECT_EQ(stats.syncs, 1u);
  EXPECT_EQ(stats.group_syncs, 1u);
  EXPECT_EQ(stats.group_commits, 3u);
  EXPECT_EQ(stats.max_group, 3u);
  EXPECT_EQ(wal.durable_lsn(), c3);

  // The earlier commits are already durable: no further fsync.
  EXPECT_TRUE(wal.GroupCommit(c1));
  EXPECT_TRUE(wal.GroupCommit(c2));
  EXPECT_EQ(wal.stats().syncs, 1u);
}

TEST(GroupCommitTest, ExplicitSyncCutsLeaderLingerShort) {
  testutil::TempFile tmp("group_commit_linger_cut");
  Wal wal(tmp.path(), /*truncate=*/true);
  ASSERT_TRUE(wal.ok());
  // A linger far longer than the test budget: if an explicit Sync had to
  // sit it out, the elapsed-time bound below would trip.
  wal.SetGroupCommitDelay(std::chrono::seconds(30));

  std::thread committer([&wal] {
    const uint64_t lsn = wal.AppendCommitDeferred(1, Meta(1));
    ASSERT_NE(lsn, 0u);
    EXPECT_TRUE(wal.GroupCommit(lsn));  // leads, and would linger 30s
  });
  // Wait for the commit record to exist so Sync has something to cover
  // (whether the committer has claimed leadership yet or not — both
  // orders must come in far under the linger).
  while (wal.next_lsn() < 2) std::this_thread::yield();

  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(wal.Sync());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(wal.durable_lsn(), 1u);
  EXPECT_LT(elapsed, std::chrono::seconds(10))
      << "Sync waited out the group-commit linger";
  committer.join();
}

TEST(GroupCommitTest, CommitStormKeepsAckedWithinDurable) {
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 32;
  testutil::TempFile tmp("group_commit_storm");
  Wal wal(tmp.path(), /*truncate=*/true);
  ASSERT_TRUE(wal.ok());
  wal.SetGroupCommitDelay(std::chrono::microseconds(200));

  std::vector<std::vector<uint64_t>> acked(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, &acked, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        const uint64_t lsn =
            wal.AppendCommitDeferred(static_cast<uint32_t>(i), Meta(1));
        ASSERT_NE(lsn, 0u);
        ASSERT_TRUE(wal.GroupCommit(lsn));
        // The moment GroupCommit returns, durability must already cover
        // this commit — the acked ⊆ durable invariant.
        EXPECT_GE(wal.durable_lsn(), lsn);
        acked[static_cast<size_t>(t)].push_back(lsn);
      }
    });
  }
  for (auto& t : threads) t.join();

  const storage::WalStats stats = wal.stats();
  EXPECT_EQ(stats.group_commits,
            static_cast<uint64_t>(kThreads * kCommitsPerThread));
  EXPECT_GE(stats.group_syncs, 1u);
  EXPECT_LE(stats.group_syncs,
            static_cast<uint64_t>(kThreads * kCommitsPerThread));
  EXPECT_GE(stats.max_group, 1u);

  // Every acked LSN is durable and unique; the file holds exactly the
  // records, in strictly increasing LSN order (buffer order == LSN order).
  std::vector<uint64_t> all;
  for (const auto& per_thread : acked) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_LE(all.back(), wal.durable_lsn());

  storage::WalReader reader(tmp.path());
  storage::WalRecord record;
  uint64_t prev = 0;
  size_t count = 0;
  while (reader.Next(&record)) {
    EXPECT_GT(record.lsn, prev);
    prev = record.lsn;
    ++count;
  }
  EXPECT_EQ(count, all.size());
}

// ---------------------------------------------------- DurableIndex level

// Four writers land interleaved batches; the result must equal a serial
// replay of the batches in their *epoch* order — the order the engine
// itself assigned — and survive reopen with the same epoch.
TEST(GroupCommitTest, ConcurrentAppliesMatchSerialReplayByEpoch) {
  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 8;
  constexpr int kInsertsPerBatch = 4;
  testutil::TempFile tmp("group_commit_apply");

  util::Mutex log_mutex;
  std::map<uint64_t, std::vector<Op>> commit_log;  // epoch -> batch

  {
    DurableIndex::Options options;
    options.truncate = true;
    DurableIndex db(kGrid, tmp.path(), options);
    ASSERT_TRUE(db.ok());
    db.wal().SetGroupCommitDelay(std::chrono::microseconds(100));

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&db, &log_mutex, &commit_log, t] {
        for (int b = 0; b < kBatchesPerThread; ++b) {
          std::vector<Op> batch;
          for (int i = 0; i < kInsertsPerBatch; ++i) {
            const uint64_t id = static_cast<uint64_t>(t) * 1000 +
                                static_cast<uint64_t>(b) * 10 +
                                static_cast<uint64_t>(i) + 1;
            const GridPoint p({static_cast<uint32_t>((id * 37) % kSide),
                               static_cast<uint32_t>((id * 91) % kSide)});
            batch.push_back(Op::Insert(p, id));
          }
          uint64_t epoch = 0;
          ASSERT_TRUE(db.Apply(batch, &epoch));
          util::MutexLock lock(&log_mutex);
          EXPECT_TRUE(commit_log.emplace(epoch, std::move(batch)).second)
              << "two batches claimed epoch " << epoch;
        }
      });
    }
    for (auto& t : threads) t.join();

    // Epochs are dense: 1 is the fresh-database empty commit, then one per
    // batch with no gaps and no reuse.
    ASSERT_EQ(commit_log.size(),
              static_cast<size_t>(kThreads * kBatchesPerThread));
    uint64_t expect = 2;
    for (const auto& [epoch, batch] : commit_log) {
      EXPECT_EQ(epoch, expect++);
    }
    EXPECT_EQ(db.published_epoch(), expect - 1);

    // Serial replay in epoch order == the concurrent result.
    std::vector<uint64_t> oracle;
    for (const auto& [epoch, batch] : commit_log) {
      for (const Op& op : batch) oracle.push_back(op.id);
    }
    std::sort(oracle.begin(), oracle.end());
    auto got =
        db.index().RangeSearch(GridBox::Make2D(0, kSide - 1, 0, kSide - 1));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, oracle);
    EXPECT_TRUE(db.index().tree().CheckInvariants());
  }

  // Reopen: recovery lands on the same state and resumes the epochs.
  DurableIndex db(kGrid, tmp.path(), DurableIndex::Options());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.published_epoch(),
            1u + static_cast<uint64_t>(kThreads * kBatchesPerThread));
  EXPECT_EQ(db.index().size(),
            static_cast<uint64_t>(kThreads * kBatchesPerThread *
                                  kInsertsPerBatch));
}

// Concurrent writers on one DurableIndex share fsyncs: while the first
// leader lingers, the other writers' commits queue behind it, so one
// fsync acks several commits (the mean group size exceeds one).
TEST(GroupCommitTest, ConcurrentAppliesShareFsyncs) {
  constexpr int kThreads = 4;
  testutil::TempFile tmp("group_commit_share_apply");
  DurableIndex::Options options;
  options.truncate = true;
  DurableIndex db(kGrid, tmp.path(), options);
  ASSERT_TRUE(db.ok());
  // Far longer than the writers take to start and append, and bounded:
  // the leader's wait ends at the deadline whatever happens.
  db.wal().SetGroupCommitDelay(std::chrono::milliseconds(200));
  const storage::WalStats before = db.wal().stats();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      std::vector<Op> batch;
      for (uint32_t i = 0; i < 4; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * 10 + i + 1;
        const GridPoint p({i, static_cast<uint32_t>(t)});
        batch.push_back(Op::Insert(p, id));
      }
      EXPECT_TRUE(db.Apply(batch));
    });
  }
  for (auto& t : threads) t.join();

  const storage::WalStats after = db.wal().stats();
  const uint64_t commits = after.group_commits - before.group_commits;
  const uint64_t syncs = after.syncs - before.syncs;
  EXPECT_EQ(commits, static_cast<uint64_t>(kThreads));
  EXPECT_LT(syncs, commits) << "concurrent commits did not group";
  EXPECT_EQ(db.index().size(), static_cast<uint64_t>(kThreads * 4));
}

TEST(GroupCommitTest, SnapshotIsIsolatedFromLaterCommits) {
  testutil::TempFile tmp("group_commit_snapshot");
  DurableIndex::Options options;
  options.truncate = true;
  DurableIndex db(kGrid, tmp.path(), options);
  ASSERT_TRUE(db.ok());

  std::vector<Op> first;
  for (uint64_t id = 1; id <= 10; ++id) {
    first.push_back(Op::Insert(
        GridPoint({static_cast<uint32_t>(id), static_cast<uint32_t>(id)}),
        id));
  }
  uint64_t first_epoch = 0;
  ASSERT_TRUE(db.Apply(first, &first_epoch));

  DurableIndex::Snapshot snap = db.CreateSnapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.epoch(), first_epoch);

  std::vector<Op> second;
  for (uint64_t id = 11; id <= 20; ++id) {
    second.push_back(Op::Insert(
        GridPoint({static_cast<uint32_t>(id), static_cast<uint32_t>(id)}),
        id));
  }
  ASSERT_TRUE(db.Apply(second));

  // The snapshot still answers as of its epoch; the live index (and a
  // fresh snapshot) see both batches.
  const GridBox all = GridBox::Make2D(0, kSide - 1, 0, kSide - 1);
  EXPECT_EQ(snap.index().RangeSearch(all).size(), 10u);
  EXPECT_EQ(snap.index().size(), 10u);
  EXPECT_EQ(db.index().RangeSearch(all).size(), 20u);
  DurableIndex::Snapshot fresh = db.CreateSnapshot();
  EXPECT_EQ(fresh.epoch(), first_epoch + 1);
  EXPECT_EQ(fresh.index().RangeSearch(all).size(), 20u);
  EXPECT_EQ(db.published_size(), 20u);
}

TEST(GroupCommitTest, CheckpointDrainsSnapshotPins) {
  testutil::TempFile tmp("group_commit_drain");
  DurableIndex::Options options;
  options.truncate = true;
  DurableIndex db(kGrid, tmp.path(), options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.Insert(GridPoint({3, 4}), 42));

  DurableIndex::Snapshot snap = db.CreateSnapshot();
  ASSERT_TRUE(snap.ok());

  std::atomic<bool> done{false};
  std::thread checkpointer([&db, &done] {
    EXPECT_TRUE(db.Checkpoint());
    done.store(true);
  });
  // The checkpoint CANNOT complete while the pin is held (it would drop
  // the page versions the snapshot reads), so this wait is not a timing
  // assumption — only the release below lets it finish.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load());
  // The pinned view still answers mid-drain? No — new snapshots queue
  // behind the drain, but the existing pin keeps its versions; release it.
  EXPECT_EQ(snap.index().size(), 1u);
  snap = DurableIndex::Snapshot();  // release the pin
  checkpointer.join();
  EXPECT_TRUE(done.load());

  // Post-checkpoint snapshots read the forced base pages.
  DurableIndex::Snapshot after = db.CreateSnapshot();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.index().size(), 1u);
  EXPECT_EQ(db.txn_pager().pending_pages(), 0u);
}

// ------------------------------------------------- schedule harness unit

TEST(ScheduleHarnessTest, SameSeedSameDecisions) {
  auto run = [](uint64_t seed) {
    util::ScheduleOptions options;
    options.seed = seed;
    options.max_wait_micros = 100;  // keep the run fast
    util::ScheduleHarness harness(options);
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < 3; ++t) {
      threads.emplace_back([t] {
        util::ScheduleThreadOrdinal(t);
        for (int i = 0; i < 200; ++i) {
          util::SchedulePoint("test.a");
          util::SchedulePoint("test.b");
        }
      });
    }
    for (auto& t : threads) t.join();
    return harness.stats();
  };

  const util::ScheduleStats a = run(42);
  const util::ScheduleStats b = run(42);
  EXPECT_EQ(a.points, 3u * 200u * 2u);
  EXPECT_EQ(b.points, a.points);
  // The pause *decision* is a pure function of (seed, ordinal, name,
  // visit) — identical across runs. (Timeouts depend on the OS scheduler
  // and are deliberately not compared.)
  EXPECT_EQ(a.pauses, b.pauses);
  EXPECT_GT(a.pauses, 0u) << "density 1/4 over 1200 passages must pause";
}

TEST(ScheduleHarnessTest, UninstalledPointsAreFree) {
  // No harness: the point must be a no-op (and must not crash).
  util::SchedulePoint("test.noharness");
}

}  // namespace
}  // namespace probe
