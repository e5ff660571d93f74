// Seeded schedule fuzzing: drive the yield-point harness (util/yieldpoint)
// through thousands of distinct interleavings of the group-commit and
// epoch-publication protocols, checking the invariants that must hold on
// *every* schedule — durability is monotone, an acked commit is durable,
// the on-disk log is a valid strictly-increasing-LSN record sequence, and
// a pinned snapshot always answers a full epoch prefix. Each seed is one
// deterministic schedule (see ScheduleHarness), so a failure reproduces
// by running its seed alone.
//
// The sweep size scales down under sanitizers (TSan in particular runs
// this via the `concurrency`/`fuzz` ctest labels and is ~20x slower);
// PROBE_FUZZ_SEEDS overrides both defaults.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "index/durable_index.h"
#include "storage/wal.h"
#include "temp_file.h"
#include "util/yieldpoint.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PROBE_FUZZ_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#ifndef PROBE_FUZZ_SANITIZED
#define PROBE_FUZZ_SANITIZED 1
#endif
#endif

namespace probe {
namespace {

using geometry::GridBox;
using geometry::GridPoint;
using index::DurableIndex;
using storage::Wal;
using Op = index::DurableIndex::Op;

constexpr zorder::GridSpec kGrid{2, 8};

size_t SweepSize() {
  if (const char* env = std::getenv("PROBE_FUZZ_SEEDS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
#ifdef PROBE_FUZZ_SANITIZED
  return 400;
#else
  return 10000;
#endif
}

// One seed's WAL scenario: three writers race deferred commits through
// group commit under the harness's schedule for `seed`.
void RunWalScenario(uint64_t seed, const std::string& path) {
  util::ScheduleOptions options;
  options.seed = seed;
  options.pause_one_in = 3;
  options.max_wait_steps = 4;
  options.max_wait_micros = 100;  // bounded: a stall never deadlocks
  util::ScheduleHarness harness(options);

  Wal wal(path, /*truncate=*/true);
  ASSERT_TRUE(wal.ok());
  if (seed % 3 == 1) {
    wal.SetGroupCommitDelay(std::chrono::microseconds(50));
  }

  constexpr int kThreads = 3;
  constexpr int kCommitsPerThread = 2;
  const std::vector<uint8_t> meta{0x42};
  std::atomic<uint64_t> max_acked{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, &meta, &max_acked, t] {
      util::ScheduleThreadOrdinal(t);
      for (int i = 0; i < kCommitsPerThread; ++i) {
        const uint64_t before = wal.durable_lsn();
        const uint64_t lsn = wal.AppendCommitDeferred(1, meta);
        ASSERT_NE(lsn, 0u);
        ASSERT_TRUE(wal.GroupCommit(lsn));
        const uint64_t after = wal.durable_lsn();
        // Acked ⊆ durable, and durability never moves backwards.
        ASSERT_GE(after, lsn);
        ASSERT_GE(after, before);
        uint64_t seen = max_acked.load();
        while (seen < lsn && !max_acked.compare_exchange_weak(seen, lsn)) {
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_GE(wal.durable_lsn(), max_acked.load());
  ASSERT_EQ(wal.stats().group_commits,
            static_cast<uint64_t>(kThreads * kCommitsPerThread));

  // The file is a valid log: every record parses, LSNs strictly increase,
  // and every commit made it out.
  storage::WalReader reader(path);
  storage::WalRecord record;
  uint64_t prev = 0;
  size_t count = 0;
  while (reader.Next(&record)) {
    ASSERT_GT(record.lsn, prev);
    prev = record.lsn;
    ++count;
  }
  ASSERT_EQ(count, static_cast<size_t>(kThreads * kCommitsPerThread));

  const util::ScheduleStats stats = harness.stats();
  ASSERT_GT(stats.points, 0u) << "harness saw no yield points — are the "
                                 "SchedulePoint call sites compiled in?";
}

// The epoch scenario's workload: kEpochWriters writers, each landing
// kBatchesPerWriter batches of kPerBatch inserts, ids unique per batch.
constexpr int kEpochWriters = 2;
constexpr int kBatchesPerWriter = 3;
constexpr int kPerBatch = 4;

uint64_t BatchId(int writer, int batch, int i) {
  return static_cast<uint64_t>(writer) * 1000 +
         static_cast<uint64_t>(batch) * 10 + static_cast<uint64_t>(i) + 1;
}

// Scans `snap` and checks its answer is an exact batch prefix: epoch E
// holds E - 1 whole batches, each writer's in that writer's order.
// Returns the sorted ids.
std::vector<uint64_t> ScanBatchPrefix(const DurableIndex::Snapshot& snap) {
  std::vector<uint64_t> ids =
      snap.index().RangeSearch(GridBox::Make2D(0, 255, 0, 255));
  std::sort(ids.begin(), ids.end());
  uint64_t batches = 0;
  for (int w = 0; w < kEpochWriters; ++w) {
    bool prior_present = true;
    for (int b = 0; b < kBatchesPerWriter; ++b) {
      int present = 0;
      for (int i = 0; i < kPerBatch; ++i) {
        present += std::binary_search(ids.begin(), ids.end(), BatchId(w, b, i));
      }
      EXPECT_TRUE(present == 0 || present == kPerBatch)
          << "torn batch " << w << "/" << b;
      if (present == kPerBatch) {
        EXPECT_TRUE(prior_present) << "batch " << w << "/" << b
                                   << " without its predecessor";
        ++batches;
      }
      prior_present = present == kPerBatch;
    }
  }
  EXPECT_EQ(batches, snap.epoch() - 1);
  EXPECT_EQ(ids.size(), batches * kPerBatch);
  return ids;
}

// Every eighth seed also exercises the epoch machinery: two writers land
// batches through Apply while a reader pins snapshots, a checkpointer
// forces the base file three times, and a second reader holds a snapshot
// across each checkpoint. Every snapshot must answer an exact batch prefix
// (all batches are the same size), the held one both before and after
// the checkpoint. Small leaves and a 4-frame snapshot pool make the held
// snapshot re-read pages after the force.
void RunEpochScenario(uint64_t seed, const std::string& path) {
  util::ScheduleOptions options;
  options.seed = seed;
  options.pause_one_in = 3;
  options.max_wait_steps = 4;
  options.max_wait_micros = 100;
  util::ScheduleHarness harness(options);

  DurableIndex::Options db_options;
  db_options.truncate = true;
  db_options.config.leaf_capacity = 4;
  db_options.pool_pages = 32;
  db_options.snapshot_pool_pages = 4;
  DurableIndex db(kGrid, path, db_options);
  ASSERT_TRUE(db.ok());

  // The base file starts out holding the empty tree, which the writers
  // then overwrite under held snapshots.
  ASSERT_TRUE(db.Checkpoint());

  constexpr int kCheckpoints = 3;
  std::atomic<int> writers_left{kEpochWriters};
  std::atomic<int> held{0};
  std::atomic<int> checkpoints{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kEpochWriters; ++w) {
    threads.emplace_back([&db, &writers_left, w] {
      util::ScheduleThreadOrdinal(static_cast<uint32_t>(w));
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        std::vector<Op> batch;
        for (int i = 0; i < kPerBatch; ++i) {
          const uint64_t id = BatchId(w, b, i);
          batch.push_back(Op::Insert(
              GridPoint({static_cast<uint32_t>((id * 29) % 256),
                         static_cast<uint32_t>((id * 71) % 256)}),
              id));
        }
        uint64_t epoch = 0;
        ASSERT_TRUE(db.Apply(batch, &epoch));
        ASSERT_LE(epoch, db.published_epoch());
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&db, &writers_left] {
    util::ScheduleThreadOrdinal(2);
    do {
      DurableIndex::Snapshot snap = db.CreateSnapshot();
      ASSERT_TRUE(snap.ok());
      // Epoch E pins exactly the first E - 1 batches, whatever order the
      // writers' commits landed in.
      ASSERT_EQ(snap.index().size(), (snap.epoch() - 1) * kPerBatch);
    } while (writers_left.load() > 0);
  });
  threads.emplace_back([&db, &held, &checkpoints] {
    util::ScheduleThreadOrdinal(3);
    for (int c = 0; c < kCheckpoints; ++c) {
      // Checkpoint c waits until the holder pinned a snapshot after
      // checkpoint c - 1. EXPECT, not ASSERT: the holder waits on each.
      while (held.load() <= c) std::this_thread::yield();
      EXPECT_TRUE(db.Checkpoint());
      checkpoints.fetch_add(1);
    }
  });
  threads.emplace_back([&db, &held, &checkpoints] {
    util::ScheduleThreadOrdinal(4);
    for (;;) {
      const DurableIndex::Snapshot snap = db.CreateSnapshot();
      const std::vector<uint64_t> before = ScanBatchPrefix(snap);
      const int seen = checkpoints.load();
      if (seen == kCheckpoints) break;
      held.store(seen + 1);
      while (checkpoints.load() == seen) std::this_thread::yield();
      EXPECT_EQ(ScanBatchPrefix(snap), before);
    }
  });
  for (auto& t : threads) t.join();

  ASSERT_EQ(db.published_epoch(),
            1u + static_cast<uint64_t>(kEpochWriters * kBatchesPerWriter));
  ASSERT_EQ(db.published_size(),
            static_cast<uint64_t>(kEpochWriters * kBatchesPerWriter) *
                kPerBatch);
  ASSERT_TRUE(db.index().tree().CheckInvariants());
}

TEST(ScheduleFuzzTest, SeededInterleavingSweep) {
  const size_t seeds = SweepSize();
  testutil::TempFile wal_file("schedule_fuzz_wal");
  testutil::TempFile db_file("schedule_fuzz_db");
  for (size_t seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    RunWalScenario(seed, wal_file.path());
    if (seed % 8 == 0) {
      RunEpochScenario(seed, db_file.path());
    }
    if (::testing::Test::HasFailure()) {
      break;  // one seed's trace is the repro; don't drown it in 10k more
    }
  }
}

}  // namespace
}  // namespace probe
