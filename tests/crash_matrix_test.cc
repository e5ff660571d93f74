// The crash matrix: a seeded fault-injection sweep that kills the engine
// at every interesting instant and asserts recovery lands on the last
// committed batch, exactly.
//
// One deterministic workload script (inserts + deletes of live records,
// periodic checkpoints) is replayed over and over. Each cycle arms one
// fault — the log dying at record k (clean or torn), or the base file
// dying at write w (dropped or torn page) — runs the script until the
// engine dies, then reopens the database and checks three things:
//
//   1. the handle recovers (ok(), tree invariants hold),
//   2. every range scan matches an in-memory oracle of the batches that
//      committed before the crash — no lost batch, no resurrected one,
//   3. the recovered database accepts new batches.
//
// The sweep covers 240 single-writer crash/recover cycles (WAL records
// 0..119 with alternating torn tails, base writes 0..59 under both fault
// kinds), well past every record boundary the script can produce — plus
// 200 *concurrent-writer* cycles that kill the log mid-group-commit and
// check recovery is a durable prefix of the commit order (see
// ConcurrentWritersDieMidGroupCommit), and 30 torn checkpoints under a
// live snapshot (SnapshotHeldAcrossTornCheckpointKeepsItsEpoch).
// scripts/check.sh runs this under ASan via the `recovery` ctest label.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "index/durable_index.h"
#include "temp_file.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace probe {
namespace {

using geometry::GridBox;
using geometry::GridPoint;
using index::DurableIndex;
using Op = index::DurableIndex::Op;

constexpr int kBatches = 12;
constexpr int kInsertsPerBatch = 6;
constexpr int kDeletesPerBatch = 2;
constexpr uint32_t kSide = 64;  // grid {2, 6}

struct Record {
  GridPoint point;
  uint64_t id = 0;
};

// The scripted workload: every cycle replays exactly this. Deletes target
// records inserted in strictly earlier batches, so a cycle that dies in
// batch b has executed only well-defined ops.
std::vector<std::vector<Op>> BuildScript() {
  util::Rng rng(0x5EED5EED);
  std::vector<std::vector<Op>> script;
  std::vector<Record> live;
  uint64_t next_id = 1;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Op> batch;
    std::vector<Record> added;
    for (int i = 0; i < kInsertsPerBatch; ++i) {
      const GridPoint p({static_cast<uint32_t>(rng.NextBelow(kSide)),
                         static_cast<uint32_t>(rng.NextBelow(kSide))});
      batch.push_back(Op::Insert(p, next_id));
      added.push_back({p, next_id});
      ++next_id;
    }
    for (int i = 0; i < kDeletesPerBatch && !live.empty(); ++i) {
      const size_t victim = rng.NextBelow(live.size());
      batch.push_back(Op::Delete(live[victim].point, live[victim].id));
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    }
    live.insert(live.end(), added.begin(), added.end());
    script.push_back(std::move(batch));
  }
  return script;
}

bool CheckpointAfter(int batch) { return (batch + 1) % 3 == 0; }

// Folds a batch into the oracle. Only called for batches whose Apply
// returned true — the committed prefix of the script.
void FoldBatch(const std::vector<Op>& batch, std::vector<Record>* oracle) {
  for (const Op& op : batch) {
    if (op.kind == Op::Kind::kInsert) {
      oracle->push_back({op.point, op.id});
    } else {
      auto it = std::find_if(oracle->begin(), oracle->end(),
                             [&](const Record& r) { return r.id == op.id; });
      ASSERT_NE(it, oracle->end()) << "script deletes only live records";
      oracle->erase(it);
    }
  }
}

std::vector<uint64_t> OracleScan(const std::vector<Record>& oracle,
                                 const GridBox& box) {
  std::vector<uint64_t> ids;
  for (const Record& r : oracle) {
    if (box.ContainsPoint(r.point)) ids.push_back(r.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Range scans over `index` equal the oracle's, on the whole space and two
// partial boxes.
void ExpectMatchesOracle(const index::ZkdIndex& index,
                         const std::vector<Record>& oracle) {
  const GridBox boxes[] = {
      GridBox::Make2D(0, kSide - 1, 0, kSide - 1),
      GridBox::Make2D(5, 30, 10, 40),
      GridBox::Make2D(32, kSide - 1, 0, 20),
  };
  for (const GridBox& box : boxes) {
    auto got = index.RangeSearch(box);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, OracleScan(oracle, box));
  }
}

DurableIndex::Options SmallOptions() {
  DurableIndex::Options options;
  options.config.leaf_capacity = 8;  // deep-ish tree from few records
  options.pool_pages = 8;            // force mid-batch evictions
  return options;
}

// One kill-and-recover cycle. `arm` installs this cycle's fault into a
// freshly created database; the oracle accumulates committed batches.
void RunCycle(const std::vector<std::vector<Op>>& script,
              const std::string& label,
              const std::function<void(DurableIndex*)>& arm) {
  SCOPED_TRACE(label);
  testutil::TempFile tmp("crash_matrix");
  const zorder::GridSpec grid{2, 6};
  std::vector<Record> oracle;

  {
    DurableIndex::Options options = SmallOptions();
    options.truncate = true;
    DurableIndex db(grid, tmp.path(), options);
    arm(&db);
    // With the fault armed before the first batch, even the initial empty
    // commit may already have died; run the script only on a live engine.
    for (int b = 0; db.ok() && b < kBatches; ++b) {
      if (!db.Apply(script[b])) break;
      ASSERT_NO_FATAL_FAILURE(FoldBatch(script[b], &oracle));
      if (CheckpointAfter(b) && !db.Checkpoint()) break;
    }
    // The handle dies here — no shutdown, no flush. Whatever reached the
    // log is all the next open gets.
  }

  DurableIndex db(grid, tmp.path(), SmallOptions());
  ASSERT_TRUE(db.ok()) << "recovery must always produce a usable database";
  EXPECT_TRUE(db.index().tree().CheckInvariants());
  EXPECT_EQ(db.index().size(), oracle.size());

  ExpectMatchesOracle(db.index(), oracle);

  // Recovered databases are not read-only relics: new batches commit.
  EXPECT_TRUE(db.Insert(GridPoint({1, 1}), 999999));
  EXPECT_TRUE(db.Delete(GridPoint({1, 1}), 999999));
}

TEST(CrashMatrixTest, WalDiesAtEveryRecordBoundary) {
  const auto script = BuildScript();
  for (uint64_t k = 0; k < 120; ++k) {
    // Even crash points drop the victim record whole; odd ones tear it at
    // a seeded, varying cut.
    const uint64_t tear = (k % 2 == 0) ? 0 : 1 + (k * 37) % 4096;
    RunCycle(script, "wal record " + std::to_string(k) +
                         " tear=" + std::to_string(tear),
             [&](DurableIndex* db) {
               db->wal().SetFaultPlan(
                   {.fail_after_records = k, .tear_bytes = tear});
             });
  }
}

TEST(CrashMatrixTest, BaseFileDiesAtEveryCheckpointWrite) {
  const auto script = BuildScript();
  using Kind = storage::FaultPlan::Kind;
  for (const Kind kind : {Kind::kFailStop, Kind::kShortWrite}) {
    for (uint64_t w = 0; w < 60; ++w) {
      RunCycle(script, std::string("base write ") + std::to_string(w) +
                           (kind == Kind::kFailStop ? " failstop" : " torn"),
               [&](DurableIndex* db) {
                 db->base_faults().SetFaultPlan(
                     {.kind = kind,
                      .fail_after_writes = w,
                      .seed = 0x9E3779B9u ^ w});
               });
    }
  }
}

// A snapshot pinned before a checkpoint whose force tears a base page (or,
// at late crash points, completes) still answers its own epoch exactly:
// the force copies aside every base page an older pin still resolves to
// before overwriting it, so the torn page never reaches the reader. A
// snapshot of the published epoch, taken afterwards, answers it too.
TEST(CrashMatrixTest, SnapshotHeldAcrossTornCheckpointKeepsItsEpoch) {
  const auto script = BuildScript();
  const zorder::GridSpec grid{2, 6};
  int torn = 0;
  for (uint64_t w = 0; w < 30; ++w) {
    SCOPED_TRACE("base write " + std::to_string(w));
    testutil::TempFile tmp("crash_matrix_pin");
    DurableIndex::Options options = SmallOptions();
    options.truncate = true;
    DurableIndex db(grid, tmp.path(), options);
    ASSERT_TRUE(db.ok());
    std::vector<Record> oracle;
    // Half the script, checkpointed, so the base file holds the pages the
    // pinned snapshot reads.
    for (int b = 0; b < kBatches / 2; ++b) {
      ASSERT_TRUE(db.Apply(script[b]));
      ASSERT_NO_FATAL_FAILURE(FoldBatch(script[b], &oracle));
    }
    ASSERT_TRUE(db.Checkpoint());
    // Not queried until after the crash: its pool starts cold.
    DurableIndex::Snapshot pinned = db.CreateSnapshot();
    const std::vector<Record> pinned_oracle = oracle;
    for (int b = kBatches / 2; b < kBatches; ++b) {
      ASSERT_TRUE(db.Apply(script[b]));
      ASSERT_NO_FATAL_FAILURE(FoldBatch(script[b], &oracle));
    }

    storage::FaultInjectingPager& faults = db.base_faults();
    faults.SetFaultPlan({.kind = storage::FaultPlan::Kind::kShortWrite,
                         .fail_after_writes = faults.writes_attempted() + w,
                         .seed = 0xA5A5A5A5u ^ w});
    const bool checkpointed = db.Checkpoint();
    EXPECT_EQ(checkpointed, !faults.crashed());
    if (faults.crashed()) ++torn;

    ExpectMatchesOracle(pinned.index(), pinned_oracle);
    const DurableIndex::Snapshot latest = db.CreateSnapshot();
    ASSERT_TRUE(latest.ok());
    ExpectMatchesOracle(latest.index(), oracle);
  }
  EXPECT_GT(torn, 0) << "no crash point landed inside the force";
}

// The concurrent-writer kill matrix: three writers race insert batches
// through group commit while the log dies at record k, for 200 seeded
// crash points — so the kill lands before, inside, and after group
// formation (a linger delay keeps groups forming). Recovery must land on
// a *durable prefix of the commit (epoch) order*:
//
//   1. every acked batch (Apply returned true) is recovered — acked means
//      durable, no matter which thread's fsync covered it,
//   2. every batch is all-or-nothing — no torn batches,
//   3. each thread's recovered batches are a prefix of that thread's
//      apply order — epochs are assigned in commit order and the log's
//      durable prefix is LSN-closed,
//   4. the recovered point count is exactly (published_epoch - 1) batches'
//      worth — the prefix is dense, nothing skipped or resurrected.
TEST(CrashMatrixTest, ConcurrentWritersDieMidGroupCommit) {
  constexpr int kThreads = 3;
  constexpr int kBatchesPerThread = 4;
  constexpr int kPerBatch = 4;
  const zorder::GridSpec grid{2, 6};

  // Thread-unique id spaces keep every batch's footprint disjoint.
  auto batch_ids = [](int t, int b) {
    std::vector<uint64_t> ids;
    for (int i = 0; i < kPerBatch; ++i) {
      ids.push_back(static_cast<uint64_t>(t) * 1000 +
                    static_cast<uint64_t>(b) * 10 + static_cast<uint64_t>(i) +
                    1);
    }
    return ids;
  };
  auto batch_ops = [&](int t, int b) {
    std::vector<Op> ops;
    for (uint64_t id : batch_ids(t, b)) {
      ops.push_back(Op::Insert(
          GridPoint({static_cast<uint32_t>((id * 37) % kSide),
                     static_cast<uint32_t>((id * 13) % kSide)}),
          id));
    }
    return ops;
  };

  for (uint64_t k = 0; k < 200; ++k) {
    SCOPED_TRACE("wal record " + std::to_string(k));
    testutil::TempFile tmp("crash_matrix_mt");
    const uint64_t tear = (k % 2 == 0) ? 0 : 1 + (k * 53) % 4096;

    util::Mutex log_mutex;
    struct Acked {
      uint64_t epoch;
      int thread;
      int batch;
    };
    std::vector<Acked> acked;
    // applied[t] = how many batches thread t managed to ack, in order.
    int applied[kThreads] = {0, 0, 0};

    {
      DurableIndex::Options options = SmallOptions();
      options.truncate = true;
      DurableIndex db(grid, tmp.path(), options);
      ASSERT_TRUE(db.ok());
      db.wal().SetFaultPlan({.fail_after_records = k, .tear_bytes = tear});
      db.wal().SetGroupCommitDelay(std::chrono::microseconds(50));

      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (int b = 0; b < kBatchesPerThread; ++b) {
            const auto ops = batch_ops(t, b);
            uint64_t epoch = 0;
            if (!db.Apply(ops, &epoch)) break;  // engine died
            util::MutexLock lock(&log_mutex);
            acked.push_back({epoch, t, b});
            applied[t] = b + 1;
          }
        });
      }
      for (auto& th : threads) th.join();
      // Die here: no shutdown, no flush.
    }

    DurableIndex db(grid, tmp.path(), SmallOptions());
    ASSERT_TRUE(db.ok()) << "recovery must always produce a usable database";
    EXPECT_TRUE(db.index().tree().CheckInvariants());

    const uint64_t recovered_epoch = db.published_epoch();
    auto got =
        db.index().RangeSearch(GridBox::Make2D(0, kSide - 1, 0, kSide - 1));
    const std::set<uint64_t> got_set(got.begin(), got.end());
    ASSERT_EQ(got.size(), got_set.size());

    // (4) dense prefix: epoch 1 is the empty commit, each later epoch one
    // kPerBatch-sized batch.
    ASSERT_GE(recovered_epoch, 1u);
    EXPECT_EQ(got_set.size(), (recovered_epoch - 1) * kPerBatch);

    // (1) acked ⊆ recovered.
    for (const Acked& a : acked) {
      EXPECT_LE(a.epoch, recovered_epoch)
          << "thread " << a.thread << " batch " << a.batch
          << " was acked but its epoch is beyond the recovered one";
      for (uint64_t id : batch_ids(a.thread, a.batch)) {
        EXPECT_TRUE(got_set.count(id))
            << "acked batch lost id " << id << " (thread " << a.thread
            << " batch " << a.batch << ")";
      }
    }

    // (2) all-or-nothing, (3) per-thread prefix.
    for (int t = 0; t < kThreads; ++t) {
      bool prior_present = true;
      for (int b = 0; b < kBatchesPerThread; ++b) {
        const auto ids = batch_ids(t, b);
        size_t present = 0;
        for (uint64_t id : ids) present += got_set.count(id);
        EXPECT_TRUE(present == 0 || present == ids.size())
            << "torn batch: thread " << t << " batch " << b << " has "
            << present << "/" << ids.size() << " ids";
        if (present == ids.size()) {
          EXPECT_TRUE(prior_present)
              << "thread " << t << " batch " << b
              << " recovered without its predecessor";
        }
        prior_present = present == ids.size();
      }
    }

    // Recovered databases accept new writes.
    EXPECT_TRUE(db.Insert(GridPoint({1, 1}), 999999));
    EXPECT_TRUE(db.Delete(GridPoint({1, 1}), 999999));
  }
}

}  // namespace
}  // namespace probe
