#ifndef PROBE_INDEX_DURABLE_INDEX_H_
#define PROBE_INDEX_DURABLE_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "index/zkd_index.h"
#include "storage/buffer_pool.h"
#include "storage/fault_pager.h"
#include "storage/file_pager.h"
#include "storage/recovery.h"
#include "storage/txn_pager.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

/// \file
/// The crash-safe zkd index: the full durability stack in one object.
///
/// Assembles, bottom to top: a FilePager on `path` (the database file), a
/// FaultInjectingPager (disarmed unless a test arms it), a Wal on
/// `path + ".wal"`, a TxnPager enforcing no-steal / force-on-checkpoint,
/// a BufferPool, and the ZkdIndex. Opening always runs recovery first, so
/// a database killed at any instant — mid-batch, mid-append, mid-
/// checkpoint — comes back as of its last committed batch.
///
/// The unit of atomicity is the **batch**: Apply() runs a group of
/// inserts/deletes, flushes the dirty pages through the log, and commits
/// them with the tree's re-attach state serialized into the commit
/// record. Either the whole batch is recoverable or none of it is.
/// Checkpoint() bounds the log (and recovery time) by forcing committed
/// pages into the database file and restarting the log.
///
/// ## Concurrency: group commit and epoch snapshots
///
/// Apply() is safe to call from many threads. Mutation itself is
/// serialized by an internal apply lock (the tree is not a concurrent
/// structure), but the expensive part of a commit — the fsync — is not
/// under it: Apply appends its commit record, releases the lock, and
/// joins the WAL's group commit, so K writers pay ~one fsync per *group*
/// rather than one each (see Wal::GroupCommit).
///
/// Every committed batch advances an **epoch** (batch k commits as epoch
/// k, counting from the empty-tree commit at epoch 1). An epoch is
/// *published* once its commit record is durable; readers never see an
/// acked-but-not-yet-durable epoch. CreateSnapshot() pins the newest
/// published epoch and returns a self-contained read view — its own
/// SnapshotPager (frozen at that epoch's page count), its own BufferPool,
/// and a ZkdIndex attached from that epoch's recorded tree state — so
/// RangeSearch/CountBox/KNearest on the snapshot return exactly what a
/// serial replay of batches 1..E would, no matter how many writers are
/// landing batches concurrently. Pinned epochs block version GC and
/// Checkpoint's cut-over; drop the Snapshot to release the pin.
///
/// Queries that don't need isolation from concurrent writers can still go
/// through index() — but index() is the *live* tree, synchronized with
/// nothing; use it only single-threaded or from tests.

namespace probe::index {

/// A ZkdIndex with write-ahead logging, crash recovery, group-committed
/// concurrent writers, and epoch-pinned snapshot reads.
class DurableIndex {
 public:
  struct Options {
    /// Tree shape. The default packs leaves to the page's byte budget.
    btree::BTreeConfig config;
    /// Buffer pool frames (the writer's pool).
    size_t pool_pages = 256;
    /// Frames for each snapshot's private pool.
    size_t snapshot_pool_pages = 64;
    storage::EvictionPolicy policy = storage::EvictionPolicy::kLru;
    /// Wipe any existing database and log instead of recovering them.
    bool truncate = false;
  };

  /// One mutation of a batch.
  struct Op {
    enum class Kind { kInsert, kDelete };
    Kind kind = Kind::kInsert;
    geometry::GridPoint point;
    uint64_t id = 0;

    static Op Insert(const geometry::GridPoint& p, uint64_t id) {
      return Op{Kind::kInsert, p, id};
    }
    static Op Delete(const geometry::GridPoint& p, uint64_t id) {
      return Op{Kind::kDelete, p, id};
    }
  };

  class Snapshot;

  /// Opens (creating, recovering, or re-attaching) the database at `path`;
  /// the log lives beside it at `path + ".wal"`. Check ok() before use.
  DurableIndex(const zorder::GridSpec& grid, const std::string& path,
               const Options& options);
  DurableIndex(const zorder::GridSpec& grid, const std::string& path)
      : DurableIndex(grid, path, Options()) {}

  DurableIndex(const DurableIndex&) = delete;
  DurableIndex& operator=(const DurableIndex&) = delete;

  /// All Snapshots must be dropped before the index is destroyed (they
  /// hold raw pointers into the stack).
  ~DurableIndex() = default;

  /// False when the files could not be opened, the stored metadata is
  /// corrupt, or it disagrees with `grid`/config.
  bool ok() const { return ok_; }

  /// What recovery did when this handle opened.
  const storage::RecoveryResult& recovery() const { return recovery_; }

  /// The live index — the writer's view, synchronized with nothing. For
  /// single-threaded use and tests; concurrent readers use CreateSnapshot.
  /// Requires ok().
  ZkdIndex& index() { return *index_; }
  const ZkdIndex& index() const { return *index_; }

  /// Applies `ops` in order and commits them as one atomic batch, joining
  /// the WAL's group commit for the fsync. Thread-safe. Returns false on a
  /// dead engine: the batch is then not durable (and after a reopen it
  /// will have vanished entirely). On success `*epoch_out` (if given) is
  /// the batch's now-published epoch.
  bool Apply(std::span<const Op> ops, uint64_t* epoch_out = nullptr);

  /// Single-op batches.
  bool Insert(const geometry::GridPoint& point, uint64_t id) {
    const Op op = Op::Insert(point, id);
    return Apply({&op, 1});
  }
  bool Delete(const geometry::GridPoint& point, uint64_t id) {
    const Op op = Op::Delete(point, id);
    return Apply({&op, 1});
  }

  /// Pins the newest published epoch and returns a consistent read view
  /// of it (see file comment). Thread-safe; cheap when a snapshot of the
  /// same epoch is already live (they share one view). Blocks while a
  /// checkpoint is draining. !ok() result only on an engine that never
  /// opened.
  Snapshot CreateSnapshot();

  /// Newest published (durable, reader-visible) epoch. The empty-tree
  /// commit of a fresh database is epoch 1.
  uint64_t published_epoch() const;

  /// Point count of the newest published epoch (what a fresh snapshot's
  /// index().size() would report).
  uint64_t published_size() const;

  /// Forces committed state into the database file and restarts the log.
  /// Thread-safe, but **blocks until every Snapshot pin is released** —
  /// the cut-over drops all parked page versions, so no reader may still
  /// depend on one.
  bool Checkpoint();

  /// Test seams: the log (arm WalFaultPlan) and the injected base pager
  /// (arm FaultPlan); the transactional pager for its counters.
  storage::Wal& wal() { return *wal_; }
  storage::FaultInjectingPager& base_faults() { return *fault_; }
  storage::TxnPager& txn_pager() { return *txn_; }
  storage::BufferPool& pool() { return *pool_; }

  const std::string& path() const { return path_; }
  const std::string& wal_path() const { return wal_path_; }

 private:
  // Everything needed to re-open a committed epoch as a read view: the
  // tree's re-attach state and the page count its commit recorded.
  struct EpochState {
    btree::BTree::PersistentState state;
    uint32_t page_count = 0;
  };
  struct SnapshotResources;
  friend struct SnapshotResources;

  // The commit/checkpoint metadata blob for `epoch`: magic, grid shape,
  // epoch, tree state. Caller holds apply_mutex_ (reads the live tree).
  std::vector<uint8_t> MetaBlob(uint64_t epoch) const;

  // Records `epoch`'s re-attach state (pre-publication). Caller holds
  // apply_mutex_; takes epoch_mutex_.
  void RegisterEpoch(uint64_t epoch);

  // Raises the published epoch to at least `epoch` and GCs superseded
  // epoch states.
  void Publish(uint64_t epoch);

  // Snapshot teardown: unpin, GC epoch states and page versions, wake a
  // draining checkpoint.
  void ReleasePin(uint64_t epoch);

  // Drops unpinned epoch states older than the published one.
  void PruneEpochsLocked() PROBE_REQUIRES(epoch_mutex_);
  // Oldest epoch whose page versions must be kept for a pin (or the
  // published epoch when nothing is pinned) — TxnPager::TrimVersions arg.
  uint64_t TrimFloorLocked() const PROBE_REQUIRES(epoch_mutex_);

  zorder::GridSpec grid_;
  btree::BTreeConfig config_;
  std::string path_;
  std::string wal_path_;
  size_t snapshot_pool_pages_;
  std::unique_ptr<storage::FilePager> base_;
  std::unique_ptr<storage::FaultInjectingPager> fault_;
  std::unique_ptr<storage::Wal> wal_;
  std::unique_ptr<storage::TxnPager> txn_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::optional<ZkdIndex> index_;
  storage::RecoveryResult recovery_;
  bool ok_ = false;

  // Serializes mutation (tree updates, flush, commit-record append) —
  // held across everything in Apply *except* the fsync, which the WAL
  // group-batches across writers. Also guards index_ and the pool on the
  // mutation path (left unannotated: index() is a documented
  // single-threaded escape hatch). Lock order: apply_mutex_ before
  // epoch_mutex_; the TxnPager's version lock is a leaf below both.
  mutable util::Mutex apply_mutex_;

  // Epoch bookkeeping: which epochs exist, which is published, who pins
  // what.
  mutable util::Mutex epoch_mutex_;
  // Signals pin releases (to a draining checkpoint) and drain completion
  // (to blocked CreateSnapshot calls).
  util::CondVar epoch_cv_;
  uint64_t published_epoch_ PROBE_GUARDED_BY(epoch_mutex_) = 0;
  std::map<uint64_t, EpochState> states_ PROBE_GUARDED_BY(epoch_mutex_);
  std::map<uint64_t, int> pins_ PROBE_GUARDED_BY(epoch_mutex_);
  int pin_count_ PROBE_GUARDED_BY(epoch_mutex_) = 0;
  bool draining_ PROBE_GUARDED_BY(epoch_mutex_) = false;
  // Live view of the published epoch, shared by concurrent snapshots.
  std::weak_ptr<SnapshotResources> cached_ PROBE_GUARDED_BY(epoch_mutex_);
};

/// A pinned, consistent read view of one published epoch. Copyable
/// (copies share the pin); the epoch stays pinned until the last copy is
/// destroyed. Must not outlive the DurableIndex.
class DurableIndex::Snapshot {
 public:
  /// An empty (not-ok) snapshot.
  Snapshot() = default;

  bool ok() const { return res_ != nullptr; }
  /// The pinned epoch. Requires ok().
  uint64_t epoch() const;
  /// The frozen index — safe for concurrent queries with any number of
  /// writers on the owning DurableIndex. Requires ok().
  ZkdIndex& index() const;

 private:
  friend class DurableIndex;
  explicit Snapshot(std::shared_ptr<SnapshotResources> res)
      : res_(std::move(res)) {}
  std::shared_ptr<SnapshotResources> res_;
};

}  // namespace probe::index

#endif  // PROBE_INDEX_DURABLE_INDEX_H_
