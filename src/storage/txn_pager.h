#ifndef PROBE_STORAGE_TXN_PAGER_H_
#define PROBE_STORAGE_TXN_PAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "storage/pager.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/single_writer.h"
#include "util/thread_annotations.h"

/// \file
/// Transactional pager: routes page writes through the write-ahead log.
///
/// TxnPager is a Pager, so a BufferPool (and through it the B-tree and the
/// zkd index) stacks on top unchanged — the pool's dirty-page table and
/// FlushAll are the only hooks durability needs. Underneath, it enforces a
/// **no-steal / force-on-checkpoint** policy against the base file:
///
///   * `Write` appends the page's after-image to the log and parks the
///     page in an in-memory pending table. The base file is *never*
///     touched by ordinary traffic, so an uncommitted batch can't leak
///     half its pages to disk (no steal).
///   * `Commit` appends a commit record carrying the page count and the
///     caller's metadata blob, then makes the log durable. Everything
///     logged so far is now the recoverable state.
///   * `Checkpoint` — only at a commit boundary — forces the pending
///     pages into the base file, fsyncs it, and atomically replaces the
///     log with a single checkpoint record (force on checkpoint). The log
///     length resets; the pending table keeps only what pinned readers
///     still need (below).
///
/// Epochs and snapshot reads. Each commit advances the pager's *epoch*;
/// the pending table is multi-version, tagging every parked image with the
/// epoch of the commit that (will) cover it. `ReadAtEpoch(id, E)` returns
/// the page as of commit E — the newest parked version with epoch <= E,
/// falling back to the base file when none is that old (the base page is
/// then the one E saw: see copy-on-checkpoint below). A reader that pins
/// epoch E therefore sees a frozen, committed state while the writer keeps
/// parking versions for E+1, E+2, ... on top — copy-on-write at page
/// granularity, with the no-steal table doing double duty as the version
/// store. `TrimVersions(floor)` garbage-collects versions superseded for
/// every epoch >= floor (the oldest still-pinned epoch); the steady state
/// with no pinned readers is one version per written page, the same
/// footprint the single-version table had.
///
/// Copy-on-checkpoint. A checkpoint never waits for readers: it is handed
/// the same pin floor, and before the force overwrites base page p while
/// the floor predates p's oldest parked version — so some reader may
/// still resolve p to the base file — it parks p's current base image at
/// the front of p's versions, tagged epoch 0. Old readers then resolve to
/// that copy and never see the overwrite (or a torn half of it). One
/// retention rule, shared by TrimVersions and Checkpoint, decides when a
/// page's entry leaves the table: its newest version is the only one
/// left, is at or below the floor, and is already in the base file (its
/// epoch is at most the last checkpoint's). With no pins a checkpoint
/// therefore empties the table.
///
/// Concurrency contract: mutations (Allocate/Write/Commit/Checkpoint)
/// remain single-writer, serialized by the owner (DurableIndex's apply
/// lock) and audited by SingleWriterGuard. Reads — Read, ReadAtEpoch —
/// may run concurrently with each other and with the writer, Checkpoint
/// included; the version table has its own leaf mutex.
///
/// Reads prefer the pending table (it holds the newest images), then the
/// base file; pages allocated but never yet written read as zeros, the
/// same contract MemPager and FilePager have for fresh pages.

namespace probe::storage {

/// Write-ahead-logging Pager wrapper (see file comment). Single-writer
/// mutations, concurrent epoch-pinned reads.
class TxnPager final : public Pager {
 public:
  /// Both `base` and `wal` must outlive the pager. Existing base pages
  /// become the initial committed state (reopen after Recover()).
  TxnPager(Pager* base, Wal* wal);

  PageId Allocate() override;
  void Read(PageId id, Page* out) override;
  void Write(PageId id, const Page& page) override;
  uint32_t page_count() const override {
    return count_.load(std::memory_order_acquire);
  }
  /// Unlocked snapshot; exact only while no reader/writer runs.
  const PagerStats& stats() const override { return stats_; }
  void ResetStats() override { stats_.Reset(); }
  bool ok() const override { return base_->ok() && wal_->ok() && !wal_->dead(); }
  /// Durability is the log's job; syncing the base outside a checkpoint
  /// would break no-steal, so this syncs the log only.
  void Sync() override { wal_->Sync(); }

  /// Commits the batch written since the last Commit: logs a commit record
  /// (with `meta`, the application's re-attach state) and waits for it to
  /// be durable. Returns false on a dead engine — the batch is then not
  /// recoverable.
  bool Commit(std::span<const uint8_t> meta);

  /// Appends the commit record and advances the epoch *without* waiting
  /// for durability: returns the commit's LSN (to pass to
  /// Wal::GroupCommit), or 0 on a dead engine. The new epoch must not be
  /// acked or published until the group commit succeeds.
  uint64_t CommitDeferred(std::span<const uint8_t> meta);

  /// Reads page `id` as of commit epoch `epoch` (see file comment). The
  /// caller guarantees `id` was allocated at that epoch (snapshots carry
  /// their frozen page count).
  void ReadAtEpoch(PageId id, uint64_t epoch, Page* out);

  /// Epoch of the newest commit (0 until the first commit, or as restored
  /// via RestoreEpoch after recovery).
  uint64_t committed_epoch() const {
    return committed_epoch_.load(std::memory_order_acquire);
  }

  /// Epoch the in-flight batch will commit as.
  uint64_t next_epoch() const { return committed_epoch() + 1; }

  /// Installs the epoch recovered from the last commit/checkpoint record's
  /// metadata. Call once, before any Write.
  void RestoreEpoch(uint64_t epoch) {
    committed_epoch_.store(epoch, std::memory_order_release);
  }

  /// Drops parked versions superseded for every epoch >= `floor` (the
  /// oldest epoch any reader still pins; pass committed_epoch() when none
  /// do), then the entries the retention rule releases (see file comment).
  /// Never drops a kept page's newest version.
  void TrimVersions(uint64_t floor);

  /// Forces the committed state into the base file and resets the log to a
  /// single checkpoint record carrying `meta`. `floor` is TrimVersions'
  /// argument: no reader pins an epoch below it, now or later. Readers keep
  /// running throughout (copy-on-checkpoint, see file comment). Requires a
  /// clean commit boundary — returns false (and does nothing) if writes
  /// arrived since the last Commit, or on a dead engine. A false return
  /// after the force began keeps the log and every parked version.
  bool Checkpoint(std::span<const uint8_t> meta, uint64_t floor);

  /// Pages with at least one parked version: awaiting the next checkpoint,
  /// or kept for a reader older than the last one.
  size_t pending_pages() const;

  /// Writes since the last successful Commit (must be zero to checkpoint).
  uint64_t uncommitted_writes() const { return uncommitted_writes_; }

  Wal& wal() { return *wal_; }
  Pager& base() { return *base_; }

 private:
  // One parked after-image: the page as of commit `epoch` (the epoch is
  // next_epoch() while the write is still uncommitted; CommitDeferred
  // turns it committed by advancing the counter past it).
  struct PageVersion {
    uint64_t epoch;
    Page page;
  };

  // TrimVersions' body; also the end of a successful Checkpoint.
  void TrimLocked(uint64_t floor) PROBE_REQUIRES(versions_mutex_);
  // Checkpoint's force: extends the base file to `count` pages, parks the
  // old base image of each page a reader at `floor` may resolve to it,
  // then writes every entry's newest version not yet in the base. Drops
  // the lock once, between parking and writing.
  void ForceLocked(uint32_t count, uint64_t floor)
      PROBE_REQUIRES(versions_mutex_);

  Pager* base_;
  Wal* wal_;
  std::atomic<uint32_t> count_;
  // Touched only on the single-writer mutation path.
  uint64_t uncommitted_writes_ = 0;
  std::atomic<uint64_t> committed_epoch_{0};

  // Leaf lock: guards the version table and serializes every base-file
  // call but the checkpoint's Sync. Acquired after the buffer pool's locks
  // and after the WAL's (Write appends to the log *before* parking);
  // nothing is acquired while holding it.
  mutable util::Mutex versions_mutex_;
  // Ordered so a checkpoint forces pages in file order; versions within a
  // page are in ascending epoch order.
  std::map<PageId, std::vector<PageVersion>> versions_
      PROBE_GUARDED_BY(versions_mutex_);
  // Epoch of the last successful checkpoint: a page's versions up to it
  // are in the base file.
  uint64_t checkpoint_epoch_ PROBE_GUARDED_BY(versions_mutex_) = 0;

  // I/O counters; bumped under versions_mutex_, read unlocked via the
  // Pager interface (quiescent reads only — see stats()).
  PagerStats stats_;
  // Audit-build proof of the single-writer mutation contract: the
  // mutating entry points (Allocate/Write/Commit/Checkpoint) claim this;
  // overlapping claims abort. See util/single_writer.h.
  util::SingleWriterGuard writer_guard_;
};

}  // namespace probe::storage

#endif  // PROBE_STORAGE_TXN_PAGER_H_
