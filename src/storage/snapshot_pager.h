#ifndef PROBE_STORAGE_SNAPSHOT_PAGER_H_
#define PROBE_STORAGE_SNAPSHOT_PAGER_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "storage/pager.h"
#include "storage/txn_pager.h"

/// \file
/// Read-only Pager view of a TxnPager frozen at one commit epoch.
///
/// A snapshot reader gets its own SnapshotPager (and its own BufferPool on
/// top — snapshots never share frames with the writer, so there is no
/// cache-level way for an uncommitted or newer page to leak into a pinned
/// view). Every Read forwards to TxnPager::ReadAtEpoch with the frozen
/// epoch; page_count() is the count the frozen commit recorded, so a
/// B-tree attached to this pager cannot even address pages allocated by
/// later batches. Mutating calls abort: a snapshot that writes is a logic
/// bug, not a recoverable condition.
///
/// Lifetime is managed by DurableIndex::Snapshot, which pins the epoch
/// (holding back version GC) for as long as the view exists.

namespace probe::storage {

/// Immutable Pager facade over `txn` at (`epoch`, `page_count`).
class SnapshotPager final : public Pager {
 public:
  SnapshotPager(TxnPager* txn, uint64_t epoch, uint32_t page_count)
      : txn_(txn), epoch_(epoch), count_(page_count) {}

  PageId Allocate() override { Abort("Allocate"); }
  void Write(PageId, const Page&) override { Abort("Write"); }

  void Read(PageId id, Page* out) override {
    if (id >= count_) {
      // Out-of-range for the frozen state: a structural bug upstream.
      Abort("Read past frozen page count");
    }
    ++stats_.reads;
    txn_->ReadAtEpoch(id, epoch_, out);
  }

  uint32_t page_count() const override { return count_; }
  const PagerStats& stats() const override { return stats_; }
  void ResetStats() override { stats_.Reset(); }
  bool ok() const override { return txn_->ok(); }
  void Sync() override {}  // nothing to make durable in a read-only view

  uint64_t epoch() const { return epoch_; }

 private:
  [[noreturn]] static void Abort(const char* what) {
    std::fprintf(stderr, "SnapshotPager: %s on a read-only snapshot\n", what);
    std::abort();
  }

  TxnPager* txn_;
  const uint64_t epoch_;
  const uint32_t count_;
  PagerStats stats_;
};

}  // namespace probe::storage

#endif  // PROBE_STORAGE_SNAPSHOT_PAGER_H_
