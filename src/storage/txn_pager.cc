#include "storage/txn_pager.h"

#include <cassert>
#include <chrono>

#include "obs/runtime_metrics.h"
#include "util/yieldpoint.h"

namespace probe::storage {

TxnPager::TxnPager(Pager* base, Wal* wal)
    : base_(base), wal_(wal), count_(base->page_count()) {}

PageId TxnPager::Allocate() {
  util::SingleWriterScope writer(&writer_guard_, "TxnPager::Allocate");
  // The base file is not extended here: the allocation becomes durable
  // via the page count carried by the next commit record, and the page
  // itself via its logged image. An uncommitted allocation simply
  // evaporates at recovery.
  const PageId id = count_.fetch_add(1, std::memory_order_acq_rel);
  util::MutexLock lock(&versions_mutex_);
  ++stats_.allocations;
  return id;
}

void TxnPager::Read(PageId id, Page* out) {
  assert(id < page_count());
  // The writer's view: the newest image, committed or not.
  ReadAtEpoch(id, UINT64_MAX, out);
}

void TxnPager::ReadAtEpoch(PageId id, uint64_t epoch, Page* out) {
  util::MutexLock lock(&versions_mutex_);
  ++stats_.reads;
  const auto it = versions_.find(id);
  if (it != versions_.end()) {
    // Versions are in ascending epoch order: walk back to the newest one
    // the pinned epoch covers. A handful of entries at most (one per
    // un-trimmed commit that touched the page), so linear is fine.
    const std::vector<PageVersion>& vec = it->second;
    for (auto v = vec.rbegin(); v != vec.rend(); ++v) {
      if (v->epoch <= epoch) {
        *out = v->page;
        return;
      }
    }
    // Every parked version is newer than the pin: the page's bytes at
    // this epoch are whatever the base file holds (or zeros below).
  }
  if (id < base_->page_count()) {
    base_->Read(id, out);
    return;
  }
  out->Clear();
}

void TxnPager::Write(PageId id, const Page& page) {
  util::SingleWriterScope writer(&writer_guard_, "TxnPager::Write");
  assert(id < page_count());
  // A dead log is a crashed engine: nothing written now can ever become
  // durable, so nothing is parked either — matching what a real crash
  // leaves behind. The log append happens before versions_mutex_ is
  // taken, keeping the WAL's lock and this leaf lock un-nested.
  if (wal_->AppendPageImage(id, page) == 0) return;
  const uint64_t epoch = next_epoch();
  util::MutexLock lock(&versions_mutex_);
  ++stats_.writes;
  ++uncommitted_writes_;
  std::vector<PageVersion>& vec = versions_[id];
  if (!vec.empty() && vec.back().epoch == epoch) {
    vec.back().page = page;  // rewrite within the same batch
  } else {
    vec.push_back(PageVersion{epoch, page});
  }
}

uint64_t TxnPager::CommitDeferred(std::span<const uint8_t> meta) {
  util::SingleWriterScope writer(&writer_guard_, "TxnPager::Commit");
  if (!ok()) return 0;
  const uint64_t lsn = wal_->AppendCommitDeferred(page_count(), meta);
  if (lsn == 0) return 0;
  // The parked versions tagged next_epoch() become committed state here;
  // the store is ordered after the log append so ReadAtEpoch can never
  // surface an epoch whose commit record was not at least buffered.
  committed_epoch_.fetch_add(1, std::memory_order_acq_rel);
  uncommitted_writes_ = 0;
  return lsn;
}

bool TxnPager::Commit(std::span<const uint8_t> meta) {
  const uint64_t lsn = CommitDeferred(meta);
  if (lsn == 0) return false;
  return wal_->GroupCommit(lsn);
}

void TxnPager::TrimVersions(uint64_t floor) {
  util::MutexLock lock(&versions_mutex_);
  TrimLocked(floor);
}

void TxnPager::TrimLocked(uint64_t floor) {
  for (auto it = versions_.begin(); it != versions_.end();) {
    std::vector<PageVersion>& vec = it->second;
    // Keep the newest version with epoch <= floor (the anchor every
    // surviving pin resolves to) and everything after it.
    size_t anchor = 0;
    for (size_t i = 0; i < vec.size(); ++i) {
      if (vec[i].epoch <= floor) anchor = i;
    }
    vec.erase(vec.begin(), vec.begin() + static_cast<ptrdiff_t>(anchor));
    // Retention: once the one version every reader resolves to is the
    // base file's page, the entry has nothing left to add.
    if (vec.size() == 1 && vec[0].epoch <= floor &&
        vec[0].epoch <= checkpoint_epoch_) {
      it = versions_.erase(it);
    } else {
      ++it;
    }
  }
}

void TxnPager::ForceLocked(uint32_t count, uint64_t floor) {
  while (base_->page_count() < count) base_->Allocate();
  // Park before any write, so not even a torn write reaches a reader: a
  // reader at the floor may still resolve a page the force overwrites to
  // the base file, so that page keeps the image the reader resolves to.
  for (auto& [id, vec] : versions_) {
    if (vec.back().epoch > checkpoint_epoch_ && floor < vec.front().epoch) {
      vec.insert(vec.begin(), PageVersion{0, Page()});
      base_->Read(id, &vec.front().page);
    }
  }
  versions_mutex_.Unlock();
  util::SchedulePoint("checkpoint.force");
  versions_mutex_.Lock();
  for (const auto& [id, vec] : versions_) {
    // Entries whose newest version the last checkpoint wrote are skipped.
    if (vec.back().epoch > checkpoint_epoch_) base_->Write(id, vec.back().page);
  }
}

bool TxnPager::Checkpoint(std::span<const uint8_t> meta, uint64_t floor) {
  util::SingleWriterScope writer(&writer_guard_, "TxnPager::Checkpoint");
  if (!ok()) return false;
  // Forcing mid-batch would push uncommitted images into the base file —
  // exactly the torn state no-steal exists to prevent.
  if (uncommitted_writes_ != 0) return false;
  const auto checkpoint_start = std::chrono::steady_clock::now();

  // The log must be durable before the base changes: if the force below
  // tears a page, recovery redoes it from these records.
  if (!wal_->Sync()) return false;

  const uint32_t count = page_count();
  const uint64_t epoch = committed_epoch();
  {
    util::MutexLock lock(&versions_mutex_);
    ForceLocked(count, floor);
  }
  base_->Sync();
  if (!base_->ok()) return false;  // the force or its sync failed

  // Atomic cut-over: after this the checkpoint record alone describes the
  // database, and the version table only serves pinned readers.
  if (wal_->RewriteWithCheckpoint(count, meta) == 0) return false;
  {
    util::MutexLock lock(&versions_mutex_);
    checkpoint_epoch_ = epoch;
    TrimLocked(floor);
  }
  if (obs::Enabled()) {
    obs::StorageMetrics& m = obs::StorageMetrics::Default();
    m.checkpoints->Increment();
    m.checkpoint_ms->Observe(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() -
                                 checkpoint_start)
                                 .count());
  }
  return true;
}

size_t TxnPager::pending_pages() const {
  util::MutexLock lock(&versions_mutex_);
  return versions_.size();
}

}  // namespace probe::storage
