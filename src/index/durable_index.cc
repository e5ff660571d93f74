#include "index/durable_index.h"

#include <cstdio>
#include <cstring>

#include "obs/runtime_metrics.h"
#include "storage/snapshot_pager.h"
#include "util/yieldpoint.h"

namespace probe::index {

namespace {

// Metadata blob: magic (4) + dims (4) + bits (4) + reserved (4) + epoch
// (8) + tree state (16). Grid shape is stored so an attach with the wrong
// spec fails loudly instead of misinterpreting every key; the epoch is
// stored so a reopen resumes the epoch sequence where the durable prefix
// ended. The magic names the page format: "PZK3" files hold only the
// compressed leaf with entries at offset 30. Older files ("PZK2") may
// hold fixed-width leaves or entries at offset 28, so they are refused.
constexpr uint32_t kMetaMagic = 0x334B5A50u;  // "PZK3"
constexpr size_t kMetaBytes =
    24 + btree::BTree::PersistentState::kEncodedBytes;

void PutU32(uint8_t* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
uint32_t GetU32(const uint8_t* src) {
  uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
void PutU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, 8); }
uint64_t GetU64(const uint8_t* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}

}  // namespace

// Owns one snapshot's whole read stack. Declaration order is teardown
// order reversed: the index detaches before the pool dies, the pool
// (flushing nothing — read-only views have no dirty frames) before the
// pager, and the pin is released last, when nothing references the
// pinned versions anymore.
struct DurableIndex::SnapshotResources {
  DurableIndex* owner = nullptr;
  uint64_t epoch = 0;
  std::unique_ptr<storage::SnapshotPager> pager;
  std::unique_ptr<storage::BufferPool> pool;
  std::optional<ZkdIndex> index;

  ~SnapshotResources() {
    index.reset();
    pool.reset();
    pager.reset();
    if (owner != nullptr) owner->ReleasePin(epoch);
  }
};

uint64_t DurableIndex::Snapshot::epoch() const { return res_->epoch; }
ZkdIndex& DurableIndex::Snapshot::index() const { return *res_->index; }

DurableIndex::DurableIndex(const zorder::GridSpec& grid,
                           const std::string& path, const Options& options)
    : grid_(grid),
      config_(options.config),
      path_(path),
      wal_path_(path + ".wal"),
      snapshot_pool_pages_(options.snapshot_pool_pages) {
  if (options.truncate) {
    std::remove(wal_path_.c_str());
    std::remove((wal_path_ + ".tmp").c_str());
  }
  base_ = std::make_unique<storage::FilePager>(path_, options.truncate);
  if (!base_->ok()) return;

  // Recovery happens against the raw file, before any fault injection or
  // logging stacks on top: opening IS recovering.
  recovery_ = storage::Recover(wal_path_, base_.get());

  fault_ = std::make_unique<storage::FaultInjectingPager>(base_.get());
  wal_ = std::make_unique<storage::Wal>(wal_path_);
  if (!wal_->ok()) return;
  txn_ = std::make_unique<storage::TxnPager>(fault_.get(), wal_.get());
  pool_ = std::make_unique<storage::BufferPool>(txn_.get(), options.pool_pages,
                                                options.policy);

  if (!recovery_.meta.empty()) {
    // Reopen: the boundary record's blob says what tree to attach.
    if (recovery_.meta.size() != kMetaBytes ||
        GetU32(recovery_.meta.data()) != kMetaMagic ||
        GetU32(recovery_.meta.data() + 4) != static_cast<uint32_t>(grid_.dims) ||
        GetU32(recovery_.meta.data() + 8) !=
            static_cast<uint32_t>(grid_.bits_per_dim)) {
      return;  // corrupt or mismatched metadata: refuse to attach
    }
    const uint64_t epoch = GetU64(recovery_.meta.data() + 16);
    const auto state =
        btree::BTree::PersistentState::Decode(recovery_.meta.data() + 24);
    index_.emplace(ZkdIndex::Attach(grid_, pool_.get(), state, config_));
    // Resume the epoch sequence at the recovered commit, which is by
    // construction durable and hence immediately publishable.
    txn_->RestoreEpoch(epoch);
    {
      util::MutexLock lock(&epoch_mutex_);
      states_[epoch] = EpochState{state, txn_->page_count()};
      published_epoch_ = epoch;
    }
    ok_ = true;
    return;
  }

  if (base_->page_count() != 0) {
    // Pages but no metadata: not a database this layer wrote.
    return;
  }

  // Fresh database. Commit the empty tree immediately (as epoch 1) so a
  // crash straight after creation recovers to "empty index", not "no
  // database".
  index_.emplace(grid_, pool_.get(), config_);
  ok_ = true;
  ok_ = Apply({});
}

std::vector<uint8_t> DurableIndex::MetaBlob(uint64_t epoch) const {
  std::vector<uint8_t> meta(kMetaBytes, 0);
  PutU32(meta.data(), kMetaMagic);
  PutU32(meta.data() + 4, static_cast<uint32_t>(grid_.dims));
  PutU32(meta.data() + 8, static_cast<uint32_t>(grid_.bits_per_dim));
  PutU64(meta.data() + 16, epoch);
  index_->DetachState().EncodeTo(meta.data() + 24);
  return meta;
}

void DurableIndex::RegisterEpoch(uint64_t epoch) {
  util::MutexLock lock(&epoch_mutex_);
  states_[epoch] = EpochState{index_->DetachState(), txn_->page_count()};
}

void DurableIndex::Publish(uint64_t epoch) {
  {
    util::MutexLock lock(&epoch_mutex_);
    // Group commits complete out of order across threads, but an LSN
    // being durable makes every earlier commit durable too, so raising
    // to the max is exactly "publish everything now durable".
    if (epoch > published_epoch_) published_epoch_ = epoch;
    PruneEpochsLocked();
  }
  util::SchedulePoint("epoch.publish");
}

bool DurableIndex::Apply(std::span<const Op> ops, uint64_t* epoch_out) {
  if (!ok_) return false;
  uint64_t lsn = 0;
  uint64_t epoch = 0;
  {
    util::MutexLock lock(&apply_mutex_);
    if (!txn_->ok()) return false;
    for (const Op& op : ops) {
      // An eviction into a dead log drops its page image, so from then on
      // the live tree may fetch stale or zeroed pages: stop applying.
      if (!txn_->ok()) return false;
      if (op.kind == Op::Kind::kInsert) {
        index_->Insert(op.point, op.id);
      } else {
        index_->Delete(op.point, op.id);
      }
    }
    // FlushAll pushes every dirty frame through the TxnPager, which logs
    // the after-images; the commit record then covers them all as one
    // epoch.
    pool_->FlushAll();
    epoch = txn_->next_epoch();
    lsn = txn_->CommitDeferred(MetaBlob(epoch));
    if (lsn == 0) return false;
    RegisterEpoch(epoch);
    util::SchedulePoint("epoch.prepublish");
  }
  // The slow part — waiting for the fsync — happens outside the apply
  // lock, so concurrent batches pile into one group commit.
  if (!wal_->GroupCommit(lsn)) return false;
  Publish(epoch);
  if (epoch_out != nullptr) *epoch_out = epoch;
  return true;
}

DurableIndex::Snapshot DurableIndex::CreateSnapshot() {
  std::shared_ptr<SnapshotResources> res;
  // Holds a stale cached view so it outlives the lock scope below: if a
  // concurrent reader dropped the last Snapshot after our cached_.lock(),
  // this reference is the final one, and ~SnapshotResources re-enters
  // epoch_mutex_ via ReleasePin — destroying it while still holding the
  // lock would self-deadlock.
  std::shared_ptr<SnapshotResources> stale;
  {
    util::MutexLock lock(&epoch_mutex_);
    // A draining checkpoint is about to drop the page versions pins
    // resolve through; new pins wait for the cut-over.
    while (draining_) epoch_cv_.Wait(&epoch_mutex_);
    const uint64_t epoch = published_epoch_;
    stale = cached_.lock();
    if (stale && stale->epoch == epoch) {
      return Snapshot(std::move(stale));  // share the live view's pin
    }
    const auto it = states_.find(epoch);
    if (it == states_.end()) return Snapshot();  // engine never opened
    res = std::make_shared<SnapshotResources>();
    res->owner = this;
    res->epoch = epoch;
    res->pager = std::make_unique<storage::SnapshotPager>(
        txn_.get(), epoch, it->second.page_count);
    res->pool = std::make_unique<storage::BufferPool>(
        res->pager.get(), snapshot_pool_pages_);
    res->index.emplace(
        ZkdIndex::Attach(grid_, res->pool.get(), it->second.state, config_));
    ++pins_[epoch];
    ++pin_count_;
    if (obs::Enabled()) {
      obs::StorageMetrics::Default().snapshot_pins->Set(pin_count_);
    }
    cached_ = res;
  }
  util::SchedulePoint("snapshot.pin");
  return Snapshot(std::move(res));
}

uint64_t DurableIndex::published_epoch() const {
  util::MutexLock lock(&epoch_mutex_);
  return published_epoch_;
}

uint64_t DurableIndex::published_size() const {
  util::MutexLock lock(&epoch_mutex_);
  const auto it = states_.find(published_epoch_);
  return it == states_.end() ? 0 : it->second.state.size;
}

void DurableIndex::PruneEpochsLocked() {
  // A future snapshot only ever pins the published epoch, so any older,
  // unpinned state (including ones skipped over between two pins) is
  // unreachable for good. States above the published epoch are commits
  // still waiting on their group commit — never touched here.
  for (auto it = states_.begin(); it != states_.end();) {
    if (it->first < published_epoch_ && pins_.find(it->first) == pins_.end()) {
      it = states_.erase(it);
    } else {
      ++it;
    }
  }
}

uint64_t DurableIndex::TrimFloorLocked() const {
  if (pins_.empty()) return published_epoch_;
  return std::min(pins_.begin()->first, published_epoch_);
}

void DurableIndex::ReleasePin(uint64_t epoch) {
  uint64_t trim = 0;
  uint64_t lag = 0;
  int pins_now = 0;
  {
    util::MutexLock lock(&epoch_mutex_);
    const auto it = pins_.find(epoch);
    if (it != pins_.end() && --(it->second) == 0) pins_.erase(it);
    --pin_count_;
    pins_now = pin_count_;
    lag = published_epoch_ - epoch;
    PruneEpochsLocked();
    trim = TrimFloorLocked();
    epoch_cv_.NotifyAll();  // a draining checkpoint may be waiting
  }
  // Version GC outside the epoch lock: a concurrently raised floor just
  // means this trim is conservative.
  txn_->TrimVersions(trim);
  if (obs::Enabled()) {
    obs::StorageMetrics& m = obs::StorageMetrics::Default();
    m.snapshot_pins->Set(pins_now);
    m.snapshot_epoch_lag->Observe(static_cast<double>(lag));
  }
}

bool DurableIndex::Checkpoint() {
  if (!ok_) return false;
  util::MutexLock lock(&apply_mutex_);
  if (!txn_->ok()) return false;
  // A checkpoint must sit on a commit boundary; flushing may surface dirty
  // pages (e.g. of a batch the caller never committed), which get a commit
  // of their own first.
  pool_->FlushAll();
  if (txn_->uncommitted_writes() != 0) {
    const uint64_t epoch = txn_->next_epoch();
    const uint64_t lsn = txn_->CommitDeferred(MetaBlob(epoch));
    if (lsn == 0) return false;
    RegisterEpoch(epoch);
    if (!wal_->GroupCommit(lsn)) return false;
    Publish(epoch);
  }
  // The cut-over clears every parked page version, so every snapshot pin
  // must be gone first. New snapshots queue behind draining_; Apply is
  // excluded by apply_mutex_. A snapshot held across this call deadlocks
  // by contract — release pins before checkpointing.
  {
    util::MutexLock epochs(&epoch_mutex_);
    draining_ = true;
    while (pin_count_ != 0) epoch_cv_.Wait(&epoch_mutex_);
  }
  const bool committed = txn_->Checkpoint(MetaBlob(txn_->committed_epoch()));
  {
    util::MutexLock epochs(&epoch_mutex_);
    draining_ = false;
    PruneEpochsLocked();
    epoch_cv_.NotifyAll();  // wake snapshot creators queued on the drain
  }
  return committed;
}

}  // namespace probe::index
