#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "obs/runtime_metrics.h"
#include "util/crc32.h"
#include "util/yieldpoint.h"

namespace probe::storage {

namespace {

// crc(4) + len(4) + lsn(8) + type(1).
constexpr size_t kHeaderBytes = 17;
// Largest payload a reader will believe: a page image plus slack for
// metadata blobs. Anything bigger is treated as a torn/corrupt record.
constexpr uint32_t kMaxPayload = static_cast<uint32_t>(Page::kSize) + 4096;

void PutU32(uint8_t* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
void PutU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, 8); }
uint32_t GetU32(const uint8_t* src) {
  uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
uint64_t GetU64(const uint8_t* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}

bool ValidType(uint8_t t) {
  return t >= static_cast<uint8_t>(WalRecordType::kPageImage) &&
         t <= static_cast<uint8_t>(WalRecordType::kCheckpoint);
}

// Serializes one complete record (header + payload parts) into `out`.
void BuildRecord(uint64_t lsn, WalRecordType type,
                 std::span<const uint8_t> prefix,
                 std::span<const uint8_t> body, std::vector<uint8_t>* out) {
  const uint32_t len = static_cast<uint32_t>(prefix.size() + body.size());
  out->resize(kHeaderBytes + len);
  uint8_t* p = out->data();
  PutU32(p + 4, len);
  PutU64(p + 8, lsn);
  p[16] = static_cast<uint8_t>(type);
  if (!prefix.empty()) {
    std::memcpy(p + kHeaderBytes, prefix.data(), prefix.size());
  }
  if (!body.empty()) {
    std::memcpy(p + kHeaderBytes + prefix.size(), body.data(), body.size());
  }
  // The checksum covers everything after itself, so a record is valid iff
  // its length, LSN, type, and payload all survived intact.
  PutU32(p, util::Crc32(p + 4, kHeaderBytes - 4 + len));
}

}  // namespace

Wal::Wal(const std::string& path, bool truncate) : path_(path) {
  int flags = O_RDWR | O_CREAT;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) return;
  if (!truncate) {
    // Resume after the existing valid prefix; a torn tail left by a crash
    // is overwritten by the next append. Everything already in the file is
    // the recovered state, so it counts as durable.
    WalReader reader(path);
    WalRecord record;
    while (reader.Next(&record)) {
      next_lsn_ = record.lsn + 1;
    }
    offset_ = reader.valid_bytes();
    file_offset_ = offset_;
    flushed_lsn_ = next_lsn_ - 1;
    durable_lsn_ = next_lsn_ - 1;
  }
}

Wal::~Wal() {
  if (fd_ >= 0) {
    if (!dead()) {
      // Closing flushes buffered records to the OS (no fsync): a clean
      // close leaves the file readable, a crash loses at most what was
      // never synced — the same guarantee the commit protocol makes.
      util::MutexLock lock(&mu_);
      FlushLocked();
    }
    ::close(fd_);
  }
}

void Wal::SetGroupCommitDelay(std::chrono::microseconds delay) {
  util::MutexLock lock(&mu_);
  group_delay_ = delay;
}

std::chrono::microseconds Wal::group_commit_delay() const {
  util::MutexLock lock(&mu_);
  return group_delay_;
}

uint64_t Wal::next_lsn() const {
  util::MutexLock lock(&mu_);
  return next_lsn_;
}

uint64_t Wal::durable_lsn() const {
  util::MutexLock lock(&mu_);
  return durable_lsn_;
}

uint64_t Wal::size_bytes() const {
  util::MutexLock lock(&mu_);
  return offset_;
}

WalStats Wal::stats() const {
  util::MutexLock lock(&mu_);
  return stats_;
}

void Wal::MarkDeadLocked() {
  dead_.store(true, std::memory_order_release);
  commit_cv_.NotifyAll();
}

bool Wal::FlushLocked() {
  if (buffer_.empty()) return true;
  const ssize_t written = ::pwrite(fd_, buffer_.data(), buffer_.size(),
                                   static_cast<off_t>(file_offset_));
  if (written != static_cast<ssize_t>(buffer_.size())) {
    MarkDeadLocked();
    return false;
  }
  file_offset_ += buffer_.size();
  flushed_lsn_ = next_lsn_ - 1;
  buffer_.clear();
  return true;
}

uint64_t Wal::AppendRecord(WalRecordType type,
                           std::span<const uint8_t> header_extra,
                           std::span<const uint8_t> payload) {
  util::MutexLock lock(&mu_);
  assert(ok());
  if (dead_.load(std::memory_order_relaxed)) return 0;
  const uint64_t lsn = next_lsn_;
  std::vector<uint8_t> buf;
  BuildRecord(lsn, type, header_extra, payload, &buf);

  if (stats_.records >= fault_.fail_after_records) {
    // The armed crash point. The buffered prefix was appended successfully
    // before the fault, so it reaches the file (as it already had when
    // appends wrote through); then at most a strict prefix of the victim,
    // and the log goes dead.
    if (FlushLocked()) {
      const size_t torn = static_cast<size_t>(
          std::min<uint64_t>(fault_.tear_bytes, buf.size() - 1));
      if (torn > 0) {
        // invariant-lint waiver(unchecked-syscall): this tear is the
        // injected crash; the log dies below whatever it wrote.
        [[maybe_unused]] const ssize_t n =
            ::pwrite(fd_, buf.data(), torn, static_cast<off_t>(file_offset_));
      }
      MarkDeadLocked();
    }
    return 0;
  }

  buffer_.insert(buffer_.end(), buf.begin(), buf.end());
  offset_ += buf.size();
  next_lsn_ = lsn + 1;
  ++stats_.records;
  stats_.bytes += buf.size();
  if (type == WalRecordType::kCommit) ++pending_commits_;
  if (obs::Enabled()) {
    obs::StorageMetrics& m = obs::StorageMetrics::Default();
    m.wal_appends->Increment();
    m.wal_bytes->Increment(buf.size());
    if (type == WalRecordType::kCommit) m.wal_commits->Increment();
  }
  return lsn;
}

uint64_t Wal::AppendPageImage(PageId id, const Page& page) {
  uint8_t prefix[4];
  PutU32(prefix, id);
  return AppendRecord(WalRecordType::kPageImage, std::span(prefix, 4),
                      std::span(page.data(), Page::kSize));
}

uint64_t Wal::AppendCommitDeferred(uint32_t page_count,
                                   std::span<const uint8_t> meta) {
  util::SchedulePoint("wal.commit.queued");
  uint8_t prefix[4];
  PutU32(prefix, page_count);
  return AppendRecord(WalRecordType::kCommit, std::span(prefix, 4), meta);
}

uint64_t Wal::AppendCommit(uint32_t page_count,
                           std::span<const uint8_t> meta) {
  const uint64_t lsn = AppendCommitDeferred(page_count, meta);
  if (lsn == 0) return 0;
  return GroupCommit(lsn) ? lsn : 0;
}

bool Wal::LeaderSyncLocked() {
  assert(sync_active_);
  if (dead_.load(std::memory_order_relaxed) || !FlushLocked()) {
    sync_active_ = false;
    commit_cv_.NotifyAll();
    return false;
  }
  // Everything flushed so far rides this fsync: the leader's own commit
  // plus every follower whose record made the buffer in time.
  const uint64_t target = flushed_lsn_;
  const uint64_t group = pending_commits_;
  pending_commits_ = 0;
  const int fd = fd_;
  mu_.Unlock();
  util::SchedulePoint("wal.fsync");
  const bool synced = ::fsync(fd) == 0;
  mu_.Lock();
  if (!synced || stats_.syncs >= fault_.fail_after_syncs) {
    sync_active_ = false;
    MarkDeadLocked();
    return false;
  }
  if (durable_lsn_ < target) durable_lsn_ = target;
  ++stats_.syncs;
  if (group > 0) {
    ++stats_.group_syncs;
    stats_.group_commits += group;
    stats_.max_group = std::max(stats_.max_group, group);
  }
  if (obs::Enabled()) {
    obs::StorageMetrics& m = obs::StorageMetrics::Default();
    m.wal_syncs->Increment();
    if (group > 0) m.wal_group_size->Observe(static_cast<double>(group));
  }
  sync_active_ = false;
  commit_cv_.NotifyAll();
  util::SchedulePoint("wal.durable");
  return true;
}

bool Wal::GroupCommit(uint64_t lsn) {
  if (lsn == 0) return false;
  util::SchedulePoint("wal.groupcommit");
  util::MutexLock lock(&mu_);
  for (;;) {
    if (durable_lsn_ >= lsn) return true;
    if (dead_.load(std::memory_order_relaxed)) return false;
    if (sync_active_) {
      // Follower: a leader's fsync is in flight (or it is lingering for
      // us). Wait for the turn to end, then recheck — our record either
      // made that flush or we contend to lead the next one.
      commit_cv_.Wait(&mu_);
      continue;
    }
    // Leader election: this thread owns the next flush+fsync turn.
    sync_active_ = true;
    if (group_delay_.count() > 0) {
      // Linger so more commits join the group; bounded, and cut short if
      // the log dies underneath us or an explicit Sync/checkpoint arrives
      // (it wants durability now — lingering only adds latency).
      const auto deadline = std::chrono::steady_clock::now() + group_delay_;
      while (!dead_.load(std::memory_order_relaxed) && sync_waiters_ == 0 &&
             commit_cv_.WaitUntil(&mu_, deadline) != std::cv_status::timeout) {
      }
    }
    if (!LeaderSyncLocked()) return false;
  }
}

bool Wal::Sync() {
  assert(ok());
  util::MutexLock lock(&mu_);
  ++sync_waiters_;
  commit_cv_.NotifyAll();  // a lingering leader ends its delay for us
  while (sync_active_ && !dead_.load(std::memory_order_relaxed)) {
    commit_cv_.Wait(&mu_);
  }
  --sync_waiters_;
  if (dead_.load(std::memory_order_relaxed)) return false;
  // The turn we waited out may already have made everything durable (the
  // common case after cutting a linger short); don't pay a second fsync.
  if (buffer_.empty() && durable_lsn_ >= next_lsn_ - 1) return true;
  sync_active_ = true;
  return LeaderSyncLocked();
}

bool Wal::Flush() {
  assert(ok());
  util::MutexLock lock(&mu_);
  if (dead_.load(std::memory_order_relaxed)) return false;
  return FlushLocked();
}

uint64_t Wal::RewriteWithCheckpoint(uint32_t page_count,
                                    std::span<const uint8_t> meta) {
  util::MutexLock lock(&mu_);
  assert(ok());
  // Checkpoints run at a quiescent commit boundary, but a straggling
  // GroupCommit turn may still be mid-fsync (or lingering — registering
  // as a sync waiter ends the linger immediately); drain it so nothing
  // touches the file (or fd_) while it is replaced.
  ++sync_waiters_;
  commit_cv_.NotifyAll();
  while (sync_active_ && !dead_.load(std::memory_order_relaxed)) {
    commit_cv_.Wait(&mu_);
  }
  --sync_waiters_;
  if (dead_.load(std::memory_order_relaxed)) return 0;
  // Straggler appends go into the old log first, keeping LSNs continuous.
  // (Callers sync before checkpointing, so this is normally a no-op.)
  if (!FlushLocked()) return 0;
  const uint64_t lsn = next_lsn_;
  uint8_t prefix[4];
  PutU32(prefix, page_count);
  std::vector<uint8_t> buf;
  BuildRecord(lsn, WalRecordType::kCheckpoint, std::span(prefix, 4), meta,
              &buf);

  if (stats_.records >= fault_.fail_after_records) {
    // Crash while writing the replacement log: the temp file never gets
    // renamed, so the previous log (and its recovery story) is untouched.
    MarkDeadLocked();
    return 0;
  }

  const std::string tmp = path_ + ".tmp";
  const int tmp_fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tmp_fd < 0) {
    MarkDeadLocked();
    return 0;
  }
  const ssize_t written = ::pwrite(tmp_fd, buf.data(), buf.size(), 0);
  if (written != static_cast<ssize_t>(buf.size()) || ::fsync(tmp_fd) != 0) {
    ::close(tmp_fd);
    MarkDeadLocked();
    return 0;
  }
  ::close(tmp_fd);
  // The atomic cut-over: before the rename the old log governs recovery,
  // after it the checkpoint does. There is no in-between state.
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    MarkDeadLocked();
    return 0;
  }
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR, 0644);
  if (fd_ < 0) {
    MarkDeadLocked();
    return 0;
  }
  offset_ = buf.size();
  file_offset_ = buf.size();
  flushed_lsn_ = lsn;
  durable_lsn_ = lsn;
  next_lsn_ = lsn + 1;
  ++stats_.records;
  stats_.bytes += buf.size();
  ++stats_.syncs;
  if (obs::Enabled()) {
    obs::StorageMetrics& m = obs::StorageMetrics::Default();
    m.wal_appends->Increment();
    m.wal_bytes->Increment(buf.size());
    m.wal_syncs->Increment();
  }
  return lsn;
}

WalReader::WalReader(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) return;
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  file_size_ = size < 0 ? 0 : static_cast<uint64_t>(size);
}

WalReader::~WalReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool WalReader::Next(WalRecord* out) {
  if (fd_ < 0) return false;
  if (offset_ + kHeaderBytes > file_size_) return false;

  uint8_t header[kHeaderBytes];
  ssize_t n = ::pread(fd_, header, kHeaderBytes, static_cast<off_t>(offset_));
  if (n != static_cast<ssize_t>(kHeaderBytes)) return false;

  const uint32_t crc = GetU32(header);
  const uint32_t len = GetU32(header + 4);
  const uint64_t lsn = GetU64(header + 8);
  const uint8_t type = header[16];
  // A torn or corrupt header shows up as an absurd length, a bad type, a
  // non-advancing LSN, or a payload running past the file; all of them end
  // the valid prefix.
  if (len > kMaxPayload || !ValidType(type)) return false;
  if (offset_ + kHeaderBytes + len > file_size_) return false;
  if (lsn <= prev_lsn_) return false;

  std::vector<uint8_t> payload(len);
  n = ::pread(fd_, payload.data(), len,
              static_cast<off_t>(offset_ + kHeaderBytes));
  if (n != static_cast<ssize_t>(len)) return false;

  uint32_t actual = util::Crc32(header + 4, kHeaderBytes - 4);
  actual = util::Crc32(payload.data(), payload.size(), actual);
  if (actual != crc) return false;

  out->lsn = lsn;
  out->type = static_cast<WalRecordType>(type);
  out->page_id = kInvalidPageId;
  out->page_count = 0;
  if (out->type == WalRecordType::kPageImage) {
    if (len != 4 + Page::kSize) return false;
    out->page_id = GetU32(payload.data());
    out->payload.assign(payload.begin() + 4, payload.end());
  } else {
    if (len < 4) return false;
    out->page_count = GetU32(payload.data());
    out->payload.assign(payload.begin() + 4, payload.end());
  }
  offset_ += kHeaderBytes + len;
  out->end_offset = offset_;
  valid_bytes_ = offset_;
  prev_lsn_ = lsn;
  return true;
}

}  // namespace probe::storage
