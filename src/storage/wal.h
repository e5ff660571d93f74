#ifndef PROBE_STORAGE_WAL_H_
#define PROBE_STORAGE_WAL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/page.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

/// \file
/// Write-ahead log: the durability substrate under the paged storage.
///
/// The paper's thesis is that z-order spatial search rides on "ordinary
/// database machinery"; a real DBMS's ordinary machinery includes a
/// recovery log. This WAL is the classic physical-redo design:
///
///   * Records are appended sequentially, each stamped with a monotonically
///     increasing LSN and a CRC-32 over everything after the checksum
///     field, so recovery can distinguish a complete record from the torn
///     tail a crash mid-append leaves behind.
///   * Page-image records carry the full after-image of one page (physical
///     redo is idempotent: replaying twice lands on the same bytes).
///   * Commit records mark a consistent boundary. Recovery replays page
///     images only up to the last durable commit; images after it belong
///     to an unfinished batch and are discarded, which is what makes a
///     batch of B-tree mutations atomic.
///   * Checkpoint records open a fresh log: once every page up to the
///     checkpoint has been forced to the database file, the log is
///     rewritten to contain just the checkpoint (with the application's
///     metadata), so the log's length tracks the write rate since the last
///     checkpoint, not the database's lifetime.
///
/// Record layout (little-endian, packed by explicit serialization):
///
///   +--------+--------+--------+------+-----------------+
///   | crc:4  | len:4  | lsn:8  | type | payload (len B) |
///   +--------+--------+--------+------+-----------------+
///            ^~~~~~~~~~~~ crc covers [len .. payload end)
///
/// Commit and checkpoint payloads are `page_count` (the pager's size at
/// the boundary) followed by an opaque metadata blob — the index layer
/// serializes its root/shape there, so the log is self-contained: opening
/// a database is "recover, read the last metadata, attach".
///
/// Concurrency: the log buffer and group commit. The Wal is internally
/// synchronized — multiple writer threads may append and commit
/// concurrently. Appends serialize records into an in-memory log buffer
/// under the log mutex (assigning LSNs in buffer order) without touching
/// the file; the buffer reaches the file at sync points, as one pwrite.
/// Durability is leader–follower: a committer calls GroupCommit(lsn) and,
/// if no sync is in flight, becomes the *leader* — it may linger up to the
/// group-commit delay for more commits to queue, then flushes the buffer
/// and fsyncs once, covering its own commit and every follower whose
/// record made the flush. Followers just wait for the durable LSN to pass
/// theirs. One fsync thus acks a whole group, and because the fsync runs
/// outside the log mutex, other writers keep appending (and the B-tree
/// keeps mutating) while the disk works — the two effects that keep the
/// WAL's cost low under concurrent writers (perfbench's serve_write
/// times the commits).
///
/// Fault injection. Crash testing needs to kill the engine at every record
/// boundary, deterministically. A WalFaultPlan arms the log to stop (or
/// tear) the Nth appended record; once tripped the log is dead() and every
/// later append or sync is a no-op returning failure, exactly like a
/// process that lost its disk. The fault applies at *append* time: the
/// buffered prefix is flushed to the file first (those records were
/// appended successfully; whether they are durable is still governed by
/// which syncs completed), then up to tear_bytes of the victim, so the
/// on-disk picture is byte-identical to the pre-buffering design. Tests
/// then reopen from the files alone.

namespace probe::storage {

/// WAL record types.
enum class WalRecordType : uint8_t {
  /// Full after-image of one page. Payload: page id (4B) + Page::kSize
  /// bytes.
  kPageImage = 1,
  /// Batch boundary. Payload: page_count (4B) + metadata blob.
  kCommit = 2,
  /// Log rewrite boundary. Payload: page_count (4B) + metadata blob.
  kCheckpoint = 3,
};

/// Deterministic crash plan for a Wal (see file comment).
struct WalFaultPlan {
  /// Records appended successfully before the fault trips; the
  /// (fail_after_records+1)-th append is the victim. ~0 = never.
  uint64_t fail_after_records = ~0ull;

  /// Bytes of the victim record that still reach the file (a torn tail);
  /// 0 = the record vanishes entirely (crash just before the write).
  /// Values >= the record size are clamped to leave at least one byte
  /// missing, so the victim is always incomplete.
  uint64_t tear_bytes = 0;
};

/// One decoded record, as recovery sees it.
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kPageImage;
  /// kPageImage: the page id; unused otherwise.
  PageId page_id = kInvalidPageId;
  /// kPageImage: the page bytes. kCommit/kCheckpoint: the metadata blob.
  std::vector<uint8_t> payload;
  /// kCommit/kCheckpoint: the pager's page count at the boundary.
  uint32_t page_count = 0;
  /// Byte offset one past this record in the log file.
  uint64_t end_offset = 0;
};

/// Append counters of a Wal.
struct WalStats {
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t syncs = 0;
  /// Syncs that covered at least one commit record.
  uint64_t group_syncs = 0;
  /// Commit records covered by those syncs; group_commits / group_syncs is
  /// the mean group size (1.0 = no batching happened).
  uint64_t group_commits = 0;
  /// Largest commit group one fsync covered.
  uint64_t max_group = 0;
};

/// Append-only log file with an in-memory log buffer and leader–follower
/// group commit. Thread-safe: writers append and commit concurrently (see
/// file comment).
class Wal {
 public:
  /// Opens (or creates) the log at `path`, appending after any existing
  /// content. `truncate` starts an empty log. The next LSN continues from
  /// the last valid record already in the file.
  explicit Wal(const std::string& path, bool truncate = false);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// True iff the file opened; all appends require it.
  bool ok() const { return fd_ >= 0; }

  /// True once an armed fault has tripped; every later mutation fails.
  bool dead() const { return dead_.load(std::memory_order_acquire); }

  /// Arms (or clears, with the default plan) the crash plan. Not
  /// synchronized against in-flight appends: arm before handing the log to
  /// writer threads (every test does).
  void SetFaultPlan(const WalFaultPlan& plan) { fault_ = plan; }

  /// Leader linger: how long a group-commit leader waits for more commits
  /// to join its fsync. 0 (the default) syncs immediately — single-writer
  /// behavior. Groups still form under concurrency even at 0, because
  /// commits queued while a sync is in flight share the next one. An
  /// explicit Sync() or RewriteWithCheckpoint() ends an in-progress
  /// linger immediately — explicit syncs never pay the delay.
  void SetGroupCommitDelay(std::chrono::microseconds delay);
  std::chrono::microseconds group_commit_delay() const;

  /// Appends a page after-image to the log buffer. Returns the record's
  /// LSN, or 0 if the log is dead (LSNs start at 1).
  uint64_t AppendPageImage(PageId id, const Page& page);

  /// Appends a commit boundary and waits for it to become durable (via
  /// GroupCommit). Returns the LSN, or 0 on a dead log (the batch is then
  /// not durable).
  uint64_t AppendCommit(uint32_t page_count, std::span<const uint8_t> meta);

  /// Appends a commit boundary to the log buffer *without* waiting for
  /// durability. Returns the LSN to later pass to GroupCommit, or 0 on a
  /// dead log. The commit is not durable (and must not be acked) until
  /// GroupCommit(lsn) returns true.
  uint64_t AppendCommitDeferred(uint32_t page_count,
                                std::span<const uint8_t> meta);

  /// Blocks until every record up to `lsn` is durable, electing this
  /// thread leader for one flush+fsync if none is in flight (see file
  /// comment). Returns false on a dead log. `lsn` of 0 returns false.
  bool GroupCommit(uint64_t lsn);

  /// Replaces the log with a single checkpoint record, atomically: the new
  /// content is written to a temp file, fsynced, and renamed over `path`.
  /// LSNs keep counting. Returns the LSN, or 0 on a dead log. Caller must
  /// guarantee no concurrent appends (checkpoints run at a quiescent
  /// commit boundary); in-flight GroupCommit waiters are drained first.
  uint64_t RewriteWithCheckpoint(uint32_t page_count,
                                 std::span<const uint8_t> meta);

  /// Flushes the log buffer and fsyncs the file; on return every record
  /// appended before the call is durable. Returns false on a dead log.
  bool Sync();

  /// Flushes the log buffer to the file without fsyncing (records become
  /// visible to a WalReader, durability still pends). Returns false on a
  /// dead log.
  bool Flush();

  /// Next LSN to be assigned.
  uint64_t next_lsn() const;

  /// Highest LSN known durable (covered by a completed fsync).
  uint64_t durable_lsn() const;

  /// Current log size in bytes (as appended, including still-buffered
  /// records; the file may be shorter after a tripped tear fault).
  uint64_t size_bytes() const;

  /// Snapshot of the append/sync counters.
  WalStats stats() const;

  const std::string& path() const { return path_; }

 private:
  // Serializes and appends one record to the log buffer; applies the
  // fault plan.
  uint64_t AppendRecord(WalRecordType type,
                        std::span<const uint8_t> header_extra,
                        std::span<const uint8_t> payload);

  // pwrites the buffered records to the file. On short write the log goes
  // dead. True on success (or an already-empty buffer).
  bool FlushLocked() PROBE_REQUIRES(mu_);

  // One leader turn: flush the buffer, fsync outside the lock, advance
  // durable_lsn_, account the commit group. Requires sync_active_ to have
  // been claimed by the caller; clears it and notifies before returning.
  // Returns false on a dead log.
  bool LeaderSyncLocked() PROBE_REQUIRES(mu_);

  void MarkDeadLocked() PROBE_REQUIRES(mu_);

  std::string path_;
  int fd_ = -1;
  WalFaultPlan fault_;
  // dead() is polled lock-free by ok() checks up the stack; transitions
  // only false -> true, always under mu_.
  std::atomic<bool> dead_{false};

  mutable util::Mutex mu_;
  // Signaled when durable_lsn_ advances, a sync turn ends, or the log
  // dies.
  util::CondVar commit_cv_;

  // The log buffer: serialized records not yet written to the file.
  std::vector<uint8_t> buffer_ PROBE_GUARDED_BY(mu_);
  uint64_t next_lsn_ PROBE_GUARDED_BY(mu_) = 1;
  // Logical end of the log (file bytes + buffered bytes).
  uint64_t offset_ PROBE_GUARDED_BY(mu_) = 0;
  // Where the next flush pwrites (file bytes only).
  uint64_t file_offset_ PROBE_GUARDED_BY(mu_) = 0;
  // Highest LSN written to the file / covered by an fsync.
  uint64_t flushed_lsn_ PROBE_GUARDED_BY(mu_) = 0;
  uint64_t durable_lsn_ PROBE_GUARDED_BY(mu_) = 0;
  // Commit records appended since the last sync claimed its group.
  uint64_t pending_commits_ PROBE_GUARDED_BY(mu_) = 0;
  // True while one thread owns the flush+fsync turn (the leader).
  bool sync_active_ PROBE_GUARDED_BY(mu_) = false;
  // Threads blocked in Sync()/RewriteWithCheckpoint() waiting for the
  // current turn to end. A lingering leader cuts its group-commit delay
  // short when this is nonzero: an explicit sync wants durability *now*,
  // so there is nothing to gain by waiting for more commits to join.
  uint64_t sync_waiters_ PROBE_GUARDED_BY(mu_) = 0;
  std::chrono::microseconds group_delay_ PROBE_GUARDED_BY(mu_){0};
  WalStats stats_ PROBE_GUARDED_BY(mu_);
};

/// Forward scanner over a WAL file, stopping at the first record whose
/// header or checksum does not validate — the torn tail.
class WalReader {
 public:
  explicit WalReader(const std::string& path);
  ~WalReader();

  WalReader(const WalReader&) = delete;
  WalReader& operator=(const WalReader&) = delete;

  /// False when the file does not exist (an empty log is ok()).
  bool ok() const { return fd_ >= 0; }

  /// Decodes the next valid record into `*out`. Returns false at the end
  /// of the valid prefix (clean end, torn record, or bad CRC alike).
  bool Next(WalRecord* out);

  /// Byte offset one past the last successfully decoded record: the length
  /// recovery truncates the log to.
  uint64_t valid_bytes() const { return valid_bytes_; }

 private:
  int fd_ = -1;
  uint64_t offset_ = 0;
  uint64_t valid_bytes_ = 0;
  uint64_t file_size_ = 0;
  uint64_t prev_lsn_ = 0;  // LSNs must strictly increase within one log
};

}  // namespace probe::storage

#endif  // PROBE_STORAGE_WAL_H_
