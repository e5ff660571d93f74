#ifndef PROBE_STORAGE_FILE_PAGER_H_
#define PROBE_STORAGE_FILE_PAGER_H_

#include <atomic>
#include <string>

#include "storage/pager.h"

/// \file
/// A file-backed pager: the simulated disk made durable.
///
/// Same contract as MemPager, but pages live in an ordinary file
/// (page id * Page::kSize is the file offset), so an index built through
/// a BufferPool can be flushed, the process restarted, and the tree
/// re-attached (see btree::BTree::Attach). Used by the persistence tests
/// and available to applications that want real files; the experiment
/// benches stay on MemPager because their metric — page accesses — is
/// medium-independent.
///
/// Fail-stop: a failed or short pread/pwrite/fsync/ftruncate turns ok()
/// false for good. The pager keeps no guess at what reached the file; its
/// owner (TxnPager's checkpoint, recovery) checks ok() and stops.

namespace probe::storage {

/// Pager over a file. Not thread-safe (matching the rest of the engine),
/// except that ok() may be read while another thread does I/O.
class FilePager final : public Pager {
 public:
  /// Opens (or creates) `path`. `truncate` wipes existing contents;
  /// otherwise existing pages become allocated pages 0..n-1.
  explicit FilePager(const std::string& path, bool truncate = false);
  ~FilePager() override;

  FilePager(const FilePager&) = delete;
  FilePager& operator=(const FilePager&) = delete;

  /// True iff the file opened and no call on it has failed since; all
  /// other calls require that it opened.
  bool ok() const override { return fd_ >= 0 && !failed_.load(); }

  PageId Allocate() override;
  void Read(PageId id, Page* out) override;
  void Write(PageId id, const Page& page) override;
  uint32_t page_count() const override { return page_count_; }
  const PagerStats& stats() const override { return stats_; }
  void ResetStats() override { stats_.Reset(); }

  /// Flushes the OS file buffers (fsync).
  void Sync() override;

  /// Shrinks (or, with zero pages, extends) the file to exactly
  /// `page_count` pages. Recovery uses this to discard pages a crashed
  /// checkpoint allocated past the last committed state.
  void TruncateTo(uint32_t page_count);

 private:
  // Makes ok() false for good unless `done` is true.
  void Check(bool done) { if (!done) failed_.store(true); }

  int fd_ = -1;
  std::atomic<bool> failed_{false};
  uint32_t page_count_ = 0;
  PagerStats stats_;
};

}  // namespace probe::storage

#endif  // PROBE_STORAGE_FILE_PAGER_H_
