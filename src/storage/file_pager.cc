#include "storage/file_pager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cassert>

#include "obs/runtime_metrics.h"

namespace probe::storage {

FilePager::FilePager(const std::string& path, bool truncate) {
  int flags = O_RDWR | O_CREAT;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) return;
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  page_count_ = static_cast<uint32_t>(static_cast<uint64_t>(size) / Page::kSize);
}

FilePager::~FilePager() {
  if (fd_ >= 0) ::close(fd_);
}

PageId FilePager::Allocate() {
  assert(fd_ >= 0);
  const PageId id = page_count_++;
  // Extend the file with a zeroed page so reads of fresh pages are valid.
  Page zero;
  Check(::pwrite(fd_, zero.data(), Page::kSize,
                 static_cast<off_t>(id) * static_cast<off_t>(Page::kSize)) ==
        static_cast<ssize_t>(Page::kSize));
  ++stats_.allocations;
  return id;
}

void FilePager::Read(PageId id, Page* out) {
  assert(fd_ >= 0);
  assert(id < page_count_);
  const ssize_t bytes =
      ::pread(fd_, out->data(), Page::kSize,
              static_cast<off_t>(id) * static_cast<off_t>(Page::kSize));
  if (bytes != static_cast<ssize_t>(Page::kSize)) {
    Check(false);
    out->Clear();  // no half-read page reaches a caller
  }
  ++stats_.reads;
  if (obs::Enabled()) {
    obs::StorageMetrics& m = obs::StorageMetrics::Default();
    m.pager_reads->Increment();
    m.pager_bytes_read->Increment(Page::kSize);
  }
}

void FilePager::Write(PageId id, const Page& page) {
  assert(fd_ >= 0);
  assert(id < page_count_);
  Check(::pwrite(fd_, page.data(), Page::kSize,
                 static_cast<off_t>(id) * static_cast<off_t>(Page::kSize)) ==
        static_cast<ssize_t>(Page::kSize));
  ++stats_.writes;
  if (obs::Enabled()) {
    obs::StorageMetrics& m = obs::StorageMetrics::Default();
    m.pager_writes->Increment();
    m.pager_bytes_written->Increment(Page::kSize);
  }
}

void FilePager::Sync() {
  assert(fd_ >= 0);
  // invariant-lint waiver(raw-fsync): this is Pager::Sync's contract —
  // the checkpoint force path syncs the *base* file here; WAL durability
  // still flows exclusively through storage/wal.
  Check(::fsync(fd_) == 0);
  if (obs::Enabled()) obs::StorageMetrics::Default().pager_syncs->Increment();
}

void FilePager::TruncateTo(uint32_t page_count) {
  assert(fd_ >= 0);
  const off_t size =
      static_cast<off_t>(page_count) * static_cast<off_t>(Page::kSize);
  Check(::ftruncate(fd_, size) == 0);
  page_count_ = page_count;
}

}  // namespace probe::storage
