#include "btree/external_sort.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <queue>
#include <span>

namespace probe::btree {

namespace {

bool EntryLess(const LeafEntry& a, const LeafEntry& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.payload < b.payload;
}

// A run page is a uint16 record count followed by packed fixed-width
// records (key raw, key len, payload); it is a private spill format,
// never a tree page.
struct PackedRecord {
  uint64_t raw;
  uint8_t len;
  uint64_t payload;
} __attribute__((packed));

constexpr size_t kRunHeaderBytes = sizeof(uint16_t);

static_assert(sizeof(PackedRecord) == 17);
static_assert(ExternalSorter::kEntriesPerPage ==
              (storage::Page::kSize - kRunHeaderBytes) / sizeof(PackedRecord));

size_t RecordOffset(size_t i) {
  return kRunHeaderBytes + i * sizeof(PackedRecord);
}

LeafEntry ReadRecord(const storage::Page& page, size_t i) {
  PackedRecord packed;
  std::memcpy(&packed, page.data() + RecordOffset(i), sizeof packed);
  return LeafEntry{ZKey{packed.raw, packed.len}, packed.payload};
}

void WriteRunPage(storage::Pager* pager, storage::PageId id,
                  std::span<const LeafEntry> entries) {
  storage::Page page;
  page.Clear();
  page.Write<uint16_t>(0, static_cast<uint16_t>(entries.size()));
  for (size_t i = 0; i < entries.size(); ++i) {
    const PackedRecord packed{entries[i].key.raw, entries[i].key.len,
                              entries[i].payload};
    std::memcpy(page.data() + RecordOffset(i), &packed, sizeof packed);
  }
  pager->Write(id, page);
}

// Sequential reader over one spilled run.
class RunReader {
 public:
  RunReader(storage::Pager* pager, const std::vector<storage::PageId>* pages,
            uint64_t* pages_read)
      : pager_(pager), pages_(pages), pages_read_(pages_read) {
    LoadNextPage();
  }

  bool valid() const { return valid_; }
  const LeafEntry& entry() const { return current_; }

  void Next() {
    ++index_;
    if (index_ >= count_) {
      LoadNextPage();
    } else {
      current_ = ReadRecord(page_, static_cast<size_t>(index_));
    }
  }

 private:
  void LoadNextPage() {
    valid_ = false;
    while (page_pos_ < pages_->size()) {
      pager_->Read((*pages_)[page_pos_++], &page_);
      ++*pages_read_;
      count_ = page_.Read<uint16_t>(0);
      if (count_ > 0) {
        index_ = 0;
        current_ = ReadRecord(page_, 0);
        valid_ = true;
        return;
      }
    }
  }

  storage::Pager* pager_;
  const std::vector<storage::PageId>* pages_;
  uint64_t* pages_read_;
  storage::Page page_;
  size_t page_pos_ = 0;
  int index_ = 0;
  int count_ = 0;
  LeafEntry current_;
  bool valid_ = false;
};

}  // namespace

ExternalSorter::ExternalSorter(storage::Pager* scratch, size_t budget_entries)
    : scratch_(scratch), budget_(budget_entries) {
  assert(budget_ >= 1);
  buffer_.reserve(budget_);
}

void ExternalSorter::Add(const LeafEntry& entry) {
  buffer_.push_back(entry);
  ++stats_.records;
  if (buffer_.size() >= budget_) Spill();
}

void ExternalSorter::Spill() {
  if (buffer_.empty()) return;
  std::sort(buffer_.begin(), buffer_.end(), EntryLess);
  Run run;
  run.records = buffer_.size();
  size_t pos = 0;
  while (pos < buffer_.size()) {
    const size_t take = std::min(static_cast<size_t>(kEntriesPerPage),
                                 buffer_.size() - pos);
    const storage::PageId id = scratch_->Allocate();
    WriteRunPage(scratch_, id,
                 std::span<const LeafEntry>(buffer_.data() + pos, take));
    run.pages.push_back(id);
    ++stats_.pages_written;
    pos += take;
  }
  stats_.spilled_records += run.records;
  runs_.push_back(std::move(run));
  ++stats_.runs;
  buffer_.clear();
}

void ExternalSorter::Drain(const std::function<void(const LeafEntry&)>& sink) {
  std::sort(buffer_.begin(), buffer_.end(), EntryLess);

  if (runs_.empty()) {
    // Everything fit in memory.
    for (const LeafEntry& entry : buffer_) sink(entry);
    buffer_.clear();
    return;
  }

  // K-way merge of the spilled runs plus the in-memory tail.
  std::vector<RunReader> readers;
  readers.reserve(runs_.size());
  for (const Run& run : runs_) {
    readers.emplace_back(scratch_, &run.pages, &stats_.pages_read);
  }
  size_t buffer_pos = 0;

  // Heap of (entry, source): source < readers.size() is a run; equal to
  // readers.size() is the in-memory buffer.
  struct HeapItem {
    LeafEntry entry;
    size_t source;
  };
  auto heap_greater = [](const HeapItem& a, const HeapItem& b) {
    if (a.entry.key != b.entry.key) return b.entry.key < a.entry.key;
    return b.entry.payload < a.entry.payload;
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(heap_greater)>
      heap(heap_greater);
  for (size_t r = 0; r < readers.size(); ++r) {
    if (readers[r].valid()) heap.push(HeapItem{readers[r].entry(), r});
  }
  if (buffer_pos < buffer_.size()) {
    heap.push(HeapItem{buffer_[buffer_pos], readers.size()});
  }

  while (!heap.empty()) {
    const HeapItem top = heap.top();
    heap.pop();
    sink(top.entry);
    if (top.source < readers.size()) {
      readers[top.source].Next();
      if (readers[top.source].valid()) {
        heap.push(HeapItem{readers[top.source].entry(), top.source});
      }
    } else {
      ++buffer_pos;
      if (buffer_pos < buffer_.size()) {
        heap.push(HeapItem{buffer_[buffer_pos], readers.size()});
      }
    }
  }
  buffer_.clear();
  runs_.clear();
}

}  // namespace probe::btree
