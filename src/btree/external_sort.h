#ifndef PROBE_BTREE_EXTERNAL_SORT_H_
#define PROBE_BTREE_EXTERNAL_SORT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "btree/node.h"
#include "storage/pager.h"

/// \file
/// External merge sort of (z value, payload) records over the page store.
///
/// Section 4: "Z values can easily be represented as integers ... so
/// existing sort utilities can be used to create z ordered sequences."
/// This is that sort utility for datasets larger than memory: records are
/// buffered up to a budget, spilled as sorted runs of pages on a scratch
/// pager, and k-way merged straight into a consumer — typically
/// BTree::BulkBuilder, so an index build touches each record O(1) times
/// in memory regardless of dataset size.

namespace probe::btree {

/// Sorting statistics.
struct ExternalSortStats {
  /// Sorted runs spilled to the scratch pager.
  uint64_t runs = 0;
  /// Pages written while spilling.
  uint64_t pages_written = 0;
  /// Pages read during the merge.
  uint64_t pages_read = 0;
  /// Records that went through the sorter.
  uint64_t records = 0;
  /// Records that were spilled (the rest stayed in the final buffer).
  uint64_t spilled_records = 0;
};

/// Streaming external sorter for LeafEntry records.
class ExternalSorter {
 public:
  /// Records per run page: 17-byte records after a 2-byte count.
  static constexpr int kEntriesPerPage = 240;

  /// `scratch` holds the spill pages; `budget_entries` is the in-memory
  /// buffer size (>= 1). The scratch pager must outlive the sorter.
  ExternalSorter(storage::Pager* scratch, size_t budget_entries);

  /// Adds one record (any order).
  void Add(const LeafEntry& entry);

  /// Sorts and merges everything added so far, delivering records in
  /// (key, payload) order. Must be called exactly once.
  void Drain(const std::function<void(const LeafEntry&)>& sink);

  const ExternalSortStats& stats() const { return stats_; }

 private:
  struct Run {
    std::vector<storage::PageId> pages;
    uint64_t records = 0;
  };

  void Spill();

  storage::Pager* scratch_;
  size_t budget_;
  std::vector<LeafEntry> buffer_;
  std::vector<Run> runs_;
  ExternalSortStats stats_;
};

}  // namespace probe::btree

#endif  // PROBE_BTREE_EXTERNAL_SORT_H_
