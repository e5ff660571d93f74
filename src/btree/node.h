#ifndef PROBE_BTREE_NODE_H_
#define PROBE_BTREE_NODE_H_

#include <cstdint>

#include "btree/zkey.h"
#include "storage/page.h"

/// \file
/// On-page node layouts of the prefix B+-tree.
///
/// Two node kinds share a small header:
///   byte 0      : kind (kLeafV2Kind = leaf, kInternalKind = internal)
///   bytes 2..3  : entry count (uint16)
///   bytes 4..7  : leaf only — PageId of the next leaf (the chain that
///                 gives the sequential access the merge algorithms need)
/// Leaves are the compressed pages of leaf_codec.h. Internal nodes hold a
/// leftmost child followed by (separator, child) entries where the
/// separator is a *prefix-truncated* key (the "prefix B+-tree" of the
/// paper's experimental setup): the shortest z-value prefix that routes
/// correctly, which both shrinks separators and aligns them with element
/// boundaries.
///
/// These views do not own the page; they are cheap stamps over a pinned
/// buffer frame.

namespace probe::btree {

/// Node kind tags. Kind 0 was the fixed-width leaf of older files, which
/// no tree reads or writes (DurableIndex refuses such files at open).
inline constexpr uint8_t kInternalKind = 1;
inline constexpr uint8_t kLeafV2Kind = 2;

/// True for a leaf page.
inline constexpr bool IsLeafKind(uint8_t kind) { return kind == kLeafV2Kind; }

/// Byte offsets of the common header.
inline constexpr size_t kKindOffset = 0;
inline constexpr size_t kCountOffset = 2;
inline constexpr size_t kNextLeafOffset = 4;

/// A (key, payload) record in a leaf.
struct LeafEntry {
  ZKey key;
  uint64_t payload = 0;
};

/// Read/write view of an internal page.
class InternalView {
 public:
  /// Bytes per (separator, child) entry: sep raw (8) + sep len (1) +
  /// child id (4).
  static constexpr size_t kEntryBytes = 13;
  /// The leftmost child id sits first in the entry area, at byte 12 (an
  /// internal node leaves bytes 4..11 unused).
  static constexpr size_t kChild0Offset = 12;
  static constexpr size_t kPairsOffset = kChild0Offset + sizeof(uint32_t);

  static constexpr int kMaxCapacity =
      static_cast<int>((storage::Page::kSize - kPairsOffset) / kEntryBytes);

  explicit InternalView(storage::Page* page) : page_(page) {}

  /// Stamps a fresh page as an internal node with the given leftmost child.
  void Init(storage::PageId child0);

  /// Number of (separator, child) pairs; the node has count()+1 children.
  int count() const { return page_->Read<uint16_t>(kCountOffset); }
  void set_count(int n) {
    page_->Write<uint16_t>(kCountOffset, static_cast<uint16_t>(n));
  }

  storage::PageId child0() const {
    return page_->Read<storage::PageId>(kChild0Offset);
  }
  void set_child0(storage::PageId id) {
    page_->Write<storage::PageId>(kChild0Offset, id);
  }

  ZKey SeparatorAt(int i) const;
  storage::PageId ChildAt(int i) const;  // i in [0, count()]; 0 = child0
  void SetSeparator(int i, const ZKey& key);
  void SetPair(int i, const ZKey& sep, storage::PageId child);

  /// Inserts pair (sep, child) at position `i`.
  void InsertPairAt(int i, const ZKey& sep, storage::PageId child);

  /// Removes pair `i` (separator i and the child to its right).
  void RemovePairAt(int i);

  /// Child index to descend into when looking for the *leftmost* entry with
  /// key >= `key`: the child after the last separator that is < key.
  int DescendLeft(const ZKey& key) const;

  /// Child index for inserts: the child after the last separator <= key,
  /// so duplicates append to the right.
  int DescendRight(const ZKey& key) const;

 private:
  storage::Page* page_;
};

/// Shortest z-value prefix p of `right` with `left` < p (and, since a
/// prefix never exceeds its extension, p <= right). Used as the separator
/// pushed up when a node is split between keys `left` and `right`; this is
/// the prefix truncation that gives the prefix B+-tree its name. Requires
/// left < right; when left == right (a run of duplicate keys is being
/// split) returns `right` itself.
ZKey PrefixSeparator(const ZKey& left, const ZKey& right);

}  // namespace probe::btree

#endif  // PROBE_BTREE_NODE_H_
