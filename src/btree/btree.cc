#include "btree/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "btree/audit.h"
#include "btree/simd_filter.h"
#include "probe/check.h"

namespace probe::btree {

namespace {

using storage::PageId;
using storage::PageRef;

/// True for a leaf, false for an internal node. A tree holds no other
/// kind; a page of any other kind (such as a fixed-width leaf of an older
/// file, kind 0) would otherwise be descended as an internal node.
bool IsLeafPage(const storage::Page& page) {
  const uint8_t kind = page.Read<uint8_t>(kKindOffset);
  PROBE_ASSERT_MSG(kind == kInternalKind || IsLeafKind(kind),
                   "page is neither an internal node nor a leaf");
  return IsLeafKind(kind);
}

/// Picks a split index in [1, n-1] whose halves both satisfy the v2
/// worst-case byte budget, preferring a distinct-key boundary nearest
/// `preferred` (so prefix separators stay strict where possible) and
/// falling back to any feasible index. Returns -1 when no split fits —
/// possible only for rebalancing unions of two near-worst-full pages,
/// never for an overflowing single page (the half left of the largest
/// feasible left edge leaves at most one entry's worth on the right).
int PickV2Split(const std::vector<LeafEntry>& entries, int preferred,
                int max_count) {
  const int n = static_cast<int>(entries.size());
  std::vector<size_t> worst(static_cast<size_t>(n) + 1, 0);
  for (int i = 0; i < n; ++i) {
    worst[i + 1] = worst[i] + V2EntryWorstSize(entries[i]);
  }
  auto fits_at = [&](int j) {
    return j >= 1 && j <= n - 1 && j <= max_count && n - j <= max_count &&
           kV2EntriesOffset + worst[j] <= storage::Page::kSize &&
           kV2EntriesOffset + (worst[n] - worst[j]) <= storage::Page::kSize;
  };
  auto distinct_at = [&](int j) {
    return j >= 1 && j <= n - 1 && entries[j - 1].key < entries[j].key;
  };
  if (distinct_at(preferred) && fits_at(preferred)) return preferred;
  for (int delta = 1; delta < n; ++delta) {
    if (distinct_at(preferred - delta) && fits_at(preferred - delta)) {
      return preferred - delta;
    }
    if (distinct_at(preferred + delta) && fits_at(preferred + delta)) {
      return preferred + delta;
    }
  }
  // All-duplicate page (or no distinct boundary fits): take any split
  // within budget.
  if (fits_at(preferred)) return preferred;
  for (int delta = 1; delta < n; ++delta) {
    if (fits_at(preferred - delta)) return preferred - delta;
    if (fits_at(preferred + delta)) return preferred + delta;
  }
  return -1;
}

}  // namespace

BTree::BTree(storage::BufferPool* pool, const BTreeConfig& config)
    : pool_(pool), config_(config), height_(1) {
  assert(config_.leaf_capacity >= 2 &&
         config_.leaf_capacity <= kV2MaxEntries - 1);
  assert(config_.internal_capacity >= 2 &&
         config_.internal_capacity <= InternalView::kMaxCapacity - 1);
  PageRef ref = pool_->New(&root_);
  V2Encode(&ref.page(), {}, storage::kInvalidPageId);
  ref.MarkDirty();
}

void BTree::Insert(const ZKey& key, uint64_t payload) {
  SplitResult result;
  InsertRec(root_, key, payload, &result);
  if (result.split) {
    PageId new_root_id;
    PageRef ref = pool_->New(&new_root_id);
    InternalView node(&ref.page());
    node.Init(root_);
    node.InsertPairAt(0, result.separator, result.new_page);
    ref.MarkDirty();
    root_ = new_root_id;
    ++height_;
  }
  ++size_;
}

void BTree::InsertRec(PageId page_id, const ZKey& key, uint64_t payload,
                      SplitResult* result) {
  result->split = false;
  PageRef ref = pool_->Fetch(page_id);
  if (IsLeafPage(ref.page())) {
    InsertLeaf(ref, key, payload, result);
    return;
  }

  InternalView node(&ref.page());
  const int child_idx = node.DescendRight(key);
  SplitResult child_result;
  InsertRec(node.ChildAt(child_idx), key, payload, &child_result);
  if (!child_result.split) return;

  node.InsertPairAt(child_idx, child_result.separator, child_result.new_page);
  ref.MarkDirty();
  if (node.count() <= config_.internal_capacity) {
    PROBE_AUDIT(AuditInternalPage(node, 1, config_.internal_capacity));
    return;
  }

  // Split the internal node: the middle separator moves up.
  const int n = node.count();
  const int mid = n / 2;
  PageId right_id;
  PageRef right_ref = pool_->New(&right_id);
  InternalView right(&right_ref.page());
  right.Init(node.ChildAt(mid + 1));
  for (int i = mid + 1; i < n; ++i) {
    right.InsertPairAt(i - mid - 1, node.SeparatorAt(i), node.ChildAt(i + 1));
  }
  result->split = true;
  result->separator = node.SeparatorAt(mid);
  result->new_page = right_id;
  node.set_count(mid);
  right_ref.MarkDirty();
  PROBE_AUDIT(AuditInternalPage(node, 1, config_.internal_capacity));
  PROBE_AUDIT(AuditInternalPage(right, 1, config_.internal_capacity));
}

void BTree::InsertLeaf(PageRef& ref, const ZKey& key, uint64_t payload,
                       SplitResult* result) {
  // Admission is the worst-case byte budget plus the configured count
  // cap. An insert that keeps the page's first key and shared prefix is
  // written in place; the rest decode -> edit -> re-encode (or split).
  const int cap = config_.leaf_capacity;
  if (V2InsertInPlace(&ref.page(), LeafEntry{key, payload}, cap)) {
    ref.MarkDirty();
    PROBE_AUDIT(AuditLeafV2Page(ref.page(), 1, cap));
    return;
  }
  std::vector<LeafEntry> entries;
  V2Decode(ref.page(), &entries);
  auto it = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const LeafEntry& e, const ZKey& k) { return e.key < k; });
  // Order duplicates by payload so the layout is insertion-independent.
  while (it != entries.end() && it->key == key && it->payload < payload) ++it;
  entries.insert(it, LeafEntry{key, payload});
  const PageId next = ref.page().Read<PageId>(kNextLeafOffset);

  if (static_cast<int>(entries.size()) <= cap && V2Admits(entries)) {
    V2Encode(&ref.page(), entries, next);
    ref.MarkDirty();
    PROBE_AUDIT(AuditLeafV2Page(ref.page(), 1, cap));
    return;
  }

  const int n = static_cast<int>(entries.size());
  const int split = PickV2Split(entries, n / 2, cap);
  PROBE_ASSERT_MSG(split > 0, "v2 leaf split infeasible");
  PageId right_id;
  PageRef right_ref = pool_->New(&right_id);
  const std::span<const LeafEntry> all(entries);
  V2Encode(&right_ref.page(), all.subspan(static_cast<size_t>(split)), next);
  V2Encode(&ref.page(), all.first(static_cast<size_t>(split)), right_id);
  ref.MarkDirty();
  right_ref.MarkDirty();
  result->split = true;
  result->separator =
      PrefixSeparator(entries[split - 1].key, entries[split].key);
  result->new_page = right_id;
  PROBE_AUDIT(AuditLeafV2Page(ref.page(), 1, cap));
  PROBE_AUDIT(AuditLeafV2Page(right_ref.page(), 1, cap));
}

bool BTree::Delete(const ZKey& key, uint64_t payload) {
  bool underflow = false;
  if (!DeleteRec(root_, key, payload, &underflow)) return false;
  --size_;
  // Shrink the root when an internal root lost its last separator.
  for (;;) {
    PageRef ref = pool_->Fetch(root_);
    if (IsLeafPage(ref.page())) break;
    InternalView node(&ref.page());
    if (node.count() > 0) break;
    const PageId only_child = node.child0();
    ref.Release();
    root_ = only_child;
    --height_;
  }
  return true;
}

bool BTree::DeleteRec(PageId page_id, const ZKey& key, uint64_t payload,
                      bool* underflow) {
  *underflow = false;
  PageRef ref = pool_->Fetch(page_id);
  if (IsLeafPage(ref.page())) {
    std::vector<LeafEntry> entries;
    V2Decode(ref.page(), &entries);
    auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const LeafEntry& e, const ZKey& k) { return e.key < k; });
    for (; it != entries.end() && it->key == key; ++it) {
      if (it->payload == payload) {
        const PageId next = ref.page().Read<PageId>(kNextLeafOffset);
        entries.erase(it);
        const size_t used = V2Encode(&ref.page(), entries, next);
        ref.MarkDirty();
        // A leaf underflows when it is short on both bytes and entries:
        // under a quarter of the page and under half the capacity. At the
        // byte-driven default the count never binds (a page under a
        // quarter full holds at most 331 entries); at a small configured
        // capacity, such as the paper's 20, the bytes never do.
        *underflow = page_id != root_ && used < storage::Page::kSize / 4 &&
                     static_cast<int>(entries.size()) <
                         config_.leaf_capacity / 2;
        PROBE_AUDIT(AuditLeafV2Page(ref.page(), 0, config_.leaf_capacity));
        return true;
      }
    }
    return false;
  }

  InternalView node(&ref.page());
  // Equal keys may straddle a separator equal to the key, so every child
  // between the left and right descent positions is a candidate.
  const int lo = node.DescendLeft(key);
  const int hi = node.DescendRight(key);
  for (int child_idx = lo; child_idx <= hi; ++child_idx) {
    bool child_underflow = false;
    if (DeleteRec(node.ChildAt(child_idx), key, payload, &child_underflow)) {
      if (child_underflow) {
        FixUnderflow(node, child_idx);
        ref.MarkDirty();
        *underflow = page_id != root_ && node.count() < MinInternalCount();
        PROBE_AUDIT(AuditInternalPage(node, 0, config_.internal_capacity));
      }
      return true;
    }
  }
  return false;
}

void BTree::FixUnderflow(InternalView& parent, int child_idx) {
  const PageId child_id = parent.ChildAt(child_idx);
  PageRef child_ref = pool_->Fetch(child_id);
  if (IsLeafPage(child_ref.page())) {
    child_ref.Release();
    FixLeafUnderflow(parent, child_idx);
    return;
  }

  // Prefer borrowing from a sibling; merge when both are at minimum.
  // Try left sibling first, then right.
  InternalView child(&child_ref.page());
  for (int dir = -1; dir <= 1; dir += 2) {
    const int sib_idx = child_idx + dir;
    if (sib_idx < 0 || sib_idx > parent.count()) continue;
    PageRef sib_ref = pool_->Fetch(parent.ChildAt(sib_idx));
    InternalView sib(&sib_ref.page());
    if (sib.count() <= MinInternalCount()) continue;

    // Borrow one pair across the parent separator.
    const int sep_idx = dir < 0 ? child_idx - 1 : child_idx;
    const ZKey parent_sep = parent.SeparatorAt(sep_idx);
    if (dir < 0) {
      // Rotate right: sibling's last child becomes child's new child0.
      const int last = sib.count() - 1;
      const ZKey up = sib.SeparatorAt(last);
      const PageId moved_child = sib.ChildAt(last + 1);
      sib.RemovePairAt(last);
      child.InsertPairAt(0, parent_sep, child.child0());
      child.set_child0(moved_child);
      parent.SetSeparator(sep_idx, up);
    } else {
      // Rotate left: sibling's child0 appends to child.
      const ZKey up = sib.SeparatorAt(0);
      const PageId moved_child = sib.child0();
      child.InsertPairAt(child.count(), parent_sep, moved_child);
      sib.set_child0(sib.ChildAt(1));
      sib.RemovePairAt(0);
      parent.SetSeparator(sep_idx, up);
    }
    child_ref.MarkDirty();
    sib_ref.MarkDirty();
    return;
  }

  // Merge with a sibling (left if it exists, else right). After merging,
  // the separated pair disappears from the parent.
  const int left_idx = child_idx > 0 ? child_idx - 1 : child_idx;
  const int right_idx = left_idx + 1;
  assert(right_idx <= parent.count());
  PageRef left_ref = pool_->Fetch(parent.ChildAt(left_idx));
  PageRef right_ref = pool_->Fetch(parent.ChildAt(right_idx));
  InternalView left(&left_ref.page());
  InternalView right(&right_ref.page());
  const ZKey parent_sep = parent.SeparatorAt(left_idx);
  left.InsertPairAt(left.count(), parent_sep, right.child0());
  const int moved = right.count();
  for (int i = 0; i < moved; ++i) {
    left.InsertPairAt(left.count(), right.SeparatorAt(i),
                      right.ChildAt(i + 1));
  }
  left_ref.MarkDirty();
  parent.RemovePairAt(left_idx);
  // The right page is no longer referenced; the simulated disk has no free
  // list, so it is simply abandoned.
}

void BTree::FixLeafUnderflow(InternalView& parent, int child_idx) {
  // Merge-or-redistribute with the left neighbor when one exists, else
  // the right.
  const int left_idx = child_idx > 0 ? child_idx - 1 : child_idx;
  const int right_idx = left_idx + 1;
  assert(right_idx <= parent.count());
  PageRef left_ref = pool_->Fetch(parent.ChildAt(left_idx));
  PageRef right_ref = pool_->Fetch(parent.ChildAt(right_idx));
  std::vector<LeafEntry> combined;
  std::vector<LeafEntry> right_entries;
  V2Decode(left_ref.page(), &combined);
  V2Decode(right_ref.page(), &right_entries);
  combined.insert(combined.end(), right_entries.begin(), right_entries.end());
  const PageId tail = right_ref.page().Read<PageId>(kNextLeafOffset);

  const int cap = config_.leaf_capacity;
  if (static_cast<int>(combined.size()) <= cap && V2Admits(combined)) {
    V2Encode(&left_ref.page(), combined, tail);
    left_ref.MarkDirty();
    parent.RemovePairAt(left_idx);
    PROBE_AUDIT(AuditLeafV2Page(left_ref.page(), 1, cap));
    // The right page is no longer referenced; the simulated disk has no
    // free list, so it is simply abandoned.
    return;
  }

  const int split =
      PickV2Split(combined, static_cast<int>(combined.size()) / 2, cap);
  if (split <= 0) return;  // no feasible balance point: tolerate underflow
  const std::span<const LeafEntry> all(combined);
  V2Encode(&right_ref.page(), all.subspan(static_cast<size_t>(split)), tail);
  V2Encode(&left_ref.page(), all.first(static_cast<size_t>(split)),
           parent.ChildAt(right_idx));
  left_ref.MarkDirty();
  right_ref.MarkDirty();
  parent.SetSeparator(
      left_idx, PrefixSeparator(combined[split - 1].key, combined[split].key));
  PROBE_AUDIT(AuditLeafV2Page(left_ref.page(), 1, cap));
  PROBE_AUDIT(AuditLeafV2Page(right_ref.page(), 1, cap));
}

BTree::Cursor::Cursor(const BTree* tree) : tree_(tree) {}

bool BTree::Cursor::SeekFirst() {
  return Seek(ZKey{0, 0});
}

bool BTree::Cursor::Seek(const ZKey& key) {
  PageId page_id = tree_->root_;
  PageRef ref = tree_->pool_->Fetch(page_id);
  while (!IsLeafPage(ref.page())) {
    ++internal_loads_;
    InternalView node(&ref.page());
    page_id = node.ChildAt(node.DescendLeft(key));
    ref = tree_->pool_->Fetch(page_id);
  }
  EnterLeaf(std::move(ref), page_id, key);
  while (index_ >= static_cast<int>(cache_entries_.size())) {
    if (!AdvanceLeaf()) return false;
    EnsureCache();
  }
  valid_ = true;
  current_ = cache_entries_[static_cast<size_t>(index_)];
  return true;
}

bool BTree::Cursor::SeekWithinLeaf(const ZKey& lo, const ZKey& hi) {
  // Descend the internal levels only (height() - 1 of them), keeping the
  // separator just right of the path: the deepest one is the tightest.
  PageId page_id = tree_->root_;
  bool bounded = false;
  ZKey right;
  for (int level = 1; level < tree_->height_; ++level) {
    PageRef ref = tree_->pool_->Fetch(page_id);
    ++internal_loads_;
    const InternalView node(&ref.page());
    const int child = node.DescendLeft(lo);
    if (child < node.count()) {
      bounded = true;
      right = node.SeparatorAt(child);
    }
    page_id = node.ChildAt(child);
  }
  if (bounded && !(hi < right)) return false;
  PageRef leaf = tree_->pool_->Fetch(page_id);
  PROBE_ASSERT(IsLeafPage(leaf.page()));
  EnterLeaf(std::move(leaf), page_id, lo);
  valid_ = index_ < static_cast<int>(cache_entries_.size());
  if (valid_) current_ = cache_entries_[static_cast<size_t>(index_)];
  return true;
}

// Pins `page_id` as the current leaf and positions at the first entry
// >= `key` on it (possibly one past its end).
void BTree::Cursor::EnterLeaf(PageRef ref, PageId page_id, const ZKey& key) {
  // Re-landing on the leaf the cursor already sits on is not a new page
  // access: the page is resident (the LRU argument of Section 4), so the
  // paper's "data pages accessed" metric counts it once. The decoded
  // cache survives for the same reason.
  if (page_id != leaf_page_) {
    ++leaf_loads_;
    leaf_entries_seen_ +=
        static_cast<uint64_t>(ref.page().Read<uint16_t>(kCountOffset));
    cache_valid_ = false;
  }
  leaf_ref_ = std::move(ref);
  leaf_page_ = page_id;
  EnsureCache();
  index_ = static_cast<int>(
      std::lower_bound(
          cache_entries_.begin(), cache_entries_.end(), key,
          [](const LeafEntry& e, const ZKey& k) { return e.key < k; }) -
      cache_entries_.begin());
}

bool BTree::Cursor::Next() {
  assert(valid_);
  return Advance(1);
}

bool BTree::Cursor::Advance(int k) {
  assert(valid_);
  assert(k >= 0);
  index_ += k;
  while (index_ >= LeafCountHeader()) {
    if (!AdvanceLeaf()) return false;
  }
  EnsureCache();
  current_ = cache_entries_[static_cast<size_t>(index_)];
  return true;
}

int BTree::Cursor::RunLengthLE(uint64_t bound) {
  assert(valid_);
  EnsureCache();
  return UpperBoundZ(cache_z_.data() + index_,
                     static_cast<int>(cache_z_.size()) - index_, bound);
}

int BTree::Cursor::LeafRemaining() {
  assert(valid_);
  return LeafCountHeader() - index_;
}

uint64_t BTree::Cursor::PeekZ(int k) {
  EnsureCache();
  assert(index_ + k < static_cast<int>(cache_z_.size()));
  return cache_z_[static_cast<size_t>(index_ + k)];
}

const LeafEntry& BTree::Cursor::PeekEntry(int k) {
  EnsureCache();
  assert(index_ + k < static_cast<int>(cache_entries_.size()));
  return cache_entries_[static_cast<size_t>(index_ + k)];
}

uint64_t BTree::Cursor::CountWhileLE(uint64_t bound) {
  assert(valid_);
  uint64_t total = 0;
  for (;;) {
    const int count = LeafCountHeader();
    if (index_ == 0 && count > 0 && LeafLastZ() <= bound) {
      // The whole leaf qualifies: take the header count and move on
      // without decoding a single entry — the aggregate pushdown's
      // interior-leaf fast path.
      total += static_cast<uint64_t>(count);
      if (!AdvanceLeaf()) return total;
      continue;
    }
    const int run = RunLengthLE(bound);
    total += static_cast<uint64_t>(run);
    index_ += run;
    if (index_ < count) {
      current_ = cache_entries_[static_cast<size_t>(index_)];
      return total;
    }
    if (!AdvanceLeaf()) return total;
  }
}

bool BTree::Cursor::AdvanceLeaf() {
  const PageId next = leaf_ref_.page().Read<PageId>(kNextLeafOffset);
  if (next == storage::kInvalidPageId) {
    valid_ = false;
    cache_valid_ = false;
    leaf_ref_.Release();
    leaf_page_ = storage::kInvalidPageId;
    return false;
  }
  leaf_ref_ = tree_->pool_->Fetch(next);
  leaf_page_ = next;
  ++leaf_loads_;
  leaf_entries_seen_ +=
      static_cast<uint64_t>(leaf_ref_.page().Read<uint16_t>(kCountOffset));
  cache_valid_ = false;
  index_ = 0;
  return true;
}

void BTree::Cursor::EnsureCache() {
  if (cache_valid_) return;
  V2Decode(leaf_ref_.page(), &cache_entries_, &cache_z_);
  cache_valid_ = true;
}

int BTree::Cursor::LeafCountHeader() {
  return leaf_ref_.page().Read<uint16_t>(kCountOffset);
}

uint64_t BTree::Cursor::LeafLastZ() {
  return V2LastKey(leaf_ref_.page()).ToInteger();
}

std::vector<BTree::LeafSummary> BTree::LeafSequence() {
  // Descend to the leftmost leaf, then follow the chain.
  PageId page_id = root_;
  PageRef ref = pool_->Fetch(page_id);
  while (!IsLeafPage(ref.page())) {
    page_id = InternalView(&ref.page()).child0();
    ref = pool_->Fetch(page_id);
  }
  std::vector<LeafSummary> leaves;
  for (;;) {
    storage::Page& page = ref.page();
    const int count = page.Read<uint16_t>(kCountOffset);
    LeafSummary summary;
    summary.entries = count;
    summary.first_key = count > 0 ? V2FirstKey(page) : ZKey{0, 0};
    leaves.push_back(summary);
    const PageId next = page.Read<PageId>(kNextLeafOffset);
    if (next == storage::kInvalidPageId) break;
    ref = pool_->Fetch(next);
  }
  return leaves;
}

BTreeShape BTree::ComputeShape() {
  BTreeShape shape;
  shape.height = height_;
  std::vector<PageId> level = {root_};
  for (int depth = 0; depth < height_; ++depth) {
    std::vector<PageId> next_level;
    for (PageId id : level) {
      PageRef ref = pool_->Fetch(id);
      if (IsLeafPage(ref.page())) {
        ++shape.leaf_pages;
        shape.entries += static_cast<uint64_t>(
            ref.page().Read<uint16_t>(kCountOffset));
      } else {
        ++shape.internal_pages;
        InternalView node(&ref.page());
        for (int i = 0; i <= node.count(); ++i) {
          next_level.push_back(node.ChildAt(i));
        }
      }
    }
    level = std::move(next_level);
  }
  return shape;
}

bool BTree::CheckInvariants() {
  // Walk the leaf chain: keys must be globally non-decreasing, and the
  // number of entries must match size_.
  uint64_t seen = 0;
  Cursor cursor(this);
  ZKey prev{0, 0};
  bool first = true;
  if (cursor.SeekFirst()) {
    do {
      const ZKey k = cursor.entry().key;
      if (!first && k < prev) return false;
      prev = k;
      first = false;
      ++seen;
    } while (cursor.Next());
  }
  if (seen != size_) return false;

  // Structural walk: uniform depth and separator routing.
  struct Frame {
    PageId id;
    int depth;
    ZKey lo;       // inclusive lower bound on keys in this subtree
    bool has_hi;   // whether hi applies
    ZKey hi;       // inclusive upper bound (duplicates may touch it)
  };
  std::vector<Frame> stack = {{root_, 1, ZKey{0, 0}, false, ZKey{0, 0}}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    PageRef ref = pool_->Fetch(frame.id);
    if (IsLeafPage(ref.page())) {
      if (frame.depth != height_) return false;
      std::vector<LeafEntry> entries;
      V2Decode(ref.page(), &entries);
      // Leaves are normally >= half full, but a split that refuses to
      // divide a run of duplicate keys may move its split point off
      // center, so only emptiness is a hard violation here.
      if (frame.id != root_ && entries.empty()) return false;
      for (size_t i = 0; i < entries.size(); ++i) {
        const ZKey k = entries[i].key;
        if (k < frame.lo) return false;
        if (frame.has_hi && frame.hi < k) return false;
        if (i > 0 && k < entries[i - 1].key) return false;
      }
      continue;
    }
    InternalView node(&ref.page());
    // Rightmost bulk-loaded internal nodes may be arbitrarily light, so
    // occupancy below the rebalancing minimum is not a violation; an
    // internal node without separators is (except a leaf-only tree).
    if (node.count() < 1) return false;
    for (int i = 0; i < node.count(); ++i) {
      if (i > 0 && node.SeparatorAt(i) < node.SeparatorAt(i - 1)) return false;
    }
    for (int i = 0; i <= node.count(); ++i) {
      Frame child;
      child.id = node.ChildAt(i);
      child.depth = frame.depth + 1;
      child.lo = i == 0 ? frame.lo : node.SeparatorAt(i - 1);
      if (i < node.count()) {
        child.has_hi = true;
        child.hi = node.SeparatorAt(i);
      } else {
        child.has_hi = frame.has_hi;
        child.hi = frame.hi;
      }
      stack.push_back(child);
    }
  }
  return true;
}

void BTree::PersistentState::EncodeTo(uint8_t* out) const {
  const uint32_t r = root;
  const int32_t h = height;
  const uint64_t s = size;
  std::memcpy(out, &r, 4);
  std::memcpy(out + 4, &h, 4);
  std::memcpy(out + 8, &s, 8);
}

BTree::PersistentState BTree::PersistentState::Decode(const uint8_t* bytes) {
  PersistentState state;
  uint32_t r;
  int32_t h;
  uint64_t s;
  std::memcpy(&r, bytes, 4);
  std::memcpy(&h, bytes + 4, 4);
  std::memcpy(&s, bytes + 8, 8);
  state.root = r;
  state.height = h;
  state.size = s;
  return state;
}

BTree BTree::Attach(storage::BufferPool* pool, const PersistentState& state,
                    const BTreeConfig& config) {
  assert(state.root != storage::kInvalidPageId && state.height >= 1);
  BTree tree(pool, config, AttachTag{});
  tree.root_ = state.root;
  tree.height_ = state.height;
  tree.size_ = state.size;
  return tree;
}

BTree::BulkBuilder::BulkBuilder(storage::BufferPool* pool,
                                const BTreeConfig& config, double fill)
    : pool_(pool),
      config_(config),
      leaf_target_(std::clamp(static_cast<int>(fill * config.leaf_capacity),
                              1, config.leaf_capacity)),
      internal_target_(
          std::clamp(static_cast<int>(fill * config.internal_capacity), 1,
                     config.internal_capacity)),
      byte_target_(kV2EntriesOffset +
                      static_cast<size_t>(
                          fill * (storage::Page::kSize - kV2EntriesOffset))) {
  assert(fill > 0.0 && fill <= 1.0);
  pending_.reserve(leaf_target_);
}

void BTree::BulkBuilder::Add(const LeafEntry& entry) {
  assert(!have_last_key_ || !(entry.key < last_key_));
  PROBE_ASSERT_MSG(!have_last_key_ || !(entry.key < last_key_),
                   "bulk-load feed out of z order");
  last_key_ = entry.key;
  have_last_key_ = true;
  // A leaf closes on whichever binds first: the count target or the
  // fill-scaled worst-case byte budget.
  const size_t worst = V2EntryWorstSize(entry);
  if (!pending_.empty() &&
      (static_cast<int>(pending_.size()) >= leaf_target_ ||
       pending_worst_bytes_ + worst > byte_target_)) {
    CloseLeaf();
  }
  pending_.push_back(entry);
  pending_worst_bytes_ += worst;
  ++total_entries_;
}

void BTree::BulkBuilder::CloseLeaf() {
  if (pending_.empty()) return;
  PageId id;
  PageRef ref = pool_->New(&id);
  V2Encode(&ref.page(), pending_, storage::kInvalidPageId);
  PROBE_AUDIT(AuditLeafV2Page(ref.page(), 1, config_.leaf_capacity));
  ref.MarkDirty();
  if (prev_leaf_ != storage::kInvalidPageId) {
    PageRef prev_ref = pool_->Fetch(prev_leaf_);
    prev_ref.page().Write<PageId>(kNextLeafOffset, id);
    prev_ref.MarkDirty();
  }
  prev_leaf_ = id;
  leaves_.push_back(NodeInfo{id, pending_.front().key, pending_.back().key});
  pending_.clear();
  pending_worst_bytes_ = kV2EntriesOffset;
}

BTree BTree::BulkBuilder::Finish() {
  CloseLeaf();
  if (leaves_.empty()) return BTree(pool_, config_);  // empty tree

  // Build internal levels until a single root remains.
  std::vector<NodeInfo> nodes = std::move(leaves_);
  int height = 1;
  while (nodes.size() > 1) {
    std::vector<NodeInfo> parents;
    size_t i = 0;
    while (i < nodes.size()) {
      size_t take = std::min(static_cast<size_t>(internal_target_) + 1,
                             nodes.size() - i);
      // Avoid leaving a lone orphan child for the next parent.
      if (nodes.size() - i - take == 1) --take;
      assert(take >= 1);
      PageId id;
      PageRef ref = pool_->New(&id);
      InternalView node(&ref.page());
      node.Init(nodes[i].id);
      for (size_t j = 1; j < take; ++j) {
        const ZKey sep =
            PrefixSeparator(nodes[i + j - 1].last, nodes[i + j].first);
        node.InsertPairAt(static_cast<int>(j - 1), sep, nodes[i + j].id);
      }
      ref.MarkDirty();
      parents.push_back(
          NodeInfo{id, nodes[i].first, nodes[i + take - 1].last});
      i += take;
    }
    nodes = std::move(parents);
    ++height;
  }

  BTree tree(pool_, config_, AttachTag{});
  tree.root_ = nodes[0].id;
  tree.height_ = height;
  tree.size_ = total_entries_;
  return tree;
}

BTree BTree::BulkLoad(storage::BufferPool* pool,
                      std::span<const LeafEntry> sorted_entries,
                      const BTreeConfig& config, double fill) {
  BulkBuilder builder(pool, config, fill);
  for (const LeafEntry& entry : sorted_entries) builder.Add(entry);
  return builder.Finish();
}

}  // namespace probe::btree
