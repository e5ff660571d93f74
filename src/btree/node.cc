#include "btree/node.h"

#include <cassert>
#include <cstring>

namespace probe::btree {

namespace {

size_t PairOffset(int i) {
  return InternalView::kPairsOffset +
         static_cast<size_t>(i) * InternalView::kEntryBytes;
}

}  // namespace

void InternalView::Init(storage::PageId child0) {
  page_->Clear();
  page_->Write<uint8_t>(kKindOffset, kInternalKind);
  page_->Write<uint16_t>(kCountOffset, 0);
  set_child0(child0);
}

ZKey InternalView::SeparatorAt(int i) const {
  assert(i >= 0 && i < count());
  const size_t off = PairOffset(i);
  ZKey key;
  key.raw = page_->Read<uint64_t>(off);
  key.len = page_->Read<uint8_t>(off + 8);
  return key;
}

storage::PageId InternalView::ChildAt(int i) const {
  assert(i >= 0 && i <= count());
  if (i == 0) return child0();
  return page_->Read<storage::PageId>(PairOffset(i - 1) + 9);
}

void InternalView::SetSeparator(int i, const ZKey& key) {
  assert(i >= 0 && i < count());
  const size_t off = PairOffset(i);
  page_->Write<uint64_t>(off, key.raw);
  page_->Write<uint8_t>(off + 8, key.len);
}

void InternalView::SetPair(int i, const ZKey& sep, storage::PageId child) {
  assert(i >= 0 && i < kMaxCapacity);
  const size_t off = PairOffset(i);
  page_->Write<uint64_t>(off, sep.raw);
  page_->Write<uint8_t>(off + 8, sep.len);
  page_->Write<storage::PageId>(off + 9, child);
}

void InternalView::InsertPairAt(int i, const ZKey& sep,
                                storage::PageId child) {
  const int n = count();
  assert(i >= 0 && i <= n && n < kMaxCapacity);
  std::memmove(page_->data() + PairOffset(i + 1), page_->data() + PairOffset(i),
               static_cast<size_t>(n - i) * kEntryBytes);
  set_count(n + 1);
  SetPair(i, sep, child);
}

void InternalView::RemovePairAt(int i) {
  const int n = count();
  assert(i >= 0 && i < n);
  std::memmove(page_->data() + PairOffset(i), page_->data() + PairOffset(i + 1),
               static_cast<size_t>(n - i - 1) * kEntryBytes);
  set_count(n - 1);
}

int InternalView::DescendLeft(const ZKey& key) const {
  // Last separator strictly below `key`; equal separators send us left so a
  // lower_bound scan starts at the leftmost duplicate.
  int lo = 0;
  int hi = count();
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (SeparatorAt(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int InternalView::DescendRight(const ZKey& key) const {
  int lo = 0;
  int hi = count();
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (key < SeparatorAt(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

ZKey PrefixSeparator(const ZKey& left, const ZKey& right) {
  const zorder::ZValue right_z = right.ToZValue();
  for (int len = 0; len <= right_z.length(); ++len) {
    const ZKey candidate = ZKey::FromZValue(right_z.Prefix(len));
    if (left < candidate) return candidate;
  }
  return right;  // left == right: a duplicate run is being split
}

}  // namespace probe::btree
