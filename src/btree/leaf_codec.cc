#include "btree/leaf_codec.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "probe/check.h"

namespace probe::btree {

namespace {

using storage::Page;

/// Appends `v` as LEB128 at `data[pos]`; returns the new position.
size_t PutVarint(uint8_t* data, size_t pos, uint64_t v) {
  while (v >= 0x80) {
    data[pos++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  data[pos++] = static_cast<uint8_t>(v);
  return pos;
}

/// Reads a LEB128 varint at `data[pos]` into `*v`; returns the new
/// position. `limit` bounds the read (corrupt pages abort in audit
/// builds; release builds stop at the page edge).
size_t GetVarint(const uint8_t* data, size_t pos, size_t limit, uint64_t* v) {
  uint64_t out = 0;
  int shift = 0;
  while (pos < limit) {
    const uint8_t byte = data[pos++];
    out |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *v = out;
  return pos;
}

/// Writes `entry` at `data[pos]` under a shared prefix of `prefix` bits;
/// returns the position after it.
size_t PutEntry(uint8_t* data, size_t pos, const LeafEntry& entry,
                int prefix) {
  assert(entry.key.len >= prefix);
  data[pos++] = entry.key.len;
  pos = PutVarint(data, pos, SuffixValue(entry.key, prefix));
  return PutVarint(data, pos, entry.payload);
}

/// Reads the entry at `data[pos]` of a page whose shared prefix is
/// `prefix` bits of `prefix_raw` into `*out`; returns the position after
/// it. `limit` bounds the varint reads as in GetVarint.
size_t GetEntry(const uint8_t* data, size_t pos, size_t limit, int prefix,
                uint64_t prefix_raw, LeafEntry* out) {
  out->key.len = data[pos++];
  uint64_t suffix = 0;
  pos = GetVarint(data, pos, limit, &suffix);
  pos = GetVarint(data, pos, limit, &out->payload);
  out->key.raw = prefix_raw;
  if (out->key.len > prefix) out->key.raw |= suffix << (64 - out->key.len);
  return pos;
}

uint64_t PrefixMask(int prefix_len) {
  if (prefix_len <= 0) return 0;
  if (prefix_len >= 64) return ~0ULL;
  return ~0ULL << (64 - prefix_len);
}

}  // namespace

int CommonPrefixBits(const ZKey& a, const ZKey& b) {
  const int max = a.len < b.len ? a.len : b.len;
  const uint64_t diff = a.raw ^ b.raw;
  const int lead = diff == 0 ? 64 : std::countl_zero(diff);
  return lead < max ? lead : max;
}

size_t VarintLen(uint64_t v) {
  // One byte per started 7 bits (0 still takes a byte); admission and
  // every in-place insert size entries with this, so no loop.
  return static_cast<size_t>(std::bit_width(v | 1) + 6) / 7;
}

uint64_t SuffixValue(const ZKey& key, int prefix_len) {
  const int suffix_bits = key.len - prefix_len;
  if (suffix_bits <= 0) return 0;
  return (key.raw << prefix_len) >> (64 - suffix_bits);
}

size_t V2EntryEncodedSize(const LeafEntry& entry, int prefix_len) {
  return 1 + VarintLen(SuffixValue(entry.key, prefix_len)) +
         VarintLen(entry.payload);
}

int V2PrefixFor(std::span<const LeafEntry> entries) {
  if (entries.empty()) return 0;
  // Keys are sorted, so the common prefix of first and last is a prefix
  // of every key in between (lexicographic bitstring order).
  return CommonPrefixBits(entries.front().key, entries.back().key);
}

size_t V2EncodedSize(std::span<const LeafEntry> entries) {
  const int prefix = V2PrefixFor(entries);
  size_t bytes = kV2EntriesOffset;
  for (const LeafEntry& e : entries) bytes += V2EntryEncodedSize(e, prefix);
  return bytes;
}

bool V2Fits(std::span<const LeafEntry> entries) {
  return static_cast<int>(entries.size()) <= kV2MaxEntries &&
         V2EncodedSize(entries) <= Page::kSize;
}

size_t V2EntryWorstSize(const LeafEntry& entry) {
  return V2EntryEncodedSize(entry, 0);
}

size_t V2WorstSize(std::span<const LeafEntry> entries) {
  size_t bytes = kV2EntriesOffset;
  for (const LeafEntry& e : entries) bytes += V2EntryWorstSize(e);
  return bytes;
}

bool V2Admits(std::span<const LeafEntry> entries) {
  return static_cast<int>(entries.size()) <= kV2MaxEntries &&
         V2WorstSize(entries) <= Page::kSize;
}

size_t V2Encode(Page* page, std::span<const LeafEntry> entries,
                storage::PageId next_leaf) {
  PROBE_ASSERT_MSG(V2Fits(entries), "v2 leaf encode overflow");
  const int prefix = V2PrefixFor(entries);
  const ZKey last = entries.empty() ? ZKey{0, 0} : entries.back().key;

  page->Clear();
  page->Write<uint8_t>(kKindOffset, kLeafV2Kind);
  page->Write<uint16_t>(kCountOffset, static_cast<uint16_t>(entries.size()));
  page->Write<storage::PageId>(kNextLeafOffset, next_leaf);
  page->Write<uint8_t>(kV2PrefixLenOffset, static_cast<uint8_t>(prefix));
  page->Write<uint8_t>(kV2LastLenOffset, last.len);
  page->Write<uint64_t>(kV2PrefixOffset,
                        entries.empty() ? 0
                                        : entries.front().key.raw &
                                              PrefixMask(prefix));
  page->Write<uint64_t>(kV2LastRawOffset, last.raw);

  uint8_t* data = page->data();
  size_t pos = kV2EntriesOffset;
  size_t worst = kV2EntriesOffset;
  for (const LeafEntry& e : entries) {
    pos = PutEntry(data, pos, e, prefix);
    worst += V2EntryWorstSize(e);
  }
  page->Write<uint16_t>(kV2UsedOffset, static_cast<uint16_t>(pos));
  page->Write<uint16_t>(kV2WorstOffset, static_cast<uint16_t>(worst));
  return pos;
}

bool V2InsertInPlace(Page* page, const LeafEntry& entry, int max_count) {
  assert(page->Read<uint8_t>(kKindOffset) == kLeafV2Kind);
  const int count = page->Read<uint16_t>(kCountOffset);
  const size_t worst =
      page->Read<uint16_t>(kV2WorstOffset) + V2EntryWorstSize(entry);
  if (count == 0 || count >= std::min(max_count, kV2MaxEntries) ||
      worst > Page::kSize) {
    return false;
  }
  // The encoder's prefix is CommonPrefixBits(first, last). A key below
  // the first would replace it; one past the last replaces the last and
  // must share the prefix with the first; one in between changes neither.
  const int prefix = page->Read<uint8_t>(kV2PrefixLenOffset);
  const ZKey first = V2FirstKey(*page);
  if (entry.key < first) return false;
  const bool append = V2LastKey(*page) < entry.key;
  if (append && CommonPrefixBits(first, entry.key) != prefix) return false;

  uint8_t* data = page->data();
  const size_t used = page->Read<uint16_t>(kV2UsedOffset);
  size_t pos = used;
  if (!append) {
    // The slot InsertLeafV2's decode path picks: the first entry above
    // the key, or equal to it with a payload not below the new one.
    const uint64_t prefix_raw = page->Read<uint64_t>(kV2PrefixOffset);
    pos = kV2EntriesOffset;
    for (int i = 0; i < count; ++i) {
      LeafEntry e;
      const size_t next = GetEntry(data, pos, used, prefix, prefix_raw, &e);
      if (entry.key < e.key ||
          (e.key == entry.key && e.payload >= entry.payload)) {
        break;
      }
      pos = next;
    }
  }
  // The actual encoding never outgrows the worst case, which fits.
  const size_t size = V2EntryEncodedSize(entry, prefix);
  assert(used + size <= Page::kSize);
  std::memmove(data + pos + size, data + pos, used - pos);
  PutEntry(data, pos, entry, prefix);
  page->Write<uint16_t>(kCountOffset, static_cast<uint16_t>(count + 1));
  page->Write<uint16_t>(kV2UsedOffset, static_cast<uint16_t>(used + size));
  page->Write<uint16_t>(kV2WorstOffset, static_cast<uint16_t>(worst));
  if (append) {
    page->Write<uint8_t>(kV2LastLenOffset, entry.key.len);
    page->Write<uint64_t>(kV2LastRawOffset, entry.key.raw);
  }
  return true;
}

int V2Decode(const Page& page, std::vector<LeafEntry>* out,
             std::vector<uint64_t>* z_out) {
  assert(page.Read<uint8_t>(kKindOffset) == kLeafV2Kind);
  const int count = page.Read<uint16_t>(kCountOffset);
  const size_t used = page.Read<uint16_t>(kV2UsedOffset);
  const int prefix = page.Read<uint8_t>(kV2PrefixLenOffset);
  const uint64_t prefix_raw = page.Read<uint64_t>(kV2PrefixOffset);

  out->resize(static_cast<size_t>(count));
  if (z_out != nullptr) z_out->resize(static_cast<size_t>(count));
  const uint8_t* data = page.data();
  size_t pos = kV2EntriesOffset;
  for (int i = 0; i < count; ++i) {
    PROBE_ASSERT_MSG(pos < used, "v2 leaf decode ran past used bytes");
    LeafEntry& e = (*out)[static_cast<size_t>(i)];
    pos = GetEntry(data, pos, used, prefix, prefix_raw, &e);
    if (z_out != nullptr) (*z_out)[static_cast<size_t>(i)] = e.key.ToInteger();
  }
  PROBE_ASSERT_MSG(pos == used, "v2 leaf used-bytes header inconsistent");
  return count;
}

ZKey V2FirstKey(const Page& page) {
  assert(page.Read<uint16_t>(kCountOffset) > 0);
  LeafEntry e;
  GetEntry(page.data(), kV2EntriesOffset, page.Read<uint16_t>(kV2UsedOffset),
           page.Read<uint8_t>(kV2PrefixLenOffset),
           page.Read<uint64_t>(kV2PrefixOffset), &e);
  return e.key;
}

ZKey V2LastKey(const Page& page) {
  assert(page.Read<uint16_t>(kCountOffset) > 0);
  ZKey key;
  key.raw = page.Read<uint64_t>(kV2LastRawOffset);
  key.len = page.Read<uint8_t>(kV2LastLenOffset);
  return key;
}

}  // namespace probe::btree
