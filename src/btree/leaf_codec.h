#ifndef PROBE_BTREE_LEAF_CODEC_H_
#define PROBE_BTREE_LEAF_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "btree/node.h"
#include "storage/page.h"

/// \file
/// The leaf page format: shared-prefix + suffix-varint pages.
///
/// Consecutive z values in a leaf share long common bit prefixes by
/// construction (a leaf owns a contiguous z interval), so a fixed-width
/// entry (8 key bytes + 1 length byte + 8 payload bytes = 17) would spend
/// most of its key bytes repeating the leaf's prefix. The page stores
/// that prefix once in the header and each entry as
///
///     key_len (1 byte) | suffix varint | payload varint
///
/// where the suffix is the key's bits after the shared prefix,
/// right-justified, LEB128-encoded. Typical full-resolution point pages
/// shrink from 17 to 5-8 bytes per entry, which multiplies keys-per-page
/// and divides the paper's page-access metric accordingly.
///
/// Layout (byte offsets; kind, count and next-leaf are the common node
/// header of node.h):
///
///     0       kind = kLeafV2Kind
///     2..3    entry count (uint16)
///     4..7    next leaf PageId
///     8..9    used bytes (uint16; end of the encoded entry area)
///     10      shared prefix length in bits (uint8)
///     11      last key length in bits (uint8)
///     12..19  shared prefix, left-justified (uint64)
///     20..27  last key raw, left-justified (uint64)
///     28..29  worst-case bytes (uint16; V2WorstSize of the entries)
///     30..    encoded entries
///
/// The last key is duplicated in the header so a reader can decide "does
/// this whole leaf precede z?" without decoding any entry — the aggregate
/// pushdown counts interior leaves from the header alone.
///
/// Admission is deliberately *worst-case*: a page accepts entries while
/// the sum of their prefix-independent upper bounds (V2EntryWorstSize,
/// i.e. the size under an empty shared prefix) fits the page. The actual
/// encoding is never larger, and — unlike the actual size — the
/// worst-case sum is subset-additive, so any rebalancing subset of one or
/// two admitted pages is itself admissible. Without this, inserting a key
/// that collapses the shared prefix could widen every suffix at once and
/// leave no single split point where both halves fit. The header keeps
/// that sum, so admitting one more entry costs O(1).
///
/// An insert that keeps the page's first key and shared prefix is written
/// in place (V2InsertInPlace): the entry's bytes go at its slot and the
/// tail shifts right. Every other mutation — a key below the first, a
/// prefix collapse, a split, a delete — decodes, edits and re-encodes.
/// Both paths write the same bytes.

namespace probe::btree {

/// Header offsets of the leaf past the common node header.
inline constexpr size_t kV2UsedOffset = 8;
inline constexpr size_t kV2PrefixLenOffset = 10;
inline constexpr size_t kV2LastLenOffset = 11;
inline constexpr size_t kV2PrefixOffset = 12;
inline constexpr size_t kV2LastRawOffset = 20;
inline constexpr size_t kV2WorstOffset = 28;
inline constexpr size_t kV2EntriesOffset = 30;

/// Hard cap on entries per v2 page: the smallest possible entry is 3
/// bytes (len byte + 1-byte suffix varint + 1-byte payload varint).
inline constexpr int kV2MaxEntries =
    static_cast<int>((storage::Page::kSize - kV2EntriesOffset) / 3);

/// Number of leading bits `a` and `b` share (clamped to the shorter key).
int CommonPrefixBits(const ZKey& a, const ZKey& b);

/// Bytes a LEB128 varint of `v` occupies (1..10).
size_t VarintLen(uint64_t v);

/// The key's bits after `prefix_len`, right-justified. Requires
/// prefix_len <= key.len (returns 0 when equal).
uint64_t SuffixValue(const ZKey& key, int prefix_len);

/// Encoded bytes of one entry under a given shared prefix.
size_t V2EntryEncodedSize(const LeafEntry& entry, int prefix_len);

/// Shared prefix the encoder would choose for `entries` (the common
/// prefix of first and last key; every key in a sorted run shares it).
int V2PrefixFor(std::span<const LeafEntry> entries);

/// Total page bytes (header + entries) `entries` encode to.
size_t V2EncodedSize(std::span<const LeafEntry> entries);

/// True when `entries` fit one v2 page (bytes and count).
bool V2Fits(std::span<const LeafEntry> entries);

/// Upper bound on one entry's encoded size under *any* shared prefix
/// (the size with an empty prefix; shrinking a suffix never widens its
/// varint). Page admission sums these so rebalancing subsets always fit.
size_t V2EntryWorstSize(const LeafEntry& entry);

/// Header + sum of V2EntryWorstSize over `entries`.
size_t V2WorstSize(std::span<const LeafEntry> entries);

/// Admission test: count cap and worst-case byte budget. Implies
/// V2Fits, and any subset of one or two admitted pages that is at most
/// half the combined worst-case bytes (plus one entry) is admitted too.
bool V2Admits(std::span<const LeafEntry> entries);

/// Encodes `entries` (sorted by key) into `page` as a v2 leaf with the
/// given next-leaf link. Asserts V2Fits. Returns the used byte count.
size_t V2Encode(storage::Page* page, std::span<const LeafEntry> entries,
                storage::PageId next_leaf);

/// Inserts `entry` into the v2 `page` in place when the result keeps the
/// page's first key and shared prefix: the key sorts at or after the
/// first key (duplicates ordered by payload) and, past the last key,
/// still shares the prefix with the first. The count may reach at most
/// `max_count` and the worst-case bytes at most the page. The page is
/// then byte-identical to V2Encode of the decoded entries plus `entry`:
/// first and last key fix the prefix, so no other entry's bytes change.
/// Returns false, leaving the page untouched, in every other case.
bool V2InsertInPlace(storage::Page* page, const LeafEntry& entry,
                     int max_count);

/// Decodes all entries of a v2 page into `out` (resized to the count).
/// When `z_out` is given it receives each key's ZKey::ToInteger in the
/// same pass. Returns the entry count.
int V2Decode(const storage::Page& page, std::vector<LeafEntry>* out,
             std::vector<uint64_t>* z_out = nullptr);

/// First key of a v2 page without a full decode. Requires count > 0.
ZKey V2FirstKey(const storage::Page& page);

/// Last key of a v2 page, read from the header. Requires count > 0.
ZKey V2LastKey(const storage::Page& page);

}  // namespace probe::btree

#endif  // PROBE_BTREE_LEAF_CODEC_H_
