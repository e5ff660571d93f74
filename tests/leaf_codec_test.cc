// Unit tests for the compressed (v2) leaf codec: varints, prefix/suffix
// arithmetic, encode/decode round trips, header short-cuts, and the
// worst-case admission rule that keeps every rebalancing subset of
// admitted pages encodable.

#include "btree/leaf_codec.h"

#include <vector>

#include <gtest/gtest.h>

#include "btree/node.h"
#include "storage/page.h"
#include "zorder/zvalue.h"

namespace probe::btree {
namespace {

using zorder::ZValue;

ZKey Key(uint64_t value, int len = 20) {
  return ZKey::FromZValue(ZValue::FromInteger(value, len));
}

std::vector<LeafEntry> SampleRun() {
  // A realistic leaf: consecutive full-resolution z values sharing a long
  // prefix, ascending payloads.
  std::vector<LeafEntry> entries;
  for (uint64_t i = 0; i < 200; ++i) {
    entries.push_back(LeafEntry{Key(0x40000 + i * 3), i + 1});
  }
  return entries;
}

TEST(LeafCodecTest, VarintLenBoundaries) {
  EXPECT_EQ(VarintLen(0), 1u);
  EXPECT_EQ(VarintLen(0x7f), 1u);
  EXPECT_EQ(VarintLen(0x80), 2u);
  EXPECT_EQ(VarintLen(0x3fff), 2u);
  EXPECT_EQ(VarintLen(0x4000), 3u);
  EXPECT_EQ(VarintLen(~0ULL), 10u);
  for (size_t k = 1; k <= 9; ++k) {
    const uint64_t edge = uint64_t{1} << (7 * k);
    EXPECT_EQ(VarintLen(edge - 1), k) << k;
    EXPECT_EQ(VarintLen(edge), k + 1) << k;
  }
}

TEST(LeafCodecTest, CommonPrefixAndSuffix) {
  const ZKey a = Key(0b10110000000000000000, 20);
  const ZKey b = Key(0b10110000000000000111, 20);
  EXPECT_EQ(CommonPrefixBits(a, b), 17);
  EXPECT_EQ(SuffixValue(b, 17), 0b111u);
  EXPECT_EQ(SuffixValue(b, 20), 0u);
}

TEST(LeafCodecTest, RoundTripPreservesEntries) {
  const auto entries = SampleRun();
  ASSERT_TRUE(V2Admits(entries));
  storage::Page page;
  const size_t used = V2Encode(&page, entries, 7);
  EXPECT_LE(used, storage::Page::kSize);
  EXPECT_EQ(page.Read<uint8_t>(kKindOffset), kLeafV2Kind);
  EXPECT_EQ(page.Read<storage::PageId>(kNextLeafOffset), 7u);

  std::vector<LeafEntry> decoded;
  EXPECT_EQ(V2Decode(page, &decoded), static_cast<int>(entries.size()));
  ASSERT_EQ(decoded.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded[i].key, entries[i].key) << i;
    EXPECT_EQ(decoded[i].payload, entries[i].payload) << i;
  }
  EXPECT_EQ(V2FirstKey(page), entries.front().key);
  EXPECT_EQ(V2LastKey(page), entries.back().key);
}

TEST(LeafCodecTest, EmptyPageRoundTrips) {
  storage::Page page;
  V2Encode(&page, {}, storage::kInvalidPageId);
  std::vector<LeafEntry> decoded;
  EXPECT_EQ(V2Decode(page, &decoded), 0);
  EXPECT_TRUE(decoded.empty());
}

TEST(LeafCodecTest, CompressionBeatsFixedWidthOnSharedPrefixes) {
  const auto entries = SampleRun();
  // A fixed-width entry is key raw (8) + key len (1) + payload (8) bytes.
  const size_t fixed_bytes = entries.size() * 17;
  EXPECT_LT(V2EncodedSize(entries), fixed_bytes / 2);
}

TEST(LeafCodecTest, WorstSizeBoundsActualSize) {
  const auto entries = SampleRun();
  EXPECT_GE(V2WorstSize(entries), V2EncodedSize(entries));
  for (const auto& e : entries) {
    EXPECT_GE(V2EntryWorstSize(e), V2EntryEncodedSize(e, V2PrefixFor(entries)));
  }
}

TEST(LeafCodecTest, AdmissionImpliesFitEvenAfterPrefixCollapse) {
  // Entries admitted under the worst-case rule must still encode after a
  // divergent key collapses the shared prefix to zero — the exact hazard
  // actual-size admission would miss.
  std::vector<LeafEntry> entries;
  for (uint64_t i = 0; entries.size() < 300; ++i) {
    entries.push_back(LeafEntry{Key(0xF0000 + i, 20), i});
  }
  ASSERT_TRUE(V2Admits(entries));
  ASSERT_TRUE(V2Fits(entries));

  std::vector<LeafEntry> collapsed = entries;
  collapsed.insert(collapsed.begin(), LeafEntry{Key(0, 20), 0});
  if (V2Admits(collapsed)) {
    EXPECT_TRUE(V2Fits(collapsed));
    storage::Page page;
    V2Encode(&page, collapsed, storage::kInvalidPageId);
    std::vector<LeafEntry> decoded;
    EXPECT_EQ(V2Decode(page, &decoded), static_cast<int>(collapsed.size()));
  }
}

TEST(LeafCodecTest, AdmissionSubsetStable) {
  // Any contiguous subset of an admitted set is admitted (worst-case sums
  // are additive), which is what makes insert-overflow splits feasible.
  const auto entries = SampleRun();
  ASSERT_TRUE(V2Admits(entries));
  for (size_t split = 1; split < entries.size(); split += 17) {
    EXPECT_TRUE(V2Admits({entries.data(), split}));
    EXPECT_TRUE(V2Admits({entries.data() + split, entries.size() - split}));
  }
}

}  // namespace
}  // namespace probe::btree
