#include "btree/btree.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "btree/node.h"
#include "btree/zkey.h"
#include "util/rng.h"
#include "zorder/zvalue.h"

namespace probe::btree {
namespace {

using zorder::ZValue;

ZKey Key(uint64_t value, int len = 16) {
  return ZKey::FromZValue(ZValue::FromInteger(value, len));
}

// Reference model: multiset of (key, payload) ordered like the tree.
using Model = std::multiset<std::pair<ZKey, uint64_t>>;

std::vector<std::pair<ZKey, uint64_t>> Dump(BTree& tree) {
  std::vector<std::pair<ZKey, uint64_t>> out;
  BTree::Cursor cursor(&tree);
  if (cursor.SeekFirst()) {
    do {
      out.emplace_back(cursor.entry().key, cursor.entry().payload);
    } while (cursor.Next());
  }
  return out;
}

TEST(PrefixSeparatorTest, ShortestStrictPrefix) {
  const ZKey left = ZKey::FromZValue(*ZValue::Parse("00110"));
  const ZKey right = ZKey::FromZValue(*ZValue::Parse("01011"));
  const ZKey sep = PrefixSeparator(left, right);
  // "01" is the shortest prefix of right exceeding left.
  EXPECT_EQ(sep.ToZValue().ToString(), "01");
  EXPECT_LT(left, sep);
  EXPECT_LE(sep, right);
}

TEST(PrefixSeparatorTest, PrefixPairNeedsFullKey) {
  const ZKey left = ZKey::FromZValue(*ZValue::Parse("0"));
  const ZKey right = ZKey::FromZValue(*ZValue::Parse("00"));
  const ZKey sep = PrefixSeparator(left, right);
  EXPECT_EQ(sep.ToZValue().ToString(), "00");
}

TEST(PrefixSeparatorTest, EqualKeysReturnTheKey) {
  const ZKey k = ZKey::FromZValue(*ZValue::Parse("0101"));
  EXPECT_EQ(PrefixSeparator(k, k), k);
}

TEST(PrefixSeparatorTest, AlwaysValidOnRandomPairs) {
  util::Rng rng(77);
  for (int trial = 0; trial < 1000; ++trial) {
    ZKey a = Key(rng.Next(), 1 + static_cast<int>(rng.NextBelow(20)));
    ZKey b = Key(rng.Next(), 1 + static_cast<int>(rng.NextBelow(20)));
    if (b < a) std::swap(a, b);
    const ZKey sep = PrefixSeparator(a, b);
    if (a < b) {
      EXPECT_LT(a, sep);
      EXPECT_LE(sep, b);
    } else {
      EXPECT_EQ(sep, b);
    }
  }
}

TEST(BTreeTest, EmptyTree) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 16);
  BTree tree(&pool);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  BTree::Cursor cursor(&tree);
  EXPECT_FALSE(cursor.SeekFirst());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTreeTest, InsertAndIterateSorted) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 16);
  BTreeConfig config;
  config.leaf_capacity = 4;
  config.internal_capacity = 4;
  BTree tree(&pool, config);
  const uint64_t values[] = {42, 7, 99, 1, 55, 23, 80, 3, 64, 31};
  for (uint64_t v : values) tree.Insert(Key(v), v);
  EXPECT_EQ(tree.size(), 10u);
  EXPECT_TRUE(tree.CheckInvariants());

  const auto dump = Dump(tree);
  ASSERT_EQ(dump.size(), 10u);
  for (size_t i = 1; i < dump.size(); ++i) {
    EXPECT_LT(dump[i - 1].first, dump[i].first);
  }
}

TEST(BTreeTest, SplitsGrowHeight) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 16);
  BTreeConfig config;
  config.leaf_capacity = 4;
  config.internal_capacity = 4;
  BTree tree(&pool, config);
  for (uint64_t v = 0; v < 200; ++v) tree.Insert(Key(v * 131 % 1024, 10), v);
  EXPECT_GE(tree.height(), 3);
  EXPECT_TRUE(tree.CheckInvariants());
  const BTreeShape shape = tree.ComputeShape();
  EXPECT_EQ(shape.entries, 200u);
  EXPECT_GE(shape.leaf_pages, 200u / 5);
}

TEST(BTreeTest, SeekFindsLowerBound) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 16);
  BTreeConfig config;
  config.leaf_capacity = 4;
  config.internal_capacity = 4;
  BTree tree(&pool, config);
  for (uint64_t v = 0; v < 100; v += 2) tree.Insert(Key(v), v);

  BTree::Cursor cursor(&tree);
  ASSERT_TRUE(cursor.Seek(Key(31)));
  EXPECT_EQ(cursor.entry().payload, 32u);
  ASSERT_TRUE(cursor.Seek(Key(32)));
  EXPECT_EQ(cursor.entry().payload, 32u);
  ASSERT_TRUE(cursor.Seek(Key(0)));
  EXPECT_EQ(cursor.entry().payload, 0u);
  EXPECT_FALSE(cursor.Seek(Key(99)));
}

TEST(BTreeTest, DuplicateKeysAllKept) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 16);
  BTreeConfig config;
  config.leaf_capacity = 4;
  config.internal_capacity = 4;
  BTree tree(&pool, config);
  for (uint64_t p = 0; p < 50; ++p) tree.Insert(Key(7), p);
  tree.Insert(Key(3), 1000);
  tree.Insert(Key(9), 2000);
  EXPECT_TRUE(tree.CheckInvariants());

  BTree::Cursor cursor(&tree);
  ASSERT_TRUE(cursor.Seek(Key(7)));
  std::set<uint64_t> payloads;
  do {
    if (cursor.entry().key != Key(7)) break;
    payloads.insert(cursor.entry().payload);
  } while (cursor.Next());
  EXPECT_EQ(payloads.size(), 50u);
  EXPECT_EQ(*payloads.begin(), 0u);
}

TEST(BTreeTest, VariableLengthKeysSortLexicographically) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 16);
  BTreeConfig config;
  config.leaf_capacity = 4;
  config.internal_capacity = 4;
  BTree tree(&pool, config);
  const std::vector<std::string> patterns = {"1",   "0",    "01",  "001",
                                             "000", "0110", "011", "11"};
  for (size_t i = 0; i < patterns.size(); ++i) {
    tree.Insert(ZKey::FromZValue(*ZValue::Parse(patterns[i])), i);
  }
  auto sorted = patterns;
  std::sort(sorted.begin(), sorted.end());
  const auto dump = Dump(tree);
  ASSERT_EQ(dump.size(), patterns.size());
  for (size_t i = 0; i < dump.size(); ++i) {
    EXPECT_EQ(dump[i].first.ToZValue().ToString(), sorted[i]);
  }
}

TEST(BTreeTest, DeleteSimple) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 16);
  BTree tree(&pool);
  for (uint64_t v = 0; v < 10; ++v) tree.Insert(Key(v), v);
  EXPECT_TRUE(tree.Delete(Key(5), 5));
  EXPECT_FALSE(tree.Delete(Key(5), 5));  // already gone
  EXPECT_FALSE(tree.Delete(Key(77), 77));
  EXPECT_EQ(tree.size(), 9u);
  const auto dump = Dump(tree);
  for (const auto& [key, payload] : dump) EXPECT_NE(payload, 5u);
}

class BTreeRandomOpsTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BTreeRandomOpsTest, MatchesReferenceModel) {
  const auto [leaf_cap, internal_cap] = GetParam();
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 32);
  BTreeConfig config;
  config.leaf_capacity = leaf_cap;
  config.internal_capacity = internal_cap;
  BTree tree(&pool, config);
  Model model;
  util::Rng rng(1000 + leaf_cap * 17 + internal_cap);

  for (int op = 0; op < 3000; ++op) {
    const uint64_t key_val = rng.NextBelow(500);  // dense: many duplicates
    const int key_len = 10 + static_cast<int>(rng.NextBelow(6));
    const ZKey key = Key(key_val, key_len);
    if (model.empty() || rng.NextBelow(100) < 65) {
      const uint64_t payload = rng.NextBelow(1000);
      tree.Insert(key, payload);
      model.emplace(key, payload);
    } else {
      // Delete a random existing entry half the time, a random (maybe
      // absent) one otherwise.
      if (rng.NextBelow(2) == 0) {
        auto it = model.begin();
        std::advance(it, rng.NextBelow(model.size()));
        EXPECT_TRUE(tree.Delete(it->first, it->second));
        model.erase(it);
      } else {
        const uint64_t payload = rng.NextBelow(1000);
        const bool in_model =
            model.find({key, payload}) != model.end();
        EXPECT_EQ(tree.Delete(key, payload), in_model);
        if (in_model) model.erase(model.find({key, payload}));
      }
    }
    if (op % 250 == 0) {
      ASSERT_TRUE(tree.CheckInvariants()) << "op " << op;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.size(), model.size());
  const auto dump = Dump(tree);
  ASSERT_EQ(dump.size(), model.size());
  size_t i = 0;
  for (const auto& entry : model) {
    // Keys must match exactly; payload order within duplicate runs is the
    // tree's choice, so compare keys here and payload sets below.
    EXPECT_EQ(dump[i].first, entry.first) << "i=" << i;
    ++i;
  }
  // Payload multisets per key must match.
  std::map<ZKey, std::multiset<uint64_t>> tree_payloads, model_payloads;
  for (const auto& [k, p] : dump) tree_payloads[k].insert(p);
  for (const auto& [k, p] : model) model_payloads[k].insert(p);
  EXPECT_EQ(tree_payloads, model_payloads);
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, BTreeRandomOpsTest,
    ::testing::Values(std::make_pair(4, 4), std::make_pair(5, 3),
                      std::make_pair(20, 10), std::make_pair(3, 8)));

TEST(BTreeTest, BulkLoadMatchesInserts) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 32);
  BTreeConfig config;
  config.leaf_capacity = 20;
  config.internal_capacity = 8;

  util::Rng rng(333);
  std::vector<LeafEntry> entries;
  for (int i = 0; i < 2000; ++i) {
    entries.push_back(LeafEntry{Key(rng.NextBelow(100000), 20),
                                static_cast<uint64_t>(i)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const LeafEntry& a, const LeafEntry& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.payload < b.payload;
            });
  BTree loaded = BTree::BulkLoad(&pool, entries, config);
  EXPECT_EQ(loaded.size(), entries.size());
  EXPECT_TRUE(loaded.CheckInvariants());

  const auto dump = Dump(loaded);
  ASSERT_EQ(dump.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(dump[i].first, entries[i].key);
    EXPECT_EQ(dump[i].second, entries[i].payload);
  }
}

TEST(BTreeTest, BulkLoadPartialFillLeavesRoomForInserts) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 32);
  BTreeConfig config;
  config.leaf_capacity = 10;
  std::vector<LeafEntry> entries;
  for (uint64_t i = 0; i < 100; ++i) entries.push_back({Key(i * 10, 16), i});
  BTree tree = BTree::BulkLoad(&pool, entries, config, 0.7);
  const auto shape_before = tree.ComputeShape();
  // At fill 0.7, leaves hold 7 of 10: more pages than a packed load.
  EXPECT_GE(shape_before.leaf_pages, 100u / 7);
  for (uint64_t i = 0; i < 50; ++i) tree.Insert(Key(i * 10 + 5, 16), 1000 + i);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.size(), 150u);
}

TEST(BTreeTest, BulkLoadEmptyAndSingle) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 16);
  BTree empty = BTree::BulkLoad(&pool, {}, {});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.CheckInvariants());

  const LeafEntry one[] = {{Key(5), 5}};
  BTree single = BTree::BulkLoad(&pool, one, {});
  EXPECT_EQ(single.size(), 1u);
  EXPECT_EQ(single.height(), 1);
  EXPECT_TRUE(single.CheckInvariants());
}

TEST(BTreeTest, CursorCountsLeafLoads) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 16);
  BTreeConfig config;
  config.leaf_capacity = 10;
  config.internal_capacity = 8;
  std::vector<LeafEntry> entries;
  for (uint64_t i = 0; i < 100; ++i) entries.push_back({Key(i, 16), i});
  BTree tree = BTree::BulkLoad(&pool, entries, config);

  BTree::Cursor cursor(&tree);
  ASSERT_TRUE(cursor.SeekFirst());
  uint64_t steps = 1;
  while (cursor.Next()) ++steps;
  EXPECT_EQ(steps, 100u);
  EXPECT_EQ(cursor.leaf_loads(), 10u);  // 100 entries / 10 per leaf
  EXPECT_EQ(cursor.leaf_entries_seen(), 100u);
}

TEST(BTreeTest, SeekWithinLeafAgreesWithTheReferenceModel) {
  // A tree shaped by inserts (with duplicate runs) and deletes carries
  // prefix separators and rebalanced leaves. Whenever SeekWithinLeaf
  // claims a key range for one leaf, that leaf must hold every entry of
  // the range; otherwise it must not have entered a leaf at all.
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 64);
  BTreeConfig config;
  config.leaf_capacity = 6;
  config.internal_capacity = 4;
  BTree tree(&pool, config);
  Model model;
  util::Rng rng(4242);
  for (uint64_t i = 0; i < 1500; ++i) {
    const uint64_t v = i % 5 == 4 ? 777 : rng.NextBelow(1 << 16);
    tree.Insert(Key(v), i);
    model.insert({Key(v), i});
  }
  for (auto it = model.begin(); it != model.end();) {
    if (rng.NextBelow(3) == 0) {
      ASSERT_TRUE(tree.Delete(it->first, it->second));
      it = model.erase(it);
    } else {
      ++it;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants());

  int within = 0;
  int crossing = 0;
  for (int q = 0; q < 3000; ++q) {
    // Half the ranges end exactly on a stored key (often the duplicate
    // run, whose copies straddle leaves under an equal separator).
    const uint64_t width = uint64_t{1} << rng.NextBelow(14);
    uint64_t lo = 0;
    uint64_t hi = 0;
    if (q % 2 == 0) {
      lo = rng.NextBelow(1 << 16);
      hi = std::min<uint64_t>(lo + width - 1, (1 << 16) - 1);
    } else {
      const auto stored =
          std::next(model.begin(),
                    static_cast<std::ptrdiff_t>(rng.NextBelow(model.size())));
      hi = stored->first.ToZValue().ToInteger();
      lo = hi >= width ? hi - width + 1 : 0;
    }
    std::vector<std::pair<ZKey, uint64_t>> expect;
    for (auto it = model.lower_bound({Key(lo), 0});
         it != model.end() && !(Key(hi) < it->first); ++it) {
      expect.push_back(*it);
    }
    BTree::Cursor cursor(&tree);
    if (!cursor.SeekWithinLeaf(Key(lo), Key(hi))) {
      ++crossing;
      EXPECT_EQ(cursor.leaf_loads(), 0u);
      continue;
    }
    ++within;
    EXPECT_EQ(cursor.leaf_loads(), 1u);
    std::vector<std::pair<ZKey, uint64_t>> got;
    if (cursor.Valid()) {
      const int run = cursor.RunLengthLE(hi);
      for (int i = 0; i < run; ++i) {
        got.emplace_back(cursor.PeekEntry(i).key, cursor.PeekEntry(i).payload);
      }
    }
    EXPECT_EQ(got, expect) << "range [" << lo << ", " << hi << "]";
  }
  EXPECT_GT(within, 100);
  EXPECT_GT(crossing, 100);
}

TEST(BTreeTest, LeafSequenceReportsChainOrder) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 16);
  BTreeConfig config;
  config.leaf_capacity = 5;
  std::vector<LeafEntry> entries;
  for (uint64_t i = 0; i < 32; ++i) entries.push_back({Key(i, 16), i});
  BTree tree = BTree::BulkLoad(&pool, entries, config);
  const auto leaves = tree.LeafSequence();
  ASSERT_EQ(leaves.size(), 7u);  // ceil(32/5)
  uint64_t total = 0;
  for (size_t i = 0; i < leaves.size(); ++i) {
    total += leaves[i].entries;
    if (i > 0) {
      EXPECT_LT(leaves[i - 1].first_key, leaves[i].first_key);
    }
  }
  EXPECT_EQ(total, 32u);
}

TEST(BTreeTest, BulkLoadThenChurnKeepsInvariants) {
  // Mixed lifecycle: a packed bulk load followed by heavy interleaved
  // inserts and deletes must stay consistent with the reference model.
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 32);
  BTreeConfig config;
  config.leaf_capacity = 8;
  config.internal_capacity = 5;
  util::Rng rng(606);

  std::vector<LeafEntry> initial;
  for (uint64_t i = 0; i < 500; ++i) {
    initial.push_back(LeafEntry{Key(rng.NextBelow(5000), 16), i});
  }
  std::sort(initial.begin(), initial.end(),
            [](const LeafEntry& a, const LeafEntry& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.payload < b.payload;
            });
  BTree tree = BTree::BulkLoad(&pool, initial, config, /*fill=*/0.8);
  Model model;
  for (const auto& e : initial) model.emplace(e.key, e.payload);

  for (int op = 0; op < 2000; ++op) {
    if (rng.NextBelow(2) == 0 || model.empty()) {
      const ZKey key = Key(rng.NextBelow(5000), 16);
      const uint64_t payload = 1000 + op;
      tree.Insert(key, payload);
      model.emplace(key, payload);
    } else {
      auto it = model.begin();
      std::advance(it, rng.NextBelow(model.size()));
      ASSERT_TRUE(tree.Delete(it->first, it->second));
      model.erase(it);
    }
  }
  ASSERT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.size(), model.size());
  const auto dump = Dump(tree);
  ASSERT_EQ(dump.size(), model.size());
  size_t i = 0;
  for (const auto& entry : model) {
    EXPECT_EQ(dump[i].first, entry.first);
    ++i;
  }
}

TEST(BTreeTest, LeafUnderflowsBelowHalfTheCapacity) {
  // Two leaves of the paper's capacity 20, written by hand. A page of 20
  // entries is always under a quarter full, so bytes alone would rebalance
  // on every delete; a leaf left with at least 10 entries must stay as is.
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 16);
  BTreeConfig config;
  config.leaf_capacity = 20;
  std::vector<LeafEntry> left;
  std::vector<LeafEntry> right;
  for (uint64_t i = 0; i < 20; ++i) {
    left.push_back({Key(i), i});
    right.push_back({Key(100 + i), 100 + i});
  }
  storage::PageId left_id;
  storage::PageId right_id;
  storage::PageId root_id;
  {
    storage::PageRef left_ref = pool.New(&left_id);
    storage::PageRef right_ref = pool.New(&right_id);
    storage::PageRef root_ref = pool.New(&root_id);
    V2Encode(&right_ref.page(), right, storage::kInvalidPageId);
    V2Encode(&left_ref.page(), left, right_id);
    InternalView root(&root_ref.page());
    root.Init(left_id);
    root.InsertPairAt(0, PrefixSeparator(left.back().key, right.front().key),
                      right_id);
    left_ref.MarkDirty();
    right_ref.MarkDirty();
    root_ref.MarkDirty();
  }
  BTree tree = BTree::Attach(&pool, {root_id, 2, 40}, config);
  auto bytes = [&pool](storage::PageId id) {
    storage::PageRef ref = pool.Fetch(id);
    return std::vector<uint8_t>(ref.page().data(),
                                ref.page().data() + storage::Page::kSize);
  };
  const auto left_before = bytes(left_id);
  const auto root_before = bytes(root_id);

  // Down to 10 entries on the right leaf: no rebalance, so only that
  // leaf's own bytes change.
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree.Delete(Key(100 + i), 100 + i));
    EXPECT_EQ(bytes(left_id), left_before) << i;
    EXPECT_EQ(bytes(root_id), root_before) << i;
  }
  std::vector<LeafEntry> kept(right.begin() + 10, right.end());
  storage::Page expect;
  V2Encode(&expect, kept, storage::kInvalidPageId);
  EXPECT_EQ(bytes(right_id),
            std::vector<uint8_t>(expect.data(),
                                 expect.data() + storage::Page::kSize));

  // The 11th delete leaves 9: the pair is rebalanced to 14 + 15.
  ASSERT_TRUE(tree.Delete(Key(110), 110));
  const auto leaves = tree.LeafSequence();
  ASSERT_EQ(leaves.size(), 2u);
  EXPECT_EQ(leaves[0].entries, 14);
  EXPECT_EQ(leaves[1].entries, 15);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BTreeTest, DeleteDownToEmptyAndReuse) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 32);
  BTreeConfig config;
  config.leaf_capacity = 4;
  config.internal_capacity = 4;
  BTree tree(&pool, config);
  for (uint64_t v = 0; v < 300; ++v) tree.Insert(Key(v, 16), v);
  for (uint64_t v = 0; v < 300; ++v) ASSERT_TRUE(tree.Delete(Key(v, 16), v));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants());
  // The tree keeps working after total erasure.
  for (uint64_t v = 0; v < 50; ++v) tree.Insert(Key(v, 16), v);
  EXPECT_EQ(tree.size(), 50u);
  EXPECT_TRUE(tree.CheckInvariants());
}

}  // namespace
}  // namespace probe::btree
