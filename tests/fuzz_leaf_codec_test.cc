// Seeded fuzz drivers for the compressed leaf format.
//
// Three payloads: (1) 10k random sorted key sets round-tripped through
// V2Encode/V2Decode against the std::vector oracle that produced them —
// random key lengths, duplicate runs, extreme payloads; (2) random insert
// sequences on single v2 pages, each insert made in place
// (V2InsertInPlace) and by decode -> insert -> V2Encode, whose pages must
// match byte for byte; (3) random insert/delete sequences on a
// compressed-format tree checked against a multiset model, which drives
// v2 page splits, merges, and redistributes through every admission
// boundary. Runs under the `fuzz` ctest label, so the UBSan/ASan passes in
// scripts/check.sh sweep the codec's bit-twiddling paths.

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "btree/audit.h"
#include "btree/btree.h"
#include "btree/leaf_codec.h"
#include "btree/node.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "util/rng.h"
#include "zorder/zvalue.h"

namespace probe::btree {
namespace {

using zorder::ZValue;

ZKey RandomKey(util::Rng& rng, int max_len) {
  const int len = 1 + static_cast<int>(rng.NextBelow(
                          static_cast<uint64_t>(max_len)));
  const uint64_t bits =
      len == 64 ? rng.Next() : rng.Next() & ((1ULL << len) - 1);
  return ZKey::FromZValue(ZValue::FromInteger(bits, len));
}

TEST(FuzzLeafCodecTest, RandomKeySetsRoundTrip) {
  util::Rng rng(0x1eaf);
  int encoded_sets = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    const size_t count = rng.NextBelow(120);
    std::vector<LeafEntry> oracle;
    oracle.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      // Occasionally duplicate the previous key (duplicate payload runs).
      if (!oracle.empty() && rng.NextBelow(8) == 0) {
        oracle.push_back(LeafEntry{oracle.back().key, rng.Next()});
      } else {
        oracle.push_back(LeafEntry{RandomKey(rng, 40), rng.Next()});
      }
    }
    std::stable_sort(oracle.begin(), oracle.end(),
                     [](const LeafEntry& a, const LeafEntry& b) {
                       return a.key < b.key;
                     });
    if (!V2Admits(oracle)) continue;
    ++encoded_sets;

    storage::Page page;
    const size_t used = V2Encode(&page, oracle, iter % 97);
    ASSERT_LE(used, storage::Page::kSize);
    ASSERT_LE(used, V2WorstSize(oracle));

    std::vector<LeafEntry> decoded;
    ASSERT_EQ(V2Decode(page, &decoded), static_cast<int>(oracle.size()));
    for (size_t i = 0; i < oracle.size(); ++i) {
      ASSERT_EQ(decoded[i].key, oracle[i].key) << "iter " << iter << " i " << i;
      ASSERT_EQ(decoded[i].payload, oracle[i].payload)
          << "iter " << iter << " i " << i;
    }
    if (!oracle.empty()) {
      ASSERT_EQ(V2FirstKey(page), oracle.front().key);
      ASSERT_EQ(V2LastKey(page), oracle.back().key);
    }
  }
  // The generator must actually exercise the encoder, not skip everything.
  EXPECT_GT(encoded_sets, 8000);
}

// The decode -> insert -> V2Encode path InsertLeafV2 falls back to:
// writes the grown page to `*out`, or returns false when the grown entry
// set is not admitted (the tree would split the page instead).
bool ReferenceInsert(const storage::Page& page, const LeafEntry& entry,
                     int max_count, storage::Page* out) {
  std::vector<LeafEntry> entries;
  V2Decode(page, &entries);
  auto it = std::lower_bound(
      entries.begin(), entries.end(), entry.key,
      [](const LeafEntry& e, const ZKey& k) { return e.key < k; });
  while (it != entries.end() && it->key == entry.key &&
         it->payload < entry.payload) {
    ++it;
  }
  entries.insert(it, entry);
  if (static_cast<int>(entries.size()) > max_count || !V2Admits(entries)) {
    return false;
  }
  V2Encode(out, entries, page.Read<storage::PageId>(kNextLeafOffset));
  return true;
}

bool SamePage(const storage::Page& a, const storage::Page& b) {
  return std::memcmp(a.data(), b.data(), storage::Page::kSize) == 0;
}

TEST(FuzzLeafCodecTest, InPlaceInsertMatchesReencode) {
  util::Rng rng(0x3eaf);
  // What the sequences exercised; each case must occur.
  int appends = 0;
  int mid_inserts = 0;
  int duplicates = 0;
  int below_first = 0;
  int prefix_collapses = 0;
  int count_caps = 0;
  int byte_budgets = 0;

  for (int seq = 0; seq < 120; ++seq) {
    // Tiny keys and payloads fill a page to the count cap before the
    // byte budget binds; the other sequences hit the budget.
    const bool tiny = seq % 4 == 0;
    const int len = tiny ? 1 + static_cast<int>(rng.NextBelow(7))
                         : 8 + static_cast<int>(rng.NextBelow(57));
    const uint64_t top = len == 64 ? ~0ULL : (1ULL << len) - 1;
    const int payload_bits = tiny ? 7 : 1 + static_cast<int>(rng.NextBelow(64));
    const int max_count = seq % 3 == 1
                              ? 2 + static_cast<int>(rng.NextBelow(120))
                              : kV2MaxEntries - 1;
    // Appends advance from a random start in steps of up to `step`.
    const uint64_t step = 1 + rng.NextBelow(uint64_t{1} << (len / 3));
    uint64_t lo = rng.Next() & top;
    uint64_t hi = lo;

    storage::Page page;
    V2Encode(&page, {}, static_cast<storage::PageId>(seq));
    int refusals = 0;
    for (int op = 0; op < 3000 && refusals < 16; ++op) {
      std::vector<LeafEntry> old_entries;
      V2Decode(page, &old_entries);
      uint64_t v = 0;
      switch (rng.NextBelow(8)) {
        case 0:  // anywhere in the key space: usually collapses the prefix
          v = rng.Next() & top;
          break;
        case 1:  // below the first key
          v = lo - std::min(lo, 1 + rng.NextBelow(step));
          break;
        case 2:  // between the first and the last key
          v = lo + rng.NextBelow(hi - lo + 1);
          break;
        default:  // past the last key
          v = std::min(top, hi + rng.NextBelow(step));
          break;
      }
      ZKey key = ZKey::FromZValue(ZValue::FromInteger(v, len));
      if (!old_entries.empty() && rng.NextBelow(6) == 0) {
        // An existing key again: duplicates order by payload.
        key = old_entries[rng.NextBelow(old_entries.size())].key;
      } else if (len > 1 && rng.NextBelow(10) == 0) {
        // A shorter key (an element of a decomposed object).
        const int cut = 1 + static_cast<int>(rng.NextBelow(
                                static_cast<uint64_t>(len - 1)));
        key = ZKey::FromZValue(ZValue::FromInteger(v >> cut, len - cut));
      }
      const uint64_t payload =
          payload_bits == 64 ? rng.Next()
                             : rng.Next() & ((uint64_t{1} << payload_bits) - 1);
      const LeafEntry entry{key, payload};

      storage::Page expected;
      const bool admitted = ReferenceInsert(page, entry, max_count, &expected);
      // In place exactly when the grown page keeps the first key and the
      // shared prefix; InsertLeafV2 re-encodes or splits otherwise.
      const bool keeps_shape =
          admitted && !old_entries.empty() &&
          V2FirstKey(expected) == V2FirstKey(page) &&
          expected.Read<uint8_t>(kV2PrefixLenOffset) ==
              page.Read<uint8_t>(kV2PrefixLenOffset);

      storage::Page in_place = page;
      const bool wrote = V2InsertInPlace(&in_place, entry, max_count);
      ASSERT_EQ(wrote, keeps_shape) << "seq " << seq << " op " << op;
      ASSERT_TRUE(SamePage(in_place, wrote ? expected : page))
          << "seq " << seq << " op " << op;

      const bool duplicate = std::any_of(
          old_entries.begin(), old_entries.end(),
          [&](const LeafEntry& e) { return e.key == key; });
      if (wrote) {
        AuditLeafV2Page(in_place, 1, max_count);
        if (V2LastKey(page) < key) {
          ++appends;
        } else {
          ++mid_inserts;
        }
        if (duplicate) ++duplicates;
      } else if (admitted && !old_entries.empty()) {
        if (key < V2FirstKey(page)) {
          ++below_first;
        } else {
          ++prefix_collapses;
        }
      } else if (!admitted) {
        if (static_cast<int>(old_entries.size()) + 1 > max_count) {
          ++count_caps;
        } else {
          ++byte_budgets;
        }
      }

      if (admitted) {
        page = expected;
        refusals = 0;
        if (key.len == len) {
          const uint64_t kv = key.ToZValue().ToInteger();
          lo = std::min(lo, kv);
          hi = std::max(hi, kv);
        }
      } else {
        ++refusals;
      }
    }
  }
  EXPECT_GT(appends, 1000);
  EXPECT_GT(mid_inserts, 1000);
  EXPECT_GT(duplicates, 100);
  EXPECT_GT(below_first, 100);
  EXPECT_GT(prefix_collapses, 50);
  EXPECT_GT(count_caps, 10);
  EXPECT_GT(byte_budgets, 10);
}

TEST(FuzzLeafCodecTest, RandomInsertDeleteSequencesOnV2Pages) {
  util::Rng rng(0x2eaf);
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 256);
  BTreeConfig config;
  // A small capacity forces frequent splits/merges so the page-level
  // encode/re-encode paths run constantly.
  config.leaf_capacity = 48;
  BTree tree(&pool, config);

  std::multiset<std::pair<ZKey, uint64_t>> model;
  for (int op = 0; op < 6000; ++op) {
    if (model.empty() || rng.NextBelow(3) != 0) {
      const ZKey key = RandomKey(rng, 24);
      const uint64_t payload = rng.NextBelow(1 << 20);
      tree.Insert(key, payload);
      model.emplace(key, payload);
    } else {
      auto victim = model.begin();
      std::advance(victim, static_cast<long>(rng.NextBelow(model.size())));
      ASSERT_TRUE(tree.Delete(victim->first, victim->second));
      model.erase(victim);
    }
    if (op % 500 == 0) ASSERT_TRUE(tree.CheckInvariants()) << "op " << op;
  }
  ASSERT_TRUE(tree.CheckInvariants());

  ASSERT_EQ(tree.size(), model.size());
  BTree::Cursor cursor(&tree);
  auto expect = model.begin();
  if (cursor.SeekFirst()) {
    do {
      ASSERT_NE(expect, model.end());
      ASSERT_EQ(cursor.entry().key, expect->first);
      ++expect;
    } while (cursor.Next());
  }
  ASSERT_EQ(expect, model.end());
}

}  // namespace
}  // namespace probe::btree
