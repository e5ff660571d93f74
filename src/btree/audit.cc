#include "btree/audit.h"

#include <vector>

#include "btree/leaf_codec.h"
#include "probe/check.h"
#include "storage/page.h"

namespace probe::btree {

void AuditInternalPage(const InternalView& node, int min_count,
                       int max_count) {
  const int n = node.count();
  if (n < min_count || n > max_count) {
    check::AuditFailure(__FILE__, __LINE__, "internal occupancy in bounds",
                        "internal pair count outside [min, capacity]");
  }
  for (int i = 1; i < n; ++i) {
    if (node.SeparatorAt(i) < node.SeparatorAt(i - 1)) {
      check::AuditFailure(__FILE__, __LINE__, "separators sorted",
                          "internal separators out of z order");
    }
  }
  for (int i = 0; i <= n; ++i) {
    if (node.ChildAt(i) == storage::kInvalidPageId) {
      check::AuditFailure(__FILE__, __LINE__, "child ids valid",
                          "internal node references an invalid page");
    }
  }
}

void AuditLeafV2Page(const storage::Page& page, int min_count, int max_count) {
  if (page.Read<uint8_t>(kKindOffset) != kLeafV2Kind) {
    check::AuditFailure(__FILE__, __LINE__, "v2 leaf kind tag",
                        "page audited as v2 leaf has a different kind");
  }
  const int header_count = page.Read<uint16_t>(kCountOffset);
  if (header_count < min_count || header_count > max_count) {
    check::AuditFailure(__FILE__, __LINE__, "v2 leaf occupancy in bounds",
                        "v2 leaf entry count outside [min, capacity]");
  }

  std::vector<LeafEntry> entries;
  const int decoded = V2Decode(page, &entries);
  if (decoded != header_count ||
      static_cast<int>(entries.size()) != header_count) {
    check::AuditFailure(__FILE__, __LINE__, "v2 decoded count matches header",
                        "v2 leaf decoded a different entry count");
  }

  if (page.Read<uint16_t>(kV2WorstOffset) != V2WorstSize(entries)) {
    check::AuditFailure(__FILE__, __LINE__, "v2 header worst-case bytes",
                        "v2 leaf header worst-case bytes disagree with "
                        "entries");
  }

  const int prefix_len = page.Read<uint8_t>(kV2PrefixLenOffset);
  const uint64_t prefix_raw = page.Read<uint64_t>(kV2PrefixOffset);
  const uint64_t prefix_mask =
      prefix_len == 0 ? 0
                      : (prefix_len >= 64 ? ~0ULL : ~0ULL << (64 - prefix_len));
  for (size_t i = 0; i < entries.size(); ++i) {
    const ZKey& key = entries[i].key;
    if (key.len < prefix_len || (key.raw & prefix_mask) != prefix_raw) {
      check::AuditFailure(__FILE__, __LINE__, "v2 keys extend shared prefix",
                          "v2 leaf key does not start with the page prefix");
    }
    if (i > 0 && key < entries[i - 1].key) {
      check::AuditFailure(__FILE__, __LINE__, "v2 keys sorted",
                          "v2 leaf keys out of z order");
    }
  }
  if (!entries.empty()) {
    const ZKey last = V2LastKey(page);
    if (!(last == entries.back().key)) {
      check::AuditFailure(__FILE__, __LINE__, "v2 header last key",
                          "v2 leaf header last key disagrees with entries");
    }
  }
}

}  // namespace probe::btree
