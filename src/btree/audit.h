#ifndef PROBE_BTREE_AUDIT_H_
#define PROBE_BTREE_AUDIT_H_

#include "btree/node.h"

/// \file
/// Page-local B-tree auditors: key order and occupancy for one node.
///
/// BTree::CheckInvariants walks the whole tree (O(n)); these are the O(page)
/// checks cheap enough to run after every structural mutation in auditing
/// builds. They abort on violation and return normally otherwise.

namespace probe::btree {

/// Separators non-decreasing (prefix-truncated separators of a duplicate
/// run may repeat), pair count within [min_count, max_count], all child
/// ids valid.
void AuditInternalPage(const InternalView& node, int min_count,
                       int max_count);

/// Leaf audit: kind tag, count within [min_count, max_count] (pass
/// min_count 0 for pages allowed to underflow: the root, or a page
/// mid-rebalance), every decoded key extends the stored shared prefix, keys
/// in z order, decoded count == header count (V2Decode itself verifies
/// the used-bytes accounting), the header's last key equal to the last
/// decoded key, and the header's worst-case bytes equal to V2WorstSize of
/// the decoded entries.
void AuditLeafV2Page(const storage::Page& page, int min_count, int max_count);

}  // namespace probe::btree

#endif  // PROBE_BTREE_AUDIT_H_
