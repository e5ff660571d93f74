#ifndef PROBE_BTREE_ZKEY_H_
#define PROBE_BTREE_ZKEY_H_

#include <compare>
#include <cstdint>

#include "zorder/zvalue.h"

/// \file
/// B-tree key encoding for z values.
///
/// Section 4: "Z values can easily be represented as integers. Then the <
/// predicate of any programming language can be used to test precedence in
/// z order." A ZKey is the fixed-width on-page encoding of a (possibly
/// partial) z value: the left-justified bit word plus the significant-bit
/// count. Comparing (word, length) pairs is exactly lexicographic
/// bitstring order, so ordinary integer machinery sorts elements in
/// z order — the paper's claim that existing DBMS infrastructure suffices.

namespace probe::btree {

/// Fixed-width (9 meaningful bytes) encoding of a z value.
struct ZKey {
  /// Left-justified significant bits; bits past `len` are zero.
  uint64_t raw = 0;
  /// Number of significant bits, 0..64.
  uint8_t len = 0;

  static ZKey FromZValue(const zorder::ZValue& z) {
    return ZKey{z.raw(), static_cast<uint8_t>(z.length())};
  }

  zorder::ZValue ToZValue() const {
    return zorder::ZValue::FromRaw(raw, len);
  }

  /// ToZValue().ToInteger() without the detour: the significant bits,
  /// right-justified.
  uint64_t ToInteger() const { return len == 0 ? 0 : raw >> (64 - len); }

  /// Lexicographic bitstring order (z order).
  friend std::strong_ordering operator<=>(const ZKey& a, const ZKey& b) {
    if (a.raw != b.raw) return a.raw <=> b.raw;
    return a.len <=> b.len;
  }
  friend bool operator==(const ZKey& a, const ZKey& b) = default;
};

}  // namespace probe::btree

#endif  // PROBE_BTREE_ZKEY_H_
