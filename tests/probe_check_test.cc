/// \file
/// Tests for the invariant-audit layer itself (src/probe/check.h and the
/// per-subsystem auditors). The auditors are compiled in every build
/// configuration, so these tests — including the death tests that feed
/// deliberately broken invariants — run identically whether or not the
/// hot-path PROBE_AUDIT call sites are compiled in.

#include <gtest/gtest.h>

#include <vector>

#include "btree/audit.h"
#include "btree/leaf_codec.h"
#include "btree/node.h"
#include "decompose/audit.h"
#include "decompose/decomposer.h"
#include "geometry/box.h"
#include "probe/check.h"
#include "storage/page.h"
#include "zorder/audit.h"
#include "zorder/bigmin.h"
#include "zorder/grid.h"
#include "zorder/shuffle.h"
#include "zorder/zvalue.h"

namespace probe {
namespace {

using geometry::GridBox;
using zorder::GridSpec;
using zorder::ZValue;

// Every AuditFailure diagnostic starts with this marker.
constexpr char kDeath[] = "PROBE_AUDIT failure";

TEST(ProbeCheck, AuditsEnabledMatchesMacro) {
  EXPECT_EQ(check::AuditsEnabled(), PROBE_AUDIT_ENABLED != 0);
}

// ------------------------------------------------------------- ZMonotone

TEST(ProbeCheck, ZMonotoneAcceptsForwardProgress) {
  check::ZMonotone strict(/*strict=*/true);
  strict.Observe(0, "test");
  strict.Observe(1, "test");
  strict.Observe(100, "test");
  EXPECT_EQ(strict.last(), 100u);

  check::ZMonotone lax(/*strict=*/false);
  lax.Observe(5, "test");
  lax.Observe(5, "test");  // equality is fine when not strict
  lax.Observe(6, "test");
}

TEST(ProbeCheckDeath, ZMonotoneCatchesBackwardStep) {
  check::ZMonotone lax(/*strict=*/false);
  lax.Observe(10, "test");
  EXPECT_DEATH(lax.Observe(9, "test"), kDeath);
}

TEST(ProbeCheckDeath, StrictZMonotoneCatchesRepeat) {
  check::ZMonotone strict(/*strict=*/true);
  strict.Observe(10, "test");
  EXPECT_DEATH(strict.Observe(10, "test"), kDeath);
}

TEST(ProbeCheck, ZMonotoneResetAllowsRewind) {
  check::ZMonotone strict(/*strict=*/true);
  strict.Observe(10, "test");
  strict.Reset();
  strict.Observe(0, "test");  // legal after an intentional rewind
  EXPECT_EQ(strict.last(), 0u);
}

// ---------------------------------------------------------- z-order laws

TEST(ProbeCheck, ZOrderLawsHoldForRepresentativePairs) {
  const auto a = ZValue::FromInteger(0b0011, 4);
  zorder::AuditZOrderLaws(a, a);                              // reflexive
  zorder::AuditZOrderLaws(a, ZValue::FromInteger(0b001101, 6));  // nested
  zorder::AuditZOrderLaws(a, ZValue::FromInteger(0b0100, 4));    // disjoint
  zorder::AuditZOrderLaws(ZValue(), a);  // the whole space contains all
}

// --------------------------------------------------------- element covers

TEST(ProbeCheck, ElementCoverAcceptsBoxDecomposition) {
  GridSpec grid{.dims = 2, .bits_per_dim = 4};
  const GridBox box = GridBox::Make2D(3, 11, 2, 13);
  const std::vector<ZValue> elements = decompose::DecomposeBox(grid, box);
  zorder::AuditElementCover(grid, elements,
                            static_cast<int64_t>(box.Volume()),
                            /*max_elements=*/0);
  decompose::AuditBoxCover(grid, box, elements, /*exact=*/true,
                           /*include_boundary=*/true);
}

TEST(ProbeCheckDeath, ElementCoverCatchesOverlap) {
  GridSpec grid{.dims = 2, .bits_per_dim = 2};
  // The second element is inside the first: intervals overlap.
  const std::vector<ZValue> elements = {ZValue::FromInteger(0b01, 2),
                                        ZValue::FromInteger(0b0110, 4)};
  EXPECT_DEATH(zorder::AuditElementCover(grid, elements, -1, 0), kDeath);
}

TEST(ProbeCheckDeath, ElementCoverCatchesOutOfOrderElements) {
  GridSpec grid{.dims = 2, .bits_per_dim = 2};
  const std::vector<ZValue> elements = {ZValue::FromInteger(0b10, 2),
                                        ZValue::FromInteger(0b01, 2)};
  EXPECT_DEATH(zorder::AuditElementCover(grid, elements, -1, 0), kDeath);
}

TEST(ProbeCheckDeath, ElementCoverCatchesWrongCellCount) {
  GridSpec grid{.dims = 2, .bits_per_dim = 2};
  const std::vector<ZValue> elements = {ZValue::FromInteger(0b00, 2)};
  // One quadrant covers 4 cells, not 5.
  EXPECT_DEATH(zorder::AuditElementCover(grid, elements, 5, 0), kDeath);
}

// ------------------------------------------------------------ BIGMIN step

TEST(ProbeCheckDeath, BigMinAuditCatchesSwappedBounds) {
  GridSpec grid{.dims = 2, .bits_per_dim = 4};
  const uint64_t zmin = zorder::Shuffle2D(grid, 2, 3).ToInteger();
  const uint64_t zmax = zorder::Shuffle2D(grid, 9, 12).ToInteger();
  uint64_t next = 0;
  const bool found = zorder::BigMin(grid, /*zcur=*/zmin, zmin, zmax, &next);
  ASSERT_TRUE(found);
  // The correct call passes.
  zorder::AuditBigMinResult(grid, zmin, zmin, zmax, found, next,
                            /*is_bigmin=*/true);
  // The same result audited against *swapped* bounds fails the in-box
  // check (this is the acceptance-criterion scenario: a planted bug in the
  // merge's bound handling is caught at the audit point).
  EXPECT_DEATH(zorder::AuditBigMinResult(grid, zmin, zmax, zmin, found, next,
                                         /*is_bigmin=*/true),
               kDeath);
}

TEST(ProbeCheckDeath, BigMinAuditCatchesNonAdvancingResult) {
  GridSpec grid{.dims = 2, .bits_per_dim = 4};
  const uint64_t zmin = zorder::Shuffle2D(grid, 2, 3).ToInteger();
  const uint64_t zmax = zorder::Shuffle2D(grid, 9, 12).ToInteger();
  // Claiming "found" with out == zcur violates strict forward progress.
  EXPECT_DEATH(zorder::AuditBigMinResult(grid, zmin, zmin, zmax,
                                         /*found=*/true, /*out=*/zmin,
                                         /*is_bigmin=*/true),
               kDeath);
}

// ----------------------------------------------------------- B-tree pages

btree::LeafEntry Entry(uint64_t z, uint64_t payload) {
  return {btree::ZKey::FromZValue(ZValue::FromInteger(z, 8)), payload};
}

TEST(ProbeCheck, LeafAuditAcceptsSortedLeaf) {
  storage::Page page;
  std::vector<btree::LeafEntry> entries;
  for (uint64_t i = 0; i < 8; ++i) entries.push_back(Entry(i, i));
  btree::V2Encode(&page, entries, storage::kInvalidPageId);
  btree::AuditLeafV2Page(page, 1, btree::kV2MaxEntries);
}

TEST(ProbeCheckDeath, LeafAuditCatchesOutOfOrderKeys) {
  storage::Page page;
  // Encode a smaller key *after* a larger one, which no tree path does.
  const std::vector<btree::LeafEntry> entries = {Entry(7, 1), Entry(3, 2)};
  btree::V2Encode(&page, entries, storage::kInvalidPageId);
  EXPECT_DEATH(btree::AuditLeafV2Page(page, 1, btree::kV2MaxEntries), kDeath);
}

TEST(ProbeCheckDeath, LeafAuditCatchesOverflow) {
  storage::Page page;
  const std::vector<btree::LeafEntry> entries = {Entry(1, 1), Entry(2, 2)};
  btree::V2Encode(&page, entries, storage::kInvalidPageId);
  // A capacity bound below the actual count must trip the occupancy check.
  EXPECT_DEATH(btree::AuditLeafV2Page(page, 1, 1), kDeath);
}

TEST(ProbeCheckDeath, InternalAuditCatchesInvalidChild) {
  storage::Page page;
  btree::InternalView node(&page);
  node.Init(storage::kInvalidPageId);  // leftmost child missing
  node.InsertPairAt(0, btree::ZKey::FromZValue(ZValue::FromInteger(1, 4)), 7);
  EXPECT_DEATH(
      btree::AuditInternalPage(node, 1, btree::InternalView::kMaxCapacity),
      kDeath);
}

}  // namespace
}  // namespace probe
