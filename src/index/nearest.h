#ifndef PROBE_INDEX_NEAREST_H_
#define PROBE_INDEX_NEAREST_H_

#include <cstdint>
#include <vector>

#include "geometry/point.h"
#include "index/zkd_index.h"

/// \file
/// Proximity queries on the zkd index (Section 6).
///
/// "Proximity queries can often be translated into containment or overlap
/// queries." Two translations are provided:
///
///  * WithinDistance — the direct one: points within distance r of q are
///    the points inside a ball object, answered by the ordinary
///    decompose-and-merge search.
///  * KNearest — when r is not known in advance: a best-first search over
///    z-prefix regions. Regions (elements-to-be) are popped in order of
///    their minimum distance to the query point, and the search stops when
///    the nearest unexplored region is farther than the current k-th best
///    point. A region is a run of consecutive z values, so its points are
///    one sequential z-range scan of the B+-tree. Like the Section 3.3
///    merge, the search lets the tree skip empty z space: before a popped
///    region is split, one descent through the internal pages tells
///    whether its z range lies within a single leaf. If it does, that
///    leaf settles the region at the cost of one page, whatever its size:
///    an empty region is dropped with no children, a populated one is
///    scanned whole. Only a region whose z range crosses a leaf boundary
///    is split. Work therefore follows the data, not the grid: a 10-NN
///    query over 1M uniform points reads two or three leaves, and a search
///    whose center lies outside the index's z interval (a shard of a
///    range-partitioned engine) walks straight to the populated part.

namespace probe::index {

/// Squared-distance accumulator. A single-axis delta on a full-resolution
/// 32-bit grid can reach 2^32 - 1, so its square approaches 2^64 and a
/// 2-d squared distance approaches 2^65 — past uint64_t. All distance
/// arithmetic runs in 128 bits so ordering stays correct at the corners
/// of the deepest grid.
using Dist2 = unsigned __int128;

/// One k-NN result.
struct Neighbor {
  uint64_t id = 0;
  /// Squared Euclidean distance between cell coordinates.
  Dist2 distance2 = 0;
};

/// Work counters for one k-NN search.
struct NearestStats {
  /// Regions popped from the frontier (split, scanned or dropped).
  uint64_t regions_expanded = 0;
  /// Regions whose z range was read from the leaves: every small region,
  /// and every populated region found within one leaf.
  uint64_t range_scans = 0;
  uint64_t points_examined = 0;
  uint64_t leaf_pages = 0;
  uint64_t internal_pages = 0;
};

/// Options for KNearest.
struct NearestOptions {
  /// A region of at most this many cells is scanned, across leaves if
  /// need be, rather than split. Smaller values mean more, tighter scans.
  /// Larger regions are settled by the B+-tree instead: scanned whole, or
  /// dropped when empty, once their z range lies within one leaf, and
  /// split otherwise.
  uint64_t scan_cell_threshold = 1024;
};

/// The k nearest stored points to `query` (ties broken by id), closest
/// first. Returns fewer than k if the index holds fewer points.
std::vector<Neighbor> KNearest(const ZkdIndex& index,
                               const geometry::GridPoint& query, size_t k,
                               NearestStats* stats = nullptr,
                               const NearestOptions& options = {});

/// Ids of points within Euclidean distance `radius` of `query` (inclusive),
/// via the ball-overlap translation.
std::vector<uint64_t> WithinDistance(const ZkdIndex& index,
                                     const geometry::GridPoint& query,
                                     double radius,
                                     QueryStats* stats = nullptr);

}  // namespace probe::index

#endif  // PROBE_INDEX_NEAREST_H_
