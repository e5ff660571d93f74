#ifndef PROBE_INDEX_ZKD_INDEX_H_
#define PROBE_INDEX_ZKD_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "btree/btree.h"
#include "btree/external_sort.h"
#include "decompose/decomposer.h"
#include "geometry/box.h"
#include "geometry/object.h"
#include "geometry/point.h"
#include "geometry/primitives.h"
#include "util/thread_pool.h"
#include "zorder/grid.h"

/// \file
/// The zkd B+-tree: the paper's point index and its range-search merge.
///
/// Points are stored in a prefix B+-tree keyed by their full-resolution z
/// values (Section 3.3 step 1). A query object is decomposed into elements
/// on demand (step 2), and step 3 merges the point sequence P with the
/// element sequence B. That merge is written once, as a resumable driver
/// private to this file's implementation. It stops on each run of points
/// inside the current element, and three callers consume the runs:
///
///  * RangeSearch, SearchObject and the Parallel* partitions collect ids;
///  * CountBox counts whole elements from run lengths and leaf headers;
///  * RangeCursor streams the ids one at a time.
///
/// All three honour SearchOptions alike: the depth cap, candidate
/// verification and the merge strategy. Two strategies ablate the
/// optimization the paper describes:
///
///  * kSkipMerge  — the paper's algorithm: lazy element generation plus
///                  two-sided random-access skipping.
///  * kPlainMerge — the same merge with both sides stepped one at a time:
///                  the unoptimized O(|P| + |B|) merge of step 3.
///
/// A third, kBigMin, decomposes nothing: it skips directly with the BIGMIN
/// computation over the query box's z range (RangeSearch and
/// ParallelRangeSearch only).

namespace probe::index {

/// A point plus its record identifier.
struct PointRecord {
  geometry::GridPoint point;
  uint64_t id = 0;
};

/// Work and I/O counters for one query. Every query that takes a
/// `QueryStats*` overwrites it with that call's own counters, so a caller
/// may reuse one QueryStats across queries; summing is the caller's job.
struct QueryStats {
  /// Leaf ("data") pages entered — the paper's page-access metric.
  uint64_t leaf_pages = 0;
  /// Internal pages touched by Seek descents.
  uint64_t internal_pages = 0;
  /// Entries the merge examined, each counted once: those it took as
  /// candidates and those it skipped past or stopped at.
  uint64_t points_scanned = 0;
  /// Elements of the query object produced by the generator.
  uint64_t elements_generated = 0;
  /// Classifier calls spent producing those elements.
  uint64_t classify_calls = 0;
  /// Random accesses (Seek) performed on the point sequence.
  uint64_t point_seeks = 0;
  /// Matching points reported.
  uint64_t results = 0;
  /// Entries residing on the leaf pages entered.
  uint64_t entries_on_touched_pages = 0;
  /// Aggregate pushdown: elements counted wholesale — their entries were
  /// summed from run lengths and page headers, never decoded into rows.
  uint64_t contained_elements = 0;
  /// Rows decoded and verified one by one against the query object (only
  /// depth-capped decompositions, whose boundary elements overcover). A
  /// full-depth count materializes none.
  uint64_t materialized_rows = 0;

  /// Adds another query's (or partition's) counters to these.
  QueryStats& operator+=(const QueryStats& other) {
    leaf_pages += other.leaf_pages;
    internal_pages += other.internal_pages;
    points_scanned += other.points_scanned;
    elements_generated += other.elements_generated;
    classify_calls += other.classify_calls;
    point_seeks += other.point_seeks;
    results += other.results;
    entries_on_touched_pages += other.entries_on_touched_pages;
    contained_elements += other.contained_elements;
    materialized_rows += other.materialized_rows;
    return *this;
  }

  /// The paper's efficiency measure: fraction of retrieved data that was
  /// relevant (results / entries_on_touched_pages); 1 when nothing was
  /// retrieved.
  double Efficiency() const {
    if (entries_on_touched_pages == 0) return 1.0;
    return static_cast<double>(results) /
           static_cast<double>(entries_on_touched_pages);
  }
};

/// Options for RangeSearch / SearchObject.
struct SearchOptions {
  enum class Merge { kSkipMerge, kPlainMerge, kBigMin };
  Merge merge = Merge::kSkipMerge;

  /// Decomposition depth cap passed to the element generator (-1 = full
  /// resolution). Coarser caps trade extra candidate verification for
  /// fewer elements; with verification enabled results stay exact.
  int max_element_depth = -1;

  /// Verify each candidate point against the query object before reporting
  /// it. Required for exactness when max_element_depth caps decomposition
  /// (boundary elements may cover non-matching cells); free for boxes at
  /// full depth where elements are exact.
  bool verify_candidates = true;
};

/// The gather step of every partitioned query: runs `part(k, &stats_k)`
/// for each k in [0, parts) on `pool`, overwrites `*stats` (when non-null)
/// with the parts' summed stats, and returns the part results in k order.
template <typename Part>
auto RunParts(util::ThreadPool& pool, size_t parts, QueryStats* stats,
              Part&& part) {
  std::vector<std::invoke_result_t<Part&, size_t, QueryStats*>> results(parts);
  std::vector<QueryStats> part_stats(parts);
  pool.ParallelFor(parts,
                   [&](size_t k) { results[k] = part(k, &part_stats[k]); });
  if (stats != nullptr) {
    *stats = {};
    for (const QueryStats& s : part_stats) *stats += s;
  }
  return results;
}

/// Concatenates part outputs in order. Parts that cover consecutive z
/// intervals and report in z order concatenate into the serial answer.
template <typename T>
std::vector<T> Concat(const std::vector<std::vector<T>>& parts) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<T> out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// Point index over a z-ordered prefix B+-tree.
class ZkdIndex {
  // The Section 3.3 merge driver behind every query below (zkd_index.cc).
  class SkipMerge;

 public:
  /// Creates an empty index. The pool must outlive the index.
  ZkdIndex(const zorder::GridSpec& grid, storage::BufferPool* pool,
           const btree::BTreeConfig& config = {});

  ZkdIndex(ZkdIndex&&) = default;

  /// Bulk-loads an index from `points` (any order; sorted internally).
  static ZkdIndex Build(const zorder::GridSpec& grid,
                        storage::BufferPool* pool,
                        std::span<const PointRecord> points,
                        const btree::BTreeConfig& config = {},
                        double fill = 1.0);

  /// Bulk-loads via external merge sort: at most `memory_budget` records
  /// are held in memory at once; sorted runs spill to `scratch` and the
  /// merge feeds the tree builder directly ("existing sort utilities can
  /// be used to create z ordered sequences", Section 4 — at any scale).
  /// `sort_stats` may be null.
  static ZkdIndex BuildExternal(const zorder::GridSpec& grid,
                                storage::BufferPool* pool,
                                std::span<const PointRecord> points,
                                storage::Pager* scratch, size_t memory_budget,
                                const btree::BTreeConfig& config = {},
                                double fill = 1.0,
                                btree::ExternalSortStats* sort_stats = nullptr);

  /// Snapshot of the underlying tree's durable identity. Flush the pool
  /// (and sync the pager) before persisting it; see BTree::DetachState.
  btree::BTree::PersistentState DetachState() const {
    return tree_.DetachState();
  }

  /// Re-opens an index previously described by DetachState() over a pool
  /// whose pager holds the flushed pages — the reopen half of the
  /// durability story (recovery hands this the state blob of the last
  /// committed batch). Grid and config must match the original build.
  static ZkdIndex Attach(const zorder::GridSpec& grid,
                         storage::BufferPool* pool,
                         const btree::BTree::PersistentState& state,
                         const btree::BTreeConfig& config = {});

  /// Inserts one point (step 1 of Section 3.3: shuffle, then store).
  void Insert(const geometry::GridPoint& point, uint64_t id);

  /// Removes one (point, id) entry; false if absent.
  bool Delete(const geometry::GridPoint& point, uint64_t id);

  /// Range query: ids of all points inside `box` (Figure 5). `stats` may
  /// be null.
  std::vector<uint64_t> RangeSearch(const geometry::GridBox& box,
                                    QueryStats* stats = nullptr,
                                    const SearchOptions& options = {}) const;

  /// General spatial search: ids of all points inside an arbitrary object
  /// (the object is decomposed on demand). kBigMin is not applicable here;
  /// it falls back to kSkipMerge.
  std::vector<uint64_t> SearchObject(const geometry::SpatialObject& object,
                                     QueryStats* stats = nullptr,
                                     const SearchOptions& options = {}) const;

  /// COUNT(*) over the z interval [zlo, zhi] (inclusive, full-resolution
  /// integers): counts entries without materializing any row. Leaves
  /// wholly inside the interval contribute their header count alone —
  /// no entry on them is even decoded.
  uint64_t CountRange(uint64_t zlo, uint64_t zhi,
                      QueryStats* stats = nullptr) const;

  /// COUNT(*) of points inside `box` — the aggregate pushdown. At full
  /// decomposition depth every element is exactly contained in the box,
  /// so each element's points are counted via CountRange-style run and
  /// header arithmetic (stats->contained_elements) and zero rows are
  /// materialized. A depth-capped decomposition must verify candidates,
  /// so its rows materialize (stats->materialized_rows) but the count
  /// stays exact. Matches RangeSearch(...).size() bit for bit.
  uint64_t CountBox(const geometry::GridBox& box, QueryStats* stats = nullptr,
                    const SearchOptions& options = {}) const;

  /// Partial-match query (Section 5.3.1): `fixed[i]` pins attribute i to a
  /// value; unset attributes are unrestricted.
  std::vector<uint64_t> PartialMatch(
      std::span<const std::optional<uint32_t>> fixed,
      QueryStats* stats = nullptr, const SearchOptions& options = {}) const;

  /// Partitioned range query. The query box's z span is cut into
  /// `partitions` contiguous z intervals (split points snapped into the box
  /// with BIGMIN); each partition runs the ordinary merge over the elements
  /// whose z range *starts* inside it — elements are disjoint z intervals
  /// (Section 3.2), so every element is owned by exactly one partition and
  /// no point is reported twice. Partitions execute concurrently on `pool`
  /// and the per-partition results are concatenated in z order: the output
  /// is bitwise-identical to RangeSearch. `partitions` <= 0 uses one per
  /// pool lane. kPlainMerge has no partitioned form and is run as
  /// kSkipMerge; kBigMin partitions the same way over its point skips.
  /// Cumulative `stats` are summed over partitions (page counts include
  /// pages touched by several partitions once per partition).
  std::vector<uint64_t> ParallelRangeSearch(
      const geometry::GridBox& box, util::ThreadPool& pool,
      int partitions = 0, QueryStats* stats = nullptr,
      const SearchOptions& options = {}) const;

  /// Partitioned general spatial search: ParallelRangeSearch for an
  /// arbitrary object. The whole z span of the space is partitioned (an
  /// object has no precomputed corner z values); element ownership and
  /// result order are as in ParallelRangeSearch — output is identical to
  /// SearchObject. kBigMin is not applicable and falls back to kSkipMerge.
  std::vector<uint64_t> ParallelSearchObject(
      const geometry::SpatialObject& object, util::ThreadPool& pool,
      int partitions = 0, QueryStats* stats = nullptr,
      const SearchOptions& options = {}) const;

  /// Streaming range query: pulls matching points one at a time instead of
  /// materializing the result vector — the shape a query executor's
  /// iterator tree wants. The same merge as RangeSearch under the same
  /// options (kBigMin, which has no element sequence, runs as kSkipMerge):
  /// the ids, their order and every QueryStats counter match RangeSearch's
  /// once the cursor is drained. It takes one run of entries at a time from
  /// the merge, so a consumer that stops early pays only for the runs it
  /// reached.
  class RangeCursor {
   public:
    /// The index must outlive the cursor.
    RangeCursor(const ZkdIndex& index, const geometry::GridBox& box,
                const SearchOptions& options = {});
    ~RangeCursor();

    RangeCursor(RangeCursor&&) noexcept;

    /// Fetches the next match (ascending z order). Returns false at the
    /// end. `point` may be null when only ids are wanted.
    bool Next(uint64_t* id, geometry::GridPoint* point = nullptr);

    /// Work counters so far (results counts the Next() successes).
    QueryStats stats() const;

   private:
    // Heap-held so the cursor can move: the merge refers to the box.
    std::unique_ptr<const geometry::BoxObject> box_;
    std::unique_ptr<SkipMerge> merge_;
    // The run being served: entries [pos_, run_) of the current leaf.
    int run_ = 0;
    int pos_ = 0;
  };

  /// First key of every leaf page, in z order, plus per-leaf entry counts.
  /// The bench for Figure 6 maps grid cells to leaves with this to draw the
  /// partitioning of space induced by page boundaries.
  struct LeafInfo {
    btree::ZKey first_key;
    int entries = 0;
  };
  std::vector<LeafInfo> LeafPartitions() const;

  uint64_t size() const { return tree_.size(); }
  const zorder::GridSpec& grid() const { return grid_; }

  /// The underlying B+-tree. Cursors mutate buffer-pool state, so the
  /// reference is non-const even from a const index (tree_ is mutable).
  btree::BTree& tree() const { return tree_; }

 private:
  // Tag constructor for Attach: adopts an existing tree instead of
  // creating an empty one.
  ZkdIndex(const zorder::GridSpec& grid, btree::BTree&& tree)
      : grid_(grid), tree_(std::move(tree)) {}

  // One partition of the merge: the ids of the points in the elements of
  // `object` whose z range starts in [owned_lo, owned_hi] (both inclusive,
  // full-resolution z integers). With [0, ~0] this *is* the serial merge.
  // Writes its counters to `*stats` (required non-null).
  std::vector<uint64_t> MergePartition(const geometry::SpatialObject& object,
                                       uint64_t owned_lo, uint64_t owned_hi,
                                       const SearchOptions& options,
                                       QueryStats* stats) const;

  // One partition of the BIGMIN merge: scans points with z in
  // [from, upto] against the box [zmin, zmax] corners. Writes its counters
  // to `*stats` (required non-null).
  std::vector<uint64_t> BigMinPartition(uint64_t zmin, uint64_t zmax,
                                        uint64_t from, uint64_t upto,
                                        QueryStats* stats) const;

  // Shared fan-out of the Parallel* calls: splits ownership of the element
  // sequence at `split_points` (ascending) and merges partitions on `pool`.
  std::vector<uint64_t> ParallelDecomposed(
      const geometry::SpatialObject& object,
      std::span<const uint64_t> split_points, util::ThreadPool& pool,
      QueryStats* stats, const SearchOptions& options) const;

  zorder::GridSpec grid_;
  mutable btree::BTree tree_;
};

}  // namespace probe::index

#endif  // PROBE_INDEX_ZKD_INDEX_H_
