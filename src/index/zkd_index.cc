#include "index/zkd_index.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <utility>

#include "decompose/generator.h"
#include "obs/runtime_metrics.h"
#include "geometry/primitives.h"
#include "probe/check.h"
#include "storage/audit.h"
#include "zorder/audit.h"
#include "zorder/bigmin.h"
#include "zorder/shuffle.h"

namespace probe::index {

namespace {

using btree::LeafEntry;
using btree::ZKey;
using geometry::GridBox;
using geometry::GridPoint;
using zorder::ZValue;

// Flushes one finished query's aggregates to the process-wide registry —
// a handful of relaxed adds per *query*, so instrumentation cost never
// scales with elements or points (the bench_obs overhead budget depends
// on this). point_seeks is published as the BIGMIN-skip family: every
// seek past the current position is a skip the merge earned.
void FlushQueryMetrics(const QueryStats& stats) {
  if (!obs::Enabled()) return;
  obs::QueryMetrics::Default().RecordQuery(
      stats.leaf_pages, stats.internal_pages, stats.points_scanned,
      stats.elements_generated, stats.point_seeks, stats.results);
}

// Hands one finished query's counters to the caller (when `stats` is
// non-null) and to the registry, and returns its ids.
std::vector<uint64_t> Finish(std::vector<uint64_t> results,
                             const QueryStats& merged, QueryStats* stats) {
  if (stats != nullptr) *stats = merged;
  FlushQueryMetrics(merged);
  return results;
}

// Full-resolution key of a point.
ZKey PointKey(const zorder::GridSpec& grid, const GridPoint& point) {
  return ZKey::FromZValue(Shuffle(grid, point.coords()));
}

// Full-resolution key whose integer value is `z`.
ZKey IntegerKey(const zorder::GridSpec& grid, uint64_t z) {
  return ZKey::FromZValue(ZValue::FromInteger(z, grid.total_bits()));
}

void FillCursorStats(const btree::BTree::Cursor& cursor, QueryStats* stats) {
  stats->leaf_pages = cursor.leaf_loads();
  stats->internal_pages = cursor.internal_loads();
  stats->entries_on_touched_pages = cursor.leaf_entries_seen();
}

// Grid cell of a stored entry.
GridPoint CellOf(const zorder::GridSpec& grid, const LeafEntry& entry) {
  return GridPoint(
      std::span<const uint32_t>(Unshuffle(grid, entry.key.ToZValue())));
}

// z range [z(lo corner), z(hi corner)] of a box: z is monotone in each
// coordinate, so the extremes sit at the corners.
std::pair<uint64_t, uint64_t> BoxZRange(const zorder::GridSpec& grid,
                                        const GridBox& box) {
  assert(box.dims() == grid.dims);
  std::vector<uint32_t> lo_coords(grid.dims), hi_coords(grid.dims);
  for (int i = 0; i < grid.dims; ++i) {
    lo_coords[i] = box.range(i).lo;
    hi_coords[i] = box.range(i).hi;
  }
  return {Shuffle(grid, lo_coords).ToInteger(),
          Shuffle(grid, hi_coords).ToInteger()};
}

// Interior split points for `partitions` contiguous slices of the z span
// [lo, hi], evenly spaced and strictly ascending (duplicates collapse, so
// narrow spans simply yield fewer partitions).
std::vector<uint64_t> EvenSplits(uint64_t lo, uint64_t hi, int partitions) {
  std::vector<uint64_t> splits;
  if (partitions <= 1 || hi <= lo) return splits;
  const unsigned __int128 width =
      static_cast<unsigned __int128>(hi - lo) + 1;
  for (int i = 1; i < partitions; ++i) {
    const uint64_t s =
        lo + static_cast<uint64_t>(width * static_cast<unsigned>(i) /
                                   static_cast<unsigned>(partitions));
    if (s > lo && (splits.empty() || s > splits.back())) splits.push_back(s);
  }
  return splits;
}

}  // namespace

// The merge of step 3 of Section 3.3: the point sequence P (the B+-tree,
// read through one cursor) against the element sequence B of a query
// object, generated lazily. The skip merge advances either side by random
// access — B by SeekForward to the point that ran past the element, P by
// Seek to the start of an element ahead of it — and so passes over the
// parts of the space that cannot contribute; the plain merge steps both
// sides one at a time.
//
// The merge is resumable. NextRun() stops each time the cursor sits on an
// entry inside the current element, and the caller then consumes entries
// up to the element's end: either a run on the current leaf (TakeRun,
// cursor().PeekEntry, Skip) or the whole element at once (CountElement).
// The driver keeps every QueryStats counter and the z-order audits.
//
// Ownership: the merge covers exactly the elements whose range *starts* in
// [owned_lo, owned_hi]. Elements are pairwise disjoint in z, so at most one
// element straddles owned_lo — it belongs to the previous partition and is
// skipped; a straddler of owned_hi is merged here in full.
class ZkdIndex::SkipMerge {
 public:
  // `object` must outlive the merge. kBigMin runs as kSkipMerge.
  SkipMerge(const ZkdIndex& index, const geometry::SpatialObject& object,
            const SearchOptions& options, uint64_t owned_lo = 0,
            uint64_t owned_hi = ~0ULL);

  // Moves to the next entry inside the current element; false at the end.
  bool NextRun();

  // After NextRun(): length of the run of entries inside the element on
  // the current leaf, from the SIMD interval filter. The caller reads them
  // with cursor().PeekEntry(k) and then calls Skip(run).
  int TakeRun();
  void Skip(int run) { have_point_ = cursor_.Advance(run); }

  // After NextRun(): counts the element's entries from run lengths and
  // whole-leaf header counts, without decoding a row (aggregate pushdown).
  uint64_t CountElement();

  // Whether `entry`, taken from a run, is in the answer: always at full
  // depth; under a depth cap with verification, when its cell lies in the
  // object. A depth-capped element may cover cells outside the object.
  bool Accept(const LeafEntry& entry);

  bool verify() const { return verify_; }
  const zorder::GridSpec& grid() const { return grid_; }
  btree::BTree::Cursor& cursor() { return cursor_; }
  QueryStats stats() const;

 private:
  // Makes `element` current when `have` is set and the element is owned.
  bool Enter(bool have, const ZValue& element);
  // Positions P at the current element's start (plain: at P's start).
  void SeekElement();

  const zorder::GridSpec& grid_;
  const geometry::SpatialObject& object_;
  const uint64_t owned_hi_;
  const bool plain_;
  const bool verify_;
  decompose::ElementGenerator generator_;
  btree::BTree::Cursor cursor_;
  uint64_t zlo_ = 0;
  uint64_t zhi_ = 0;
  bool have_element_ = false;
  bool have_point_ = false;
  // The counters the cursor and generator do not keep themselves.
  QueryStats counted_;
  // Merge-order audits: B advances strictly in z order, and entries taken
  // from runs never move backwards.
  check::ZMonotone element_order_{/*strict=*/true};
  check::ZMonotone run_order_{/*strict=*/false};
};

ZkdIndex::SkipMerge::SkipMerge(const ZkdIndex& index,
                               const geometry::SpatialObject& object,
                               const SearchOptions& options,
                               uint64_t owned_lo, uint64_t owned_hi)
    : grid_(index.grid_),
      object_(object),
      owned_hi_(owned_hi),
      plain_(options.merge == SearchOptions::Merge::kPlainMerge),
      // A full-depth element is exact for any classifier (a one-cell
      // crossing region is decided by the classifier itself for boxes; for
      // general objects the boundary cell counts as inside per the grid
      // approximation), so verification only matters under a depth cap.
      verify_(options.verify_candidates && options.max_element_depth >= 0 &&
              options.max_element_depth < index.grid_.total_bits()),
      generator_(index.grid_, object,
                 decompose::DecomposeOptions{options.max_element_depth}),
      cursor_(&index.tree_) {
  const int total = grid_.total_bits();
  ZValue element;
  bool have = generator_.SeekForward(owned_lo, &element);
  while (have && element.RangeLo(total) < owned_lo) {
    have = generator_.Next(&element);
  }
  if (!Enter(have, element)) return;
  if (plain_) {
    have_point_ = cursor_.SeekFirst();
  } else {
    SeekElement();
  }
}

bool ZkdIndex::SkipMerge::Enter(bool have, const ZValue& element) {
  have_element_ = have;
  if (!have) return false;
  const int total = grid_.total_bits();
  zlo_ = element.RangeLo(total);
  zhi_ = element.RangeHi(total);
  PROBE_AUDIT(element_order_.Observe(zlo_, "skip-merge element sequence"));
  // Past owned_hi the elements are another partition's.
  have_element_ = zlo_ <= owned_hi_;
  return have_element_;
}

void ZkdIndex::SkipMerge::SeekElement() {
  ++counted_.point_seeks;
  have_point_ = cursor_.Seek(IntegerKey(grid_, zlo_));
}

bool ZkdIndex::SkipMerge::NextRun() {
  while (have_point_ && have_element_) {
    const uint64_t pz = cursor_.entry().key.ToZValue().ToInteger();
    if (pz > zhi_) {
      // P ran past the element: advance B (skip: to the first element
      // that ends at or after pz).
      ZValue element;
      if (!Enter(plain_ ? generator_.Next(&element)
                        : generator_.SeekForward(pz, &element),
                 element)) {
        ++counted_.points_scanned;  // the entry that ended the merge
        return false;
      }
      if (pz > zhi_) continue;  // plain: B steps on past pz
    }
    if (pz >= zlo_) return true;
    // pz precedes the element: advance P (skip: to the element's start).
    ++counted_.points_scanned;
    if (plain_) {
      have_point_ = cursor_.Next();
    } else {
      SeekElement();
    }
  }
  return false;
}

int ZkdIndex::SkipMerge::TakeRun() {
  const int run = cursor_.RunLengthLE(zhi_);
  PROBE_AUDIT(for (int k = 0; k < run; ++k) run_order_.Observe(
      cursor_.PeekZ(k), "skip-merge reported points"));
  counted_.points_scanned += static_cast<uint64_t>(run);
  return run;
}

uint64_t ZkdIndex::SkipMerge::CountElement() {
  ++counted_.contained_elements;
  const uint64_t count = cursor_.CountWhileLE(zhi_);
  counted_.results += count;
  have_point_ = cursor_.Valid();
  return count;
}

bool ZkdIndex::SkipMerge::Accept(const LeafEntry& entry) {
  if (verify_) {
    ++counted_.materialized_rows;
    if (!object_.ContainsCell(CellOf(grid_, entry))) return false;
  }
  ++counted_.results;
  return true;
}

QueryStats ZkdIndex::SkipMerge::stats() const {
  QueryStats stats = counted_;
  FillCursorStats(cursor_, &stats);
  stats.elements_generated = generator_.elements_emitted();
  stats.classify_calls = generator_.classify_calls();
  return stats;
}

ZkdIndex::ZkdIndex(const zorder::GridSpec& grid, storage::BufferPool* pool,
                   const btree::BTreeConfig& config)
    : grid_(grid), tree_(pool, config) {
  assert(grid_.Valid());
}

ZkdIndex ZkdIndex::Attach(const zorder::GridSpec& grid,
                          storage::BufferPool* pool,
                          const btree::BTree::PersistentState& state,
                          const btree::BTreeConfig& config) {
  assert(grid.Valid());
  return ZkdIndex(grid, btree::BTree::Attach(pool, state, config));
}

ZkdIndex ZkdIndex::Build(const zorder::GridSpec& grid,
                         storage::BufferPool* pool,
                         std::span<const PointRecord> points,
                         const btree::BTreeConfig& config, double fill) {
  std::vector<LeafEntry> entries;
  entries.reserve(points.size());
  for (const PointRecord& record : points) {
    entries.push_back(LeafEntry{PointKey(grid, record.point), record.id});
  }
  std::sort(entries.begin(), entries.end(),
            [](const LeafEntry& a, const LeafEntry& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.payload < b.payload;
            });
  ZkdIndex index(grid, pool, config);
  index.tree_ = btree::BTree::BulkLoad(pool, entries, config, fill);
  return index;
}

ZkdIndex ZkdIndex::BuildExternal(const zorder::GridSpec& grid,
                                 storage::BufferPool* pool,
                                 std::span<const PointRecord> points,
                                 storage::Pager* scratch,
                                 size_t memory_budget,
                                 const btree::BTreeConfig& config, double fill,
                                 btree::ExternalSortStats* sort_stats) {
  btree::ExternalSorter sorter(scratch, memory_budget);
  for (const PointRecord& record : points) {
    sorter.Add(LeafEntry{PointKey(grid, record.point), record.id});
  }
  btree::BTree::BulkBuilder builder(pool, config, fill);
  sorter.Drain([&](const LeafEntry& entry) { builder.Add(entry); });
  if (sort_stats != nullptr) *sort_stats = sorter.stats();
  ZkdIndex index(grid, pool, config);
  index.tree_ = builder.Finish();
  return index;
}

void ZkdIndex::Insert(const GridPoint& point, uint64_t id) {
  tree_.Insert(PointKey(grid_, point), id);
}

bool ZkdIndex::Delete(const GridPoint& point, uint64_t id) {
  return tree_.Delete(PointKey(grid_, point), id);
}

std::vector<uint64_t> ZkdIndex::RangeSearch(const GridBox& box,
                                            QueryStats* stats,
                                            const SearchOptions& options) const {
  QueryStats merged;
  if (options.merge == SearchOptions::Merge::kBigMin) {
    const auto [zmin, zmax] = BoxZRange(grid_, box);
    return Finish(BigMinPartition(zmin, zmax, zmin, zmax, &merged), merged,
                  stats);
  }
  return Finish(MergePartition(geometry::BoxObject(box), 0, ~0ULL, options,
                               &merged),
                merged, stats);
}

std::vector<uint64_t> ZkdIndex::SearchObject(
    const geometry::SpatialObject& object, QueryStats* stats,
    const SearchOptions& options) const {
  QueryStats merged;
  return Finish(MergePartition(object, 0, ~0ULL, options, &merged), merged,
                stats);
}

uint64_t ZkdIndex::CountRange(uint64_t zlo, uint64_t zhi,
                              QueryStats* stats) const {
  storage::PinBalanceScope pin_scope("ZkdIndex::CountRange");
  btree::BTree::Cursor cursor(&tree_);
  uint64_t count = 0;
  if (zlo <= zhi && cursor.Seek(IntegerKey(grid_, zlo))) {
    count = cursor.CountWhileLE(zhi);
  }
  if (stats != nullptr) {
    QueryStats part;
    FillCursorStats(cursor, &part);
    part.point_seeks = 1;
    part.results = count;
    *stats = part;
  }
  return count;
}

uint64_t ZkdIndex::CountBox(const geometry::GridBox& box, QueryStats* stats,
                            const SearchOptions& options) const {
  const geometry::BoxObject object(box);
  // The scope must outlive the merge, whose cursor keeps its leaf pinned.
  storage::PinBalanceScope pin_scope("ZkdIndex::CountBox");
  SkipMerge merge(*this, object, options);
  uint64_t count = 0;
  while (merge.NextRun()) {
    if (!merge.verify()) {
      // No entry of the element needs a check (at full depth the element
      // lies inside the box): count it whole.
      count += merge.CountElement();
      continue;
    }
    const int run = merge.TakeRun();
    for (int k = 0; k < run; ++k) {
      if (merge.Accept(merge.cursor().PeekEntry(k))) ++count;
    }
    merge.Skip(run);
  }
  const QueryStats part = merge.stats();
  if (stats != nullptr) *stats = part;
  FlushQueryMetrics(part);
  return count;
}

std::vector<uint64_t> ZkdIndex::PartialMatch(
    std::span<const std::optional<uint32_t>> fixed, QueryStats* stats,
    const SearchOptions& options) const {
  assert(fixed.size() == static_cast<size_t>(grid_.dims));
  const uint32_t max_cell = static_cast<uint32_t>(grid_.side() - 1);
  std::vector<zorder::DimRange> ranges(grid_.dims);
  for (int i = 0; i < grid_.dims; ++i) {
    if (fixed[i].has_value()) {
      ranges[i] = {*fixed[i], *fixed[i]};
    } else {
      ranges[i] = {0, max_cell};
    }
  }
  return RangeSearch(GridBox(ranges), stats, options);
}

std::vector<uint64_t> ZkdIndex::MergePartition(
    const geometry::SpatialObject& object, uint64_t owned_lo,
    uint64_t owned_hi, const SearchOptions& options, QueryStats* stats) const {
  // Every page pinned by this partition is released before it returns.
  // The scope must outlive the merge, whose cursor keeps its leaf pinned.
  storage::PinBalanceScope pin_scope("ZkdIndex::MergePartition");
  SkipMerge merge(*this, object, options, owned_lo, owned_hi);
  std::vector<uint64_t> results;
  while (merge.NextRun()) {
    const int run = merge.TakeRun();
    for (int k = 0; k < run; ++k) {
      const LeafEntry& entry = merge.cursor().PeekEntry(k);
      if (merge.Accept(entry)) results.push_back(entry.payload);
    }
    merge.Skip(run);
  }
  *stats = merge.stats();
  return results;
}

std::vector<uint64_t> ZkdIndex::BigMinPartition(uint64_t zmin, uint64_t zmax,
                                                uint64_t from, uint64_t upto,
                                                QueryStats* stats) const {
  // The BIGMIN walk must move strictly forward in z (each skip lands past
  // the current point) and leave no pinned pages behind. The scope must
  // outlive the cursor, which keeps its current leaf pinned.
  storage::PinBalanceScope pin_scope("ZkdIndex::BigMinPartition");
  btree::BTree::Cursor cursor(&tree_);
  std::vector<uint64_t> results;
  QueryStats part;
  part.point_seeks = 1;
  check::ZMonotone scan_order(/*strict=*/false);
  bool have_point = cursor.Seek(IntegerKey(grid_, from));
  while (have_point) {
    const uint64_t pz = cursor.entry().key.ToZValue().ToInteger();
    if (pz > upto) break;
    PROBE_AUDIT(scan_order.Observe(pz, "BIGMIN point scan"));
    ++part.points_scanned;
    if (InBox(grid_, pz, zmin, zmax)) {
      results.push_back(cursor.entry().payload);
      have_point = cursor.Next();
      continue;
    }
    uint64_t next_z = 0;
    const bool found = BigMin(grid_, pz, zmin, zmax, &next_z);
    PROBE_AUDIT(zorder::AuditBigMinResult(grid_, pz, zmin, zmax, found,
                                          next_z, /*is_bigmin=*/true));
    if (!found) break;
    if (next_z > upto) break;  // the rest of the box is another partition's
    ++part.point_seeks;
    have_point = cursor.Seek(IntegerKey(grid_, next_z));
  }

  FillCursorStats(cursor, &part);
  part.results = results.size();
  *stats = part;
  return results;
}

std::vector<uint64_t> ZkdIndex::ParallelDecomposed(
    const geometry::SpatialObject& object,
    std::span<const uint64_t> split_points, util::ThreadPool& pool,
    QueryStats* stats, const SearchOptions& options) const {
  SearchOptions skip = options;
  skip.merge = SearchOptions::Merge::kSkipMerge;  // plain has no partitions
  const size_t parts = split_points.size() + 1;
  return Concat(RunParts(pool, parts, stats, [&](size_t k, QueryStats* st) {
    const uint64_t lo = k == 0 ? 0 : split_points[k - 1];
    const uint64_t hi = k + 1 == parts ? ~0ULL : split_points[k] - 1;
    return MergePartition(object, lo, hi, skip, st);
  }));
}

std::vector<uint64_t> ZkdIndex::ParallelRangeSearch(
    const GridBox& box, util::ThreadPool& pool, int partitions,
    QueryStats* stats, const SearchOptions& options) const {
  QueryStats merged;
  const auto [zmin, zmax] = BoxZRange(grid_, box);

  // Candidate split points, snapped *into* the box with BIGMIN: a raw even
  // split may land in a z region the box never visits, which would leave
  // its partition idle. Snapping keeps the points ascending (BIGMIN is
  // monotone); collapsed or exhausted splits just shrink the fan-out.
  std::vector<uint64_t> splits;
  for (const uint64_t raw :
       EvenSplits(zmin, zmax, partitions > 0 ? partitions : pool.lanes())) {
    uint64_t snapped = raw;
    if (!InBox(grid_, snapped, zmin, zmax) &&
        !BigMin(grid_, snapped, zmin, zmax, &snapped)) {
      continue;  // no box cell at or after this split
    }
    if (snapped > zmin && (splits.empty() || snapped > splits.back())) {
      splits.push_back(snapped);
    }
  }

  if (options.merge == SearchOptions::Merge::kBigMin) {
    const size_t parts = splits.size() + 1;
    auto part = [&](size_t k, QueryStats* st) {
      const uint64_t from = k == 0 ? zmin : splits[k - 1];
      const uint64_t upto = k + 1 == parts ? zmax : splits[k] - 1;
      return BigMinPartition(zmin, zmax, from, upto, st);
    };
    return Finish(Concat(RunParts(pool, parts, &merged, part)), merged,
                  stats);
  }
  return Finish(ParallelDecomposed(geometry::BoxObject(box), splits, pool,
                                   &merged, options),
                merged, stats);
}

std::vector<uint64_t> ZkdIndex::ParallelSearchObject(
    const geometry::SpatialObject& object, util::ThreadPool& pool,
    int partitions, QueryStats* stats, const SearchOptions& options) const {
  QueryStats merged;
  const int parts = partitions > 0 ? partitions : pool.lanes();
  const int total = grid_.total_bits();
  const uint64_t zmax = total < 64 ? (1ULL << total) - 1 : ~0ULL;
  return Finish(ParallelDecomposed(object, EvenSplits(0, zmax, parts), pool,
                                   &merged, options),
                merged, stats);
}

ZkdIndex::RangeCursor::RangeCursor(const ZkdIndex& index, const GridBox& box,
                                   const SearchOptions& options)
    : box_(std::make_unique<const geometry::BoxObject>(box)),
      merge_(std::make_unique<SkipMerge>(index, *box_, options)) {}

ZkdIndex::RangeCursor::RangeCursor(RangeCursor&&) noexcept = default;

ZkdIndex::RangeCursor::~RangeCursor() {
  // A cursor is one query from the registry's point of view: flush its
  // aggregates when it dies, however far the caller drained it.
  if (merge_ != nullptr) FlushQueryMetrics(stats());  // null: moved from
}

bool ZkdIndex::RangeCursor::Next(uint64_t* id, GridPoint* point) {
  for (;;) {
    while (pos_ < run_) {
      const LeafEntry& entry = merge_->cursor().PeekEntry(pos_++);
      if (!merge_->Accept(entry)) continue;
      *id = entry.payload;
      if (point != nullptr) *point = CellOf(merge_->grid(), entry);
      return true;
    }
    if (run_ > 0) merge_->Skip(run_);
    run_ = pos_ = 0;
    if (!merge_->NextRun()) return false;
    run_ = merge_->TakeRun();
  }
}

QueryStats ZkdIndex::RangeCursor::stats() const { return merge_->stats(); }

std::vector<ZkdIndex::LeafInfo> ZkdIndex::LeafPartitions() const {
  std::vector<LeafInfo> infos;
  for (const auto& summary : tree_.LeafSequence()) {
    infos.push_back(LeafInfo{summary.first_key, summary.entries});
  }
  return infos;
}

}  // namespace probe::index
