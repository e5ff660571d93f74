#include "server/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <sstream>

#include "index/cost_model.h"
#include "probe/check.h"
#include "query/planner.h"
#include "query/query.h"
#include "zorder/shuffle.h"

namespace probe::server {

ShardedEngine::ShardedEngine(const zorder::GridSpec& grid,
                             const std::string& path_prefix,
                             const ShardedEngineOptions& options,
                             util::ThreadPool* pool)
    : grid_(grid), pool_(pool) {
  const int n = std::max(1, options.shards);
  shards_.resize(static_cast<size_t>(n));
  index::DurableIndex::Options shard_options;
  shard_options.truncate = options.truncate;
  // Opening runs recovery, which is I/O-bound per shard and independent
  // across them — recover in parallel like everything else.
  std::atomic<bool> all_ok{true};
  pool_->ParallelFor(static_cast<size_t>(n), [&](size_t i) {
    shards_[i] = std::make_unique<index::DurableIndex>(
        grid_, ShardPath(path_prefix, static_cast<int>(i)), shard_options);
    if (!shards_[i]->ok()) all_ok.store(false);
  });
  ok_ = all_ok.load();
}

std::string ShardedEngine::ShardPath(const std::string& prefix, int shard) {
  return prefix + ".shard" + std::to_string(shard);
}

uint64_t ShardedEngine::size() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->published_size();
  return total;
}

uint64_t ShardedEngine::ZOf(const geometry::GridPoint& point) const {
  return zorder::Shuffle(grid_, point.coords()).ToInteger();
}

int ShardedEngine::ShardOf(uint64_t z) const {
  const int bits = grid_.total_bits();
  const auto n = static_cast<unsigned __int128>(shards_.size());
  return static_cast<int>((static_cast<unsigned __int128>(z) * n) >> bits);
}

std::pair<uint64_t, uint64_t> ShardedEngine::ShardZRange(int shard) const {
  const int bits = grid_.total_bits();
  const auto n = static_cast<unsigned __int128>(shards_.size());
  const unsigned __int128 space = static_cast<unsigned __int128>(1) << bits;
  auto low = [&](int i) {
    return (static_cast<unsigned __int128>(i) * space + n - 1) / n;
  };
  const uint64_t lo = static_cast<uint64_t>(low(shard));
  const uint64_t hi = static_cast<uint64_t>(low(shard + 1) - 1);
  PROBE_ASSERT(shard == 0 || ShardOf(lo) == shard);
  return {lo, hi};
}

std::pair<int, int> ShardedEngine::ShardSpan(const geometry::GridBox& box) const {
  // A box's z range is [z(lo corner), z(hi corner)]: z is monotone in each
  // coordinate, so the extremes sit at the corners (the BIGMIN bound).
  uint32_t lo_coords[geometry::GridBox::kMaxDims];
  uint32_t hi_coords[geometry::GridBox::kMaxDims];
  for (int i = 0; i < box.dims(); ++i) {
    lo_coords[i] = box.range(i).lo;
    hi_coords[i] = box.range(i).hi;
  }
  const std::span<const uint32_t> lo(lo_coords,
                                     static_cast<size_t>(box.dims()));
  const std::span<const uint32_t> hi(hi_coords,
                                     static_cast<size_t>(box.dims()));
  return {ShardOf(zorder::Shuffle(grid_, lo).ToInteger()),
          ShardOf(zorder::Shuffle(grid_, hi).ToInteger())};
}

bool ShardedEngine::ValidBox(const geometry::GridBox& box) const {
  if (box.dims() != grid_.dims) return false;
  const uint64_t side = grid_.side();
  for (int i = 0; i < box.dims(); ++i) {
    if (side != 0 && box.range(i).hi >= side) return false;
  }
  return true;
}

bool ShardedEngine::ValidPoint(const geometry::GridPoint& point) const {
  if (point.dims() != grid_.dims) return false;
  const uint64_t side = grid_.side();
  for (int i = 0; i < point.dims(); ++i) {
    if (side != 0 && point[i] >= side) return false;
  }
  return true;
}

bool ShardedEngine::Apply(std::span<const index::DurableIndex::Op> ops) {
  if (!ok_) return false;
  // Route every op to its point's shard, preserving op order within each
  // shard (Apply semantics are order-sensitive for insert/delete pairs).
  std::vector<std::vector<index::DurableIndex::Op>> batches(shards_.size());
  for (const auto& op : ops) {
    if (!ValidPoint(op.point)) return false;
    batches[static_cast<size_t>(ShardOf(ZOf(op.point)))].push_back(op);
  }
  std::atomic<bool> all_ok{true};
  pool_->ParallelFor(shards_.size(), [&](size_t i) {
    if (batches[i].empty()) return;
    if (!shards_[i]->Apply(batches[i])) all_ok.store(false);
  });
  return all_ok.load();
}

bool ShardedEngine::Checkpoint() {
  if (!ok_) return false;
  bool all_ok = true;
  for (auto& shard : shards_) {
    if (!shard->Checkpoint()) all_ok = false;
  }
  return all_ok;
}

ShardedEngine::View ShardedEngine::CreateView() const {
  View view;
  view.engine_ = this;
  view.snaps_.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    view.snaps_[i] = shards_[i]->CreateSnapshot();
  }
  return view;
}

uint64_t ShardedEngine::View::epoch(int i) const {
  return snaps_[static_cast<size_t>(i)].epoch();
}

std::vector<uint64_t> ShardedEngine::View::epochs() const {
  std::vector<uint64_t> out;
  out.reserve(snaps_.size());
  for (const auto& s : snaps_) out.push_back(s.epoch());
  return out;
}

uint64_t ShardedEngine::View::size() const {
  uint64_t total = 0;
  for (const auto& s : snaps_) total += s.index().size();
  return total;
}

// Shard i's z interval wholly precedes shard i+1's and each shard reports
// in ascending z order, so concatenating the shard parts in shard order
// gives the single-engine output.
std::vector<uint64_t> ShardedEngine::View::RangeSearch(
    const geometry::GridBox& box, index::QueryStats* stats,
    const index::SearchOptions& options) const {
  const auto [first, last] = engine_->ShardSpan(box);
  return index::Concat(index::RunParts(
      *engine_->pool_, static_cast<size_t>(last - first + 1), stats,
      [&](size_t i, index::QueryStats* st) {
        return snaps_[static_cast<size_t>(first) + i].index().RangeSearch(
            box, st, options);
      }));
}

std::vector<ShardedEngine::Row> ShardedEngine::View::RangeSearchRows(
    const geometry::GridBox& box, index::QueryStats* stats,
    const index::SearchOptions& options) const {
  // Ids first (scatter-gathered), then the points re-derived per id would
  // cost a lookup each; instead run per-shard cursors that stream (id,
  // point) pairs directly.
  const auto [first, last] = engine_->ShardSpan(box);
  return index::Concat(index::RunParts(
      *engine_->pool_, static_cast<size_t>(last - first + 1), stats,
      [&](size_t i, index::QueryStats* st) {
        index::ZkdIndex::RangeCursor cursor(
            snaps_[static_cast<size_t>(first) + i].index(), box, options);
        std::vector<Row> rows;
        Row row;
        while (cursor.Next(&row.id, &row.point)) rows.push_back(row);
        *st = cursor.stats();
        return rows;
      }));
}

uint64_t ShardedEngine::View::CountBox(const geometry::GridBox& box,
                                       index::QueryStats* stats,
                                       const index::SearchOptions& options) const {
  const auto [first, last] = engine_->ShardSpan(box);
  const std::vector<uint64_t> counts = index::RunParts(
      *engine_->pool_, static_cast<size_t>(last - first + 1), stats,
      [&](size_t i, index::QueryStats* st) {
        return snaps_[static_cast<size_t>(first) + i].index().CountBox(
            box, st, options);
      });
  return std::accumulate(counts.begin(), counts.end(), uint64_t{0});
}

std::vector<index::Neighbor> ShardedEngine::View::KNearest(
    const geometry::GridPoint& center, size_t k) const {
  std::vector<std::vector<index::Neighbor>> partials(snaps_.size());
  engine_->pool_->ParallelFor(snaps_.size(), [&](size_t i) {
    partials[i] = index::KNearest(snaps_[i].index(), center, k);
  });
  std::vector<index::Neighbor> all;
  for (auto& p : partials) {
    all.insert(all.end(), p.begin(), p.end());
  }
  // Single-engine order: ascending distance, ties by id.
  std::sort(all.begin(), all.end(),
            [](const index::Neighbor& a, const index::Neighbor& b) {
              if (a.distance2 != b.distance2) return a.distance2 < b.distance2;
              return a.id < b.id;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<uint64_t> ShardedEngine::RangeSearch(
    const geometry::GridBox& box, index::QueryStats* stats,
    const index::SearchOptions& options) const {
  return CreateView().RangeSearch(box, stats, options);
}

std::vector<ShardedEngine::Row> ShardedEngine::RangeSearchRows(
    const geometry::GridBox& box, index::QueryStats* stats,
    const index::SearchOptions& options) const {
  return CreateView().RangeSearchRows(box, stats, options);
}

uint64_t ShardedEngine::CountBox(const geometry::GridBox& box,
                                 index::QueryStats* stats,
                                 const index::SearchOptions& options) const {
  return CreateView().CountBox(box, stats, options);
}

std::vector<index::Neighbor> ShardedEngine::KNearest(
    const geometry::GridPoint& center, size_t k) const {
  return CreateView().KNearest(center, k);
}

std::string ShardedEngine::Explain(const geometry::GridBox& box,
                                   bool count) const {
  const View view = CreateView();
  const auto [first, last] = ShardSpan(box);
  std::ostringstream out;
  out << "scatter-gather " << (count ? "count" : "range") << " "
      << box.ToString() << ": shards " << first << ".." << last << " of "
      << shards_.size() << "\n";
  for (int s = first; s <= last; ++s) {
    const index::ZkdIndex& shard_index =
        view.snaps_[static_cast<size_t>(s)].index();
    const auto [zlo, zhi] = ShardZRange(s);
    const index::CostModel model = index::CostModel::FromIndex(shard_index);
    const query::Query q =
        count ? query::Query::Count(box) : query::Query::Range(box);
    query::PlannerContext ctx;
    ctx.index = &shard_index;
    ctx.cost_model = &model;
    const query::PlannedQuery planned = query::Plan(q, ctx);
    out << "  shard " << s << " z=[" << zlo << "," << zhi
        << "] points=" << shard_index.size() << ": " << planned.summary
        << "\n";
  }
  return out.str();
}

}  // namespace probe::server
