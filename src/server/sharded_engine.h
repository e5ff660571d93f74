#ifndef PROBE_SERVER_SHARDED_ENGINE_H_
#define PROBE_SERVER_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "index/durable_index.h"
#include "index/nearest.h"
#include "index/zkd_index.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "zorder/grid.h"

/// \file
/// Shard-per-core execution: N independent engines over a range-partitioned
/// z space.
///
/// BENCH_parallel showed the single-engine ceiling: partitioned execution
/// is correct but flat, because every lane contends on one buffer pool (one
/// latch set, one eviction clock, one WAL). The structural fix is to stop
/// sharing: a ShardedEngine range-partitions the full-resolution z space
/// into `shards` contiguous intervals and gives each interval its *own*
/// DurableIndex — own database file, own WAL, own buffer pool. Shards share
/// nothing, so a scatter-gathered query scales with cores instead of with
/// one pool's latch throughput, and a crash recovers shard by shard.
///
/// Range partitioning (not hashing) is what keeps answers *bitwise
/// identical* to a single engine: every query result this library produces
/// is in ascending z order, shard i's interval wholly precedes shard
/// i+1's, and a point's shard is determined by its z value — so
/// concatenating per-shard results in shard order *is* the single-engine
/// output, no merge or sort needed. This is the Zones-style scatter-gather
/// (Gray et al.): partition by the sort key, fan out, concatenate.
///
/// Concurrency: there is no engine-wide lock anymore. Writers route ops to
/// shards and commit per-shard batches in parallel; within a shard,
/// concurrent batches serialize on the shard's apply lock but share fsyncs
/// through the WAL's group commit. Queries never block writers and never
/// see a half-applied batch: each query pins a per-shard *snapshot* — the
/// shard's newest published (durable) epoch — and runs against that frozen
/// view (see DurableIndex::CreateSnapshot). A View makes the pinned state
/// explicit when a caller wants several queries against one consistent
/// per-shard state.
///
/// A batch is atomic within each shard (the DurableIndex guarantee);
/// cross-shard atomicity is not promised — a kill between shard commits
/// can surface a prefix of the batch, which the identity tests pin down by
/// replaying the per-shard commit oracle. Likewise a View's shards are
/// each internally consistent but pinned independently.

namespace probe::server {

/// Construction options; `config`/`pool_pages`/`policy`/`truncate` apply
/// to every shard.
struct ShardedEngineOptions {
  int shards = 1;
  size_t pool_pages_per_shard = 256;
  size_t snapshot_pool_pages_per_shard = 64;
  /// Every shard's tree shape, as in DurableIndex::Options.
  btree::BTreeConfig config;
  storage::EvictionPolicy policy = storage::EvictionPolicy::kLru;
  bool truncate = false;
};

/// N DurableIndex shards behind one query facade.
class ShardedEngine {
 public:
  /// (id, point) rows of a box, in the same order as RangeSearch.
  struct Row {
    uint64_t id = 0;
    geometry::GridPoint point;
  };

  /// A pinned per-shard read state: shard i's queries run against shard
  /// i's newest published epoch as of CreateView(). Holding a View keeps
  /// those epochs pinned (blocking checkpoints and version GC); drop it
  /// when done. Copyable — copies share the pins.
  class View {
   public:
    View() = default;

    bool ok() const { return engine_ != nullptr; }

    /// Epoch pinned on shard `i` / all pinned epochs in shard order.
    uint64_t epoch(int i) const;
    std::vector<uint64_t> epochs() const;

    /// Total points across the pinned shard states.
    uint64_t size() const;

    /// The scatter-gather queries, frozen at the pinned epochs. Same
    /// contracts as the engine-level methods.
    std::vector<uint64_t> RangeSearch(
        const geometry::GridBox& box, index::QueryStats* stats = nullptr,
        const index::SearchOptions& options = {}) const;
    std::vector<Row> RangeSearchRows(
        const geometry::GridBox& box, index::QueryStats* stats = nullptr,
        const index::SearchOptions& options = {}) const;
    uint64_t CountBox(const geometry::GridBox& box,
                      index::QueryStats* stats = nullptr,
                      const index::SearchOptions& options = {}) const;
    std::vector<index::Neighbor> KNearest(const geometry::GridPoint& center,
                                          size_t k) const;

   private:
    friend class ShardedEngine;
    const ShardedEngine* engine_ = nullptr;
    std::vector<index::DurableIndex::Snapshot> snaps_;
  };

  /// Opens (creating or recovering) shard files `prefix + ".shardK"`.
  /// `pool` drives the scatter-gather fan-out and the parallel per-shard
  /// commits; it must outlive the engine. Check ok().
  ShardedEngine(const zorder::GridSpec& grid, const std::string& path_prefix,
                const ShardedEngineOptions& options, util::ThreadPool* pool);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// False when any shard failed to open or recover.
  bool ok() const { return ok_; }

  int shard_count() const { return static_cast<int>(shards_.size()); }
  const zorder::GridSpec& grid() const { return grid_; }

  /// Total points across shards, as of each shard's published epoch.
  uint64_t size() const;

  /// Pins every shard's newest published epoch. Thread-safe; cheap when
  /// the shards haven't advanced since the last View (pinned views of an
  /// unchanged epoch are shared, not rebuilt).
  View CreateView() const;

  /// Routes each op to its point's shard and applies the per-shard batches
  /// in parallel. Thread-safe: concurrent callers group-commit within each
  /// shard. True iff every involved shard committed.
  bool Apply(std::span<const index::DurableIndex::Op> ops);

  /// Checkpoints every shard (bounding each shard's log). Blocks until
  /// in-flight Views release their pins. Safe to overlap with queries and
  /// Apply. Shards are checkpointed one at a time, on the calling thread:
  /// a shard's checkpoint drains that shard's snapshot pins while
  /// CreateView acquires pins shard by shard, so draining two shards at
  /// once could deadlock in a cycle (view A pins shard 0 and waits on
  /// shard 1's drain, view B pins shard 1 and waits on shard 0's drain,
  /// each drain waits on the other view's pin). One drain at a time —
  /// enforced across concurrent Checkpoint calls by checkpoint_mutex_ —
  /// means a view blocked at the draining shard never holds that shard's
  /// pin, so every pin holder can finish and the drain always completes.
  bool Checkpoint();

  /// Scatter-gather range query: identical, element for element, to the
  /// same query on a single engine holding all the points. Only shards
  /// whose z interval meets the box's z range participate. Runs against a
  /// freshly pinned View — never blocks on, or sees a torn state from,
  /// concurrent Apply batches.
  std::vector<uint64_t> RangeSearch(
      const geometry::GridBox& box, index::QueryStats* stats = nullptr,
      const index::SearchOptions& options = {}) const;

  /// Scatter-gather BOX query: RangeSearch's ids with their points, in
  /// the same order, under the same options.
  std::vector<Row> RangeSearchRows(
      const geometry::GridBox& box, index::QueryStats* stats = nullptr,
      const index::SearchOptions& options = {}) const;

  /// Scatter-gather COUNT(*): the sum of per-shard aggregate pushdowns;
  /// equals RangeSearch(box).size().
  uint64_t CountBox(const geometry::GridBox& box,
                    index::QueryStats* stats = nullptr,
                    const index::SearchOptions& options = {}) const;

  /// Scatter-gather k-NN: every shard answers locally, the gather keeps
  /// the k best by (distance2, id) — the single-engine tie-break order.
  std::vector<index::Neighbor> KNearest(const geometry::GridPoint& center,
                                        size_t k) const;

  /// Routing + per-shard plan text for a box query (`count` = COUNT plan):
  /// which shards the query scatters to, each shard's z interval, and the
  /// planner's one-line decision for the shard-local query.
  std::string Explain(const geometry::GridBox& box, bool count) const;

  // -------------------------------------------------- routing arithmetic

  /// Shard owning full-resolution z value `z`.
  int ShardOf(uint64_t z) const;

  /// Closed z interval [lo, hi] owned by `shard`.
  std::pair<uint64_t, uint64_t> ShardZRange(int shard) const;

  /// Closed shard interval [first, last] a box query must scatter to.
  std::pair<int, int> ShardSpan(const geometry::GridBox& box) const;

  /// Full-resolution z value of a point on this engine's grid.
  uint64_t ZOf(const geometry::GridPoint& point) const;

  // --------------------------------------------------------- test seams

  /// Shard `i`'s engine, for fault injection and WAL kill tests.
  index::DurableIndex& shard(int i) { return *shards_[static_cast<size_t>(i)]; }

  static std::string ShardPath(const std::string& prefix, int shard);

  /// Dimensionality and coordinate-bound validation against the grid; the
  /// server layer rejects queries that fail these before any shard
  /// arithmetic or Shuffle assertion can run on hostile input.
  bool ValidBox(const geometry::GridBox& box) const;
  bool ValidPoint(const geometry::GridPoint& point) const;

 private:
  zorder::GridSpec grid_;
  util::ThreadPool* pool_;
  // Immutable after construction; each DurableIndex is internally
  // synchronized (apply lock + group commit for writers, epoch-pinned
  // snapshots for readers), so the query and write paths need no engine
  // lock.
  std::vector<std::unique_ptr<index::DurableIndex>> shards_;
  // Serializes Checkpoint calls so at most one shard is ever draining its
  // snapshot pins (see Checkpoint). Leaf: held across per-shard
  // DurableIndex::Checkpoint calls but never while touching another
  // engine-level lock.
  util::Mutex checkpoint_mutex_;
  bool ok_ = false;
};

}  // namespace probe::server

#endif  // PROBE_SERVER_SHARDED_ENGINE_H_
