#include "query/plan.h"

#include <cassert>
#include <chrono>
#include <utility>

#include "index/nearest.h"
#include "probe/check.h"
#include "storage/buffer_pool.h"
#include "relational/distance_join.h"
#include "relational/operators.h"
#include "relational/spatial_join.h"
#include "zorder/zvalue.h"

namespace probe::query {

namespace {

using relational::Relation;
using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

/// Accumulates wall time into a NodeStats field for the enclosing scope.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* ms)
      : ms_(ms), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    *ms_ += std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start_)
                .count();
  }

 private:
  double* ms_;
  std::chrono::steady_clock::time_point start_;
};

Schema IdSchema() {
  return Schema({{"id", ValueType::kInt}});
}

/// Base for blocking nodes: Open materializes `result_`, Next streams it.
class MaterializedNode : public PlanNode {
 public:
  explicit MaterializedNode(Schema schema) : result_(std::move(schema)) {}

  const Schema& schema() const override { return result_.schema(); }

 protected:
  bool DoNext(Tuple* out) override {
    if (pos_ >= result_.size()) return false;
    *out = result_.row(pos_++);
    return true;
  }

  void ResetResult() {
    result_ = Relation(result_.schema());
    pos_ = 0;
  }

  Relation result_;
  size_t pos_ = 0;
};

/// Fills a relation of (id) tuples from an id vector.
void FillIds(Relation* rel, const std::vector<uint64_t>& ids) {
  rel->Reserve(ids.size());
  for (const uint64_t id : ids) {
    Tuple t;
    t.emplace_back(static_cast<int64_t>(id));
    rel->Add(std::move(t));
  }
}

// ----------------------------------------------------------- ZkdRangeScan

class ZkdRangeScanNode final : public PlanNode {
 public:
  ZkdRangeScanNode(const index::ZkdIndex& index, const geometry::GridBox& box,
                   const index::SearchOptions& options, util::ThreadPool* pool,
                   int partitions)
      : index_(index),
        box_(box),
        options_(options),
        pool_(pool),
        partitions_(partitions),
        schema_(IdSchema()) {
    stats_.op = pool_ != nullptr ? "ParallelRangeScan" : "ZkdRangeScan";
    wants_pool_window_ = true;
  }

  const Schema& schema() const override { return schema_; }

 protected:
  void DoOpen() override {
    ScopedTimer timer(&stats_.ms);
    if (pool_ == nullptr) {
      cursor_.emplace(index_, box_, options_);
      return;
    }
    index::QueryStats qstats;
    ids_ = index_.ParallelRangeSearch(box_, *pool_, partitions_, &qstats,
                                      options_);
    stats_.actual_pages = qstats.leaf_pages;
    stats_.actual_elements = qstats.elements_generated;
  }

  bool DoNext(Tuple* out) override {
    ScopedTimer timer(&stats_.ms);
    uint64_t id = 0;
    if (cursor_.has_value()) {
      if (!cursor_->Next(&id)) {
        RecordCursorStats();  // the merge has run to the end
        return false;
      }
    } else {
      if (pos_ >= ids_.size()) return false;
      id = ids_[pos_++];
    }
    out->clear();
    out->emplace_back(static_cast<int64_t>(id));
    return true;
  }

  void DoClose() override {
    // The cursor keeps its current leaf pinned; release it now rather than
    // at node destruction.
    if (cursor_.has_value()) {
      RecordCursorStats();
      cursor_.reset();
    }
  }

 private:
  void RecordCursorStats() {
    const index::QueryStats qstats = cursor_->stats();
    stats_.actual_pages = qstats.leaf_pages;
    stats_.actual_elements = qstats.elements_generated;
  }

  const index::ZkdIndex& index_;
  geometry::GridBox box_;
  index::SearchOptions options_;
  util::ThreadPool* pool_;
  int partitions_;
  Schema schema_;
  std::optional<index::ZkdIndex::RangeCursor> cursor_;
  std::vector<uint64_t> ids_;
  size_t pos_ = 0;
};

// ----------------------------------------------------------- ObjectSearch

class ObjectSearchNode final : public MaterializedNode {
 public:
  ObjectSearchNode(const index::ZkdIndex& index,
                   const geometry::SpatialObject* object,
                   std::unique_ptr<const geometry::SpatialObject> owned,
                   const index::SearchOptions& options, util::ThreadPool* pool,
                   int partitions, const std::string& op_name)
      : MaterializedNode(IdSchema()),
        index_(index),
        owned_(std::move(owned)),
        object_(owned_ != nullptr ? owned_.get() : object),
        options_(options),
        pool_(pool),
        partitions_(partitions) {
    assert(object_ != nullptr);
    stats_.op = !op_name.empty()
                    ? op_name
                    : (pool_ != nullptr ? "ParallelObjectSearch"
                                        : "ObjectSearch");
    wants_pool_window_ = true;
  }

 protected:
  void DoOpen() override {
    ScopedTimer timer(&stats_.ms);
    ResetResult();
    index::QueryStats qstats;
    std::vector<uint64_t> ids;
    if (pool_ != nullptr) {
      ids = index_.ParallelSearchObject(*object_, *pool_, partitions_,
                                        &qstats, options_);
    } else {
      ids = index_.SearchObject(*object_, &qstats, options_);
    }
    stats_.actual_pages = qstats.leaf_pages;
    stats_.actual_elements = qstats.elements_generated;
    FillIds(&result_, ids);
  }

 private:
  const index::ZkdIndex& index_;
  std::unique_ptr<const geometry::SpatialObject> owned_;
  const geometry::SpatialObject* object_;
  index::SearchOptions options_;
  util::ThreadPool* pool_;
  int partitions_;
};

// --------------------------------------------------------- AggregateCount

/// COUNT(*) pushed down into the index: ZkdIndex::CountBox sums run entry
/// counts (whole leaves via their header) for elements fully contained in
/// the box, so a full-depth count materializes zero rows. Emits exactly one
/// (count) tuple.
class AggregateCountNode final : public PlanNode {
 public:
  AggregateCountNode(const index::ZkdIndex& index, const geometry::GridBox& box,
                     const index::SearchOptions& options)
      : index_(index), box_(box), options_(options),
        schema_(Schema({{"count", ValueType::kInt}})) {
    stats_.op = "AggregateCount";
    wants_pool_window_ = true;
  }

  const Schema& schema() const override { return schema_; }

 protected:
  void DoOpen() override {
    ScopedTimer timer(&stats_.ms);
    index::QueryStats qstats;
    count_ = index_.CountBox(box_, &qstats, options_);
    emitted_ = false;
    stats_.actual_pages = qstats.leaf_pages;
    stats_.actual_elements = qstats.elements_generated;
    stats_.has_aggregate = true;
    stats_.contained_elements = qstats.contained_elements;
    stats_.materialized_rows = qstats.materialized_rows;
  }

  bool DoNext(Tuple* out) override {
    if (emitted_) return false;
    emitted_ = true;
    out->clear();
    out->emplace_back(static_cast<int64_t>(count_));
    return true;
  }

 private:
  const index::ZkdIndex& index_;
  geometry::GridBox box_;
  index::SearchOptions options_;
  Schema schema_;
  uint64_t count_ = 0;
  bool emitted_ = false;
};

// ----------------------------------------------------------- BucketKdScan

class BucketKdScanNode final : public MaterializedNode {
 public:
  BucketKdScanNode(const baseline::BucketKdTree& tree,
                   const geometry::GridBox& box)
      : MaterializedNode(IdSchema()), tree_(tree), box_(box) {
    stats_.op = "BucketKdScan";
  }

 protected:
  void DoOpen() override {
    ScopedTimer timer(&stats_.ms);
    ResetResult();
    baseline::BucketKdStats kd_stats;
    FillIds(&result_, tree_.RangeSearch(box_, &kd_stats));
    stats_.actual_pages = kd_stats.leaf_pages;
  }

 private:
  const baseline::BucketKdTree& tree_;
  geometry::GridBox box_;
};

// --------------------------------------------------------------- KNearest

class KNearestNode final : public MaterializedNode {
 public:
  KNearestNode(const index::ZkdIndex& index, const geometry::GridPoint& center,
               size_t k)
      : MaterializedNode(Schema(
            {{"id", ValueType::kInt}, {"dist2", ValueType::kInt}})),
        index_(index),
        center_(center),
        k_(k) {
    stats_.op = "KNearest";
    wants_pool_window_ = true;
  }

 protected:
  void DoOpen() override {
    ScopedTimer timer(&stats_.ms);
    ResetResult();
    index::NearestStats nstats;
    const auto neighbors = index::KNearest(index_, center_, k_, &nstats);
    result_.Reserve(neighbors.size());
    for (const auto& n : neighbors) {
      Tuple t;
      t.emplace_back(static_cast<int64_t>(n.id));
      // The tuple column is int64 but distances are 128-bit; saturate so
      // an extreme-corner distance renders as "huge", never wraps
      // negative. Row order is decided before this cast.
      constexpr index::Dist2 kMaxInt64 =
          static_cast<index::Dist2>(~0ULL >> 1);
      t.emplace_back(n.distance2 > kMaxInt64
                         ? static_cast<int64_t>(~0ULL >> 1)
                         : static_cast<int64_t>(n.distance2));
      result_.Add(std::move(t));
    }
    stats_.actual_pages = nstats.leaf_pages;
    stats_.actual_elements = nstats.regions_expanded;
  }

 private:
  const index::ZkdIndex& index_;
  geometry::GridPoint center_;
  size_t k_;
};

// ----------------------------------------------------------- RelationScan

class RelationScanNode final : public PlanNode {
 public:
  explicit RelationScanNode(const Relation& rel) : rel_(rel) {
    stats_.op = "RelationScan";
  }

  const Schema& schema() const override { return rel_.schema(); }

 protected:
  void DoOpen() override { pos_ = 0; }

  bool DoNext(Tuple* out) override {
    if (pos_ >= rel_.size()) return false;
    *out = rel_.row(pos_++);
    return true;
  }

 private:
  const Relation& rel_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------ EmptyResult

class EmptyResultNode final : public PlanNode {
 public:
  explicit EmptyResultNode(Schema schema) : schema_(std::move(schema)) {
    stats_.op = "EmptyResult";
  }

  const Schema& schema() const override { return schema_; }

 protected:
  void DoOpen() override {}
  bool DoNext(Tuple*) override { return false; }

 private:
  Schema schema_;
};

// -------------------------------------------------------------- Decompose

/// Drains an already-open child into an in-memory relation.
Relation DrainChild(PlanNode* child) {
  Relation out(child->schema());
  Tuple row;
  while (child->Next(&row)) out.Add(std::move(row));
  return out;
}

class DecomposeNode final : public MaterializedNode {
 public:
  DecomposeNode(std::unique_ptr<PlanNode> child, const zorder::GridSpec& grid,
                std::string id_column,
                const relational::ObjectCatalog& catalog, std::string z_column,
                const decompose::DecomposeOptions& options)
      : MaterializedNode(MakeSchema(child->schema(), z_column)),
        grid_(grid),
        id_column_(std::move(id_column)),
        catalog_(catalog),
        z_column_(std::move(z_column)),
        options_(options) {
    stats_.op = "Decompose";
    AddChild(std::move(child));
  }

 protected:
  void DoOpen() override {
    child(0)->Open();
    const Relation input = DrainChild(child(0));
    ScopedTimer timer(&stats_.ms);
    ResetResult();
    decompose::DecomposeStats dstats;
    result_ = relational::DecomposeRelation(grid_, input, id_column_, catalog_,
                                            z_column_, options_, &dstats);
    stats_.actual_elements = dstats.elements;
    // Every emitted element must be a region of this grid: a z value longer
    // than the grid's bit budget cannot come from a legal decomposition.
    PROBE_AUDIT({
      const int z_idx = result_.schema().IndexOf(z_column_);
      for (size_t row = 0; row < result_.size(); ++row) {
        const auto& z = std::get<zorder::ZValue>(result_.row(row)[z_idx]);
        PROBE_ASSERT_MSG(z.length() <= grid_.total_bits(),
                         "decomposed element deeper than the grid");
      }
    });
  }

 private:
  static Schema MakeSchema(const Schema& in, const std::string& z_column) {
    std::vector<relational::Column> columns;
    for (int i = 0; i < in.column_count(); ++i) columns.push_back(in.column(i));
    columns.push_back({z_column, ValueType::kZValue});
    return Schema(std::move(columns));
  }

  zorder::GridSpec grid_;
  std::string id_column_;
  const relational::ObjectCatalog& catalog_;
  std::string z_column_;
  decompose::DecomposeOptions options_;
};

// -------------------------------------------------------------- MergeJoin

class MergeJoinNode final : public MaterializedNode {
 public:
  MergeJoinNode(std::unique_ptr<PlanNode> left, std::unique_ptr<PlanNode> right,
                std::string left_z, std::string right_z,
                util::ThreadPool* pool, int partitions)
      : MaterializedNode(Schema::Concat(left->schema(), right->schema())),
        left_z_(std::move(left_z)),
        right_z_(std::move(right_z)),
        pool_(pool),
        partitions_(partitions) {
    stats_.op = pool_ != nullptr ? "ParallelMergeSpatialJoin"
                                 : "MergeSpatialJoin";
    AddChild(std::move(left));
    AddChild(std::move(right));
  }

 protected:
  void DoOpen() override {
    child(0)->Open();
    child(1)->Open();
    const Relation left = DrainChild(child(0));
    const Relation right = DrainChild(child(1));
    ScopedTimer timer(&stats_.ms);
    ResetResult();
    relational::SpatialJoinStats jstats;
    if (pool_ != nullptr) {
      result_ = relational::ParallelSpatialJoin(left, left_z_, right, right_z_,
                                                *pool_, partitions_, &jstats);
    } else {
      result_ = relational::SpatialJoin(left, left_z_, right, right_z_,
                                        &jstats);
    }
    stats_.actual_elements = jstats.r_rows + jstats.s_rows;
    // The pair counter and the materialized output are maintained
    // independently (per-slice counters vs. emitted tuples); they must
    // agree or a parallel slice lost or duplicated work.
    PROBE_ASSERT_MSG(jstats.pairs == result_.size(),
                     "spatial-join pair count disagrees with output size");
    stats_.detail += (stats_.detail.empty() ? "" : " ");
    stats_.detail += "pairs=" + std::to_string(jstats.pairs) +
                     " merge_partitions=" + std::to_string(jstats.partitions);
  }

 private:
  std::string left_z_;
  std::string right_z_;
  util::ThreadPool* pool_;
  int partitions_;
};

// ----------------------------------------------------------- DistanceJoin

class DistanceJoinNode final : public MaterializedNode {
 public:
  DistanceJoinNode(std::span<const index::PointRecord> r,
                   std::span<const index::PointRecord> s,
                   const zorder::GridSpec& grid, uint64_t radius,
                   uint64_t zone_height, util::ThreadPool* pool,
                   int partitions)
      : MaterializedNode(Schema(
            {{"r_id", ValueType::kInt}, {"s_id", ValueType::kInt}})),
        r_(r),
        s_(s),
        grid_(grid),
        radius_(radius),
        zone_height_(zone_height),
        pool_(pool),
        partitions_(partitions) {
    stats_.op = pool_ != nullptr ? "ParallelDistanceJoin" : "DistanceJoin";
  }

 protected:
  void DoOpen() override {
    ScopedTimer timer(&stats_.ms);
    ResetResult();
    relational::DistanceJoinOptions options;
    options.zone_height = zone_height_;
    options.pool = pool_;
    options.partitions = partitions_;
    relational::DistanceJoinStats jstats;
    relational::DistanceJoin(
        r_, s_, grid_, radius_,
        [this](const relational::IdPair& p) {
          Tuple t;
          t.emplace_back(static_cast<int64_t>(p.r_id));
          t.emplace_back(static_cast<int64_t>(p.s_id));
          result_.Add(std::move(t));
        },
        &jstats, options);
    // EXPLAIN's est-vs-actual pages: what the zone sort actually spilled.
    stats_.actual_pages = jstats.sort_pages;
    stats_.actual_elements = jstats.candidate_pairs;
    PROBE_ASSERT_MSG(jstats.pairs == result_.size(),
                     "distance-join pair count disagrees with output size");
    stats_.detail += (stats_.detail.empty() ? "" : " ");
    stats_.detail +=
        "zones=" + std::to_string(jstats.r_zones) + "/" +
        std::to_string(jstats.s_zones) +
        " candidates=" + std::to_string(jstats.candidate_pairs) +
        " pairs=" + std::to_string(jstats.pairs) +
        " merge_partitions=" + std::to_string(jstats.partitions);
  }

 private:
  std::span<const index::PointRecord> r_;
  std::span<const index::PointRecord> s_;
  zorder::GridSpec grid_;
  uint64_t radius_;
  uint64_t zone_height_;
  util::ThreadPool* pool_;
  int partitions_;
};

// ----------------------------------------------------------------- Filter

class FilterNode final : public PlanNode {
 public:
  FilterNode(std::unique_ptr<PlanNode> child,
             std::function<bool(const Tuple&)> predicate)
      : predicate_(std::move(predicate)) {
    stats_.op = "Filter";
    AddChild(std::move(child));
  }

  const Schema& schema() const override { return child(0)->schema(); }

 protected:
  void DoOpen() override { child(0)->Open(); }

  bool DoNext(Tuple* out) override {
    while (child(0)->Next(out)) {
      if (predicate_(*out)) return true;
    }
    return false;
  }

 private:
  std::function<bool(const Tuple&)> predicate_;
};

// ---------------------------------------------------------------- Project

class ProjectNode final : public MaterializedNode {
 public:
  ProjectNode(std::unique_ptr<PlanNode> child, std::vector<std::string> columns,
              bool deduplicate)
      : MaterializedNode(MakeSchema(child->schema(), columns)),
        columns_(std::move(columns)),
        deduplicate_(deduplicate) {
    stats_.op = "Project";
    stats_.detail = deduplicate_ ? "dedup" : "";
    AddChild(std::move(child));
  }

 protected:
  void DoOpen() override {
    child(0)->Open();
    const Relation input = DrainChild(child(0));
    ScopedTimer timer(&stats_.ms);
    ResetResult();
    result_ = relational::Project(input, columns_, deduplicate_);
  }

 private:
  static Schema MakeSchema(const Schema& in,
                           const std::vector<std::string>& columns) {
    std::vector<relational::Column> out;
    for (const std::string& name : columns) {
      const int idx = in.IndexOf(name);
      assert(idx >= 0);
      out.push_back(in.column(idx));
    }
    return Schema(std::move(out));
  }

  std::vector<std::string> columns_;
  bool deduplicate_;
};

// ------------------------------------------------------------------ Limit

class LimitNode final : public PlanNode {
 public:
  LimitNode(std::unique_ptr<PlanNode> child, size_t limit) : limit_(limit) {
    stats_.op = "Limit";
    stats_.detail = "n=" + std::to_string(limit);
    AddChild(std::move(child));
  }

  const Schema& schema() const override { return child(0)->schema(); }

 protected:
  void DoOpen() override { child(0)->Open(); }

  bool DoNext(Tuple* out) override {
    // stats_.rows counts rows already emitted (the base increments it
    // after each successful DoNext), so it doubles as the limit cursor.
    if (stats_.rows >= limit_) return false;
    return child(0)->Next(out);
  }

 private:
  size_t limit_;
};

}  // namespace

void PlanNode::Open() {
  stats_.executed = true;
  if (trace_ != nullptr) span_ = trace_->StartSpan(stats_.op);
  if (pool_ != nullptr && wants_pool_window_) {
    const storage::BufferPoolStats before = pool_->stats();
    window_misses_ = before.misses;
    window_hits_ = before.hits;
    window_open_ = true;
  }
  DoOpen();
}

bool PlanNode::Next(relational::Tuple* out) {
  if (!DoNext(out)) return false;
  ++stats_.rows;
  return true;
}

void PlanNode::Close() {
  DoClose();
  if (window_open_) {
    const storage::BufferPoolStats after = pool_->stats();
    stats_.pool_misses = after.misses - window_misses_;
    stats_.pool_hits = after.hits - window_hits_;
    stats_.has_pool_stats = true;
    window_open_ = false;
  }
  if (span_.active()) {
    span_.Count("rows", stats_.rows);
    if (stats_.actual_pages != 0) span_.Count("pages", stats_.actual_pages);
    if (stats_.has_pool_stats) span_.Count("pool_misses", stats_.pool_misses);
    span_.Finish();
  }
  for (auto& child : children_) child->Close();
}

void PlanNode::AttachInstrumentation(const storage::BufferPool* pool,
                                     obs::Trace* trace) {
  pool_ = pool;
  trace_ = trace;
  for (auto& child : children_) child->AttachInstrumentation(pool, trace);
}

std::unique_ptr<PlanNode> MakeZkdRangeScan(const index::ZkdIndex& index,
                                           const geometry::GridBox& box,
                                           const index::SearchOptions& options,
                                           util::ThreadPool* pool,
                                           int partitions) {
  return std::make_unique<ZkdRangeScanNode>(index, box, options, pool,
                                            partitions);
}

std::unique_ptr<PlanNode> MakeObjectSearch(
    const index::ZkdIndex& index, const geometry::SpatialObject* object,
    std::unique_ptr<const geometry::SpatialObject> owned,
    const index::SearchOptions& options, util::ThreadPool* pool,
    int partitions, const std::string& op_name) {
  return std::make_unique<ObjectSearchNode>(index, object, std::move(owned),
                                            options, pool, partitions,
                                            op_name);
}

std::unique_ptr<PlanNode> MakeAggregateCount(const index::ZkdIndex& index,
                                             const geometry::GridBox& box,
                                             const index::SearchOptions& options) {
  return std::make_unique<AggregateCountNode>(index, box, options);
}

std::unique_ptr<PlanNode> MakeBucketKdScan(const baseline::BucketKdTree& tree,
                                           const geometry::GridBox& box) {
  return std::make_unique<BucketKdScanNode>(tree, box);
}

std::unique_ptr<PlanNode> MakeKNearest(const index::ZkdIndex& index,
                                       const geometry::GridPoint& center,
                                       size_t k) {
  return std::make_unique<KNearestNode>(index, center, k);
}

std::unique_ptr<PlanNode> MakeRelationScan(const relational::Relation& rel) {
  return std::make_unique<RelationScanNode>(rel);
}

std::unique_ptr<PlanNode> MakeEmptyResult(relational::Schema schema) {
  return std::make_unique<EmptyResultNode>(std::move(schema));
}

std::unique_ptr<PlanNode> MakeDecompose(
    std::unique_ptr<PlanNode> child, const zorder::GridSpec& grid,
    const std::string& id_column, const relational::ObjectCatalog& catalog,
    const std::string& z_column, const decompose::DecomposeOptions& options) {
  return std::make_unique<DecomposeNode>(std::move(child), grid, id_column,
                                         catalog, z_column, options);
}

std::unique_ptr<PlanNode> MakeMergeJoin(std::unique_ptr<PlanNode> left,
                                        std::unique_ptr<PlanNode> right,
                                        const std::string& left_z,
                                        const std::string& right_z,
                                        util::ThreadPool* pool,
                                        int partitions) {
  return std::make_unique<MergeJoinNode>(std::move(left), std::move(right),
                                         left_z, right_z, pool, partitions);
}

std::unique_ptr<PlanNode> MakeDistanceJoin(
    std::span<const index::PointRecord> r,
    std::span<const index::PointRecord> s, const zorder::GridSpec& grid,
    uint64_t radius, uint64_t zone_height, util::ThreadPool* pool,
    int partitions) {
  return std::make_unique<DistanceJoinNode>(r, s, grid, radius, zone_height,
                                            pool, partitions);
}

std::unique_ptr<PlanNode> MakeFilter(
    std::unique_ptr<PlanNode> child,
    std::function<bool(const relational::Tuple&)> predicate) {
  return std::make_unique<FilterNode>(std::move(child), std::move(predicate));
}

std::unique_ptr<PlanNode> MakeProject(std::unique_ptr<PlanNode> child,
                                      std::vector<std::string> columns,
                                      bool deduplicate) {
  return std::make_unique<ProjectNode>(std::move(child), std::move(columns),
                                       deduplicate);
}

std::unique_ptr<PlanNode> MakeLimit(std::unique_ptr<PlanNode> child,
                                    size_t limit) {
  return std::make_unique<LimitNode>(std::move(child), limit);
}

}  // namespace probe::query
