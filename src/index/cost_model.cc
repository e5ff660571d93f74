#include "index/cost_model.h"

#include <algorithm>
#include <cassert>

#include "decompose/analysis.h"
#include "decompose/decomposer.h"

namespace probe::index {

CostModel CostModel::FromIndex(const ZkdIndex& index) {
  CostModel model;
  model.grid_ = index.grid();
  const int total = model.grid_.total_bits();
  for (const auto& leaf : index.LeafPartitions()) {
    model.first_keys_.push_back(leaf.first_key.ToZValue().RangeLo(total));
  }
  if (!model.first_keys_.empty()) {
    model.avg_leaf_entries_ = static_cast<double>(index.size()) /
                              static_cast<double>(model.first_keys_.size());
  }
  return model;
}

std::vector<CostModel::Run> CostModel::RunsForBox(
    const geometry::GridBox& box, int max_element_depth,
    uint64_t* elements_used) const {
  decompose::DecomposeOptions options;
  options.max_depth = max_element_depth;
  const auto elements = decompose::DecomposeBox(grid_, box, options);
  *elements_used = elements.size();
  const int total = grid_.total_bits();
  std::vector<Run> runs;
  for (const auto& e : elements) {
    const uint64_t lo = e.RangeLo(total);
    const uint64_t hi = e.RangeHi(total);
    if (!runs.empty() && runs.back().hi + 1 == lo) {
      runs.back().hi = hi;
    } else {
      runs.push_back(Run{lo, hi});
    }
  }
  return runs;
}

uint64_t CostModel::CountLeafPages(const std::vector<Run>& runs) const {
  // Leaf i owns the key interval [start_i, start_{i+1}) where start_0 is
  // pulled down to 0 (a seek below the first key lands on leaf 0) and the
  // last interval is open-ended. Two-pointer sweep over sorted runs.
  const size_t n = first_keys_.size();
  auto start_of = [&](size_t i) -> uint64_t {
    return i == 0 ? 0 : first_keys_[i];
  };
  auto end_exclusive = [&](size_t i) -> uint64_t {
    // ~0 stands in for "end of space" (intervals never reach it in use).
    return i + 1 < n ? first_keys_[i + 1] : ~0ULL;
  };

  uint64_t pages = 0;
  size_t leaf = 0;
  size_t last_counted = n;  // sentinel: nothing counted yet
  for (const Run& run : runs) {
    // Skip leaves entirely before the run.
    while (leaf + 1 < n && end_exclusive(leaf) <= run.lo) ++leaf;
    // Count all leaves intersecting [run.lo, run.hi].
    size_t k = leaf;
    while (k < n && start_of(k) <= run.hi) {
      if (end_exclusive(k) > run.lo) {
        if (last_counted != k) {
          ++pages;
          last_counted = k;
        }
      }
      ++k;
    }
    if (k > leaf) leaf = k - 1;  // the next run may share leaf k-1
  }
  return pages;
}

CostModel::Estimate CostModel::EstimatePages(const geometry::GridBox& box,
                                             int max_element_depth) const {
  Estimate estimate;
  estimate.full_depth =
      max_element_depth < 0 || max_element_depth >= grid_.total_bits();
  if (first_keys_.empty()) return estimate;

  // Decompose (CPU only) and coalesce elements into maximal z runs.
  const auto runs = RunsForBox(box, max_element_depth,
                               &estimate.elements_used);
  estimate.pages = CountLeafPages(runs);
  return estimate;
}

CostModel::JoinEstimate CostModel::EstimateJoinPages(
    const CostModel& s_model, const geometry::GridBox& r_box,
    const geometry::GridBox& s_box, int max_element_depth) const {
  assert(grid_ == s_model.grid_);
  JoinEstimate estimate;
  if (!r_box.Intersects(s_box)) return estimate;
  estimate.overlap = true;

  uint64_t r_elements = 0;
  uint64_t s_elements = 0;
  const auto r_runs = RunsForBox(r_box, max_element_depth, &r_elements);
  const auto s_runs = RunsForBox(s_box, max_element_depth, &s_elements);
  estimate.elements_used = r_elements + s_elements;

  // Intersect the two sorted, disjoint run lists: only z intervals both
  // boxes cover can produce join pairs.
  std::vector<Run> shared;
  size_t i = 0;
  size_t j = 0;
  while (i < r_runs.size() && j < s_runs.size()) {
    const uint64_t lo = std::max(r_runs[i].lo, s_runs[j].lo);
    const uint64_t hi = std::min(r_runs[i].hi, s_runs[j].hi);
    if (lo <= hi) {
      if (!shared.empty() && shared.back().hi + 1 == lo) {
        shared.back().hi = hi;
      } else {
        shared.push_back(Run{lo, hi});
      }
    }
    if (r_runs[i].hi < s_runs[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }

  estimate.r_pages = CountLeafPages(shared);
  estimate.s_pages = s_model.CountLeafPages(shared);
  return estimate;
}

CostModel::DistanceJoinEstimate CostModel::EstimateDistanceJoinPages(
    const zorder::GridSpec& grid, uint64_t r_rows, uint64_t s_rows,
    uint64_t radius, uint64_t zone_height) {
  assert(grid.Valid() && grid.dims == 2);
  DistanceJoinEstimate estimate;
  const uint64_t h = zone_height != 0 ? zone_height
                                      : std::max<uint64_t>(1, radius);
  const uint64_t side = grid.side();
  estimate.zones = std::max<uint64_t>(1, (side + h - 1) / h);

  // Uniform-density candidate count: each R probe tests the S points in
  // an x-window of 2r+1 cells across a zone band of about 2r+h rows.
  const double area = static_cast<double>(side) * static_cast<double>(side);
  const double window = std::min(
      static_cast<double>(2 * static_cast<double>(radius) + 1) *
          (2 * static_cast<double>(radius) + static_cast<double>(h)),
      area);
  const double candidates = static_cast<double>(r_rows) *
                            static_cast<double>(s_rows) * (window / area);
  const double cap = static_cast<double>(r_rows) * static_cast<double>(s_rows);
  estimate.candidate_pairs =
      static_cast<uint64_t>(std::min(std::max(candidates, 0.0), cap));
  return estimate;
}

int CostModel::EstimateDepthCap(const zorder::GridSpec& grid,
                                const geometry::GridBox& box,
                                uint64_t element_budget) {
  assert(box.dims() == grid.dims);
  std::vector<uint64_t> extents;
  extents.reserve(static_cast<size_t>(box.dims()));
  for (int d = 0; d < box.dims(); ++d) {
    extents.push_back(box.range(d).width());
  }
  // E(U,V) of the anchored analysis is the full-depth yardstick; when it
  // already fits the budget no cap is needed (the exact element set is
  // cheap enough to generate and estimate with).
  if (decompose::AnchoredBoxElementCount(grid, extents) <= element_budget) {
    return -1;
  }
  // Otherwise walk down from full depth to the finest cap whose worst-case
  // element count fits. Depth 0 always fits (a single element).
  for (int depth = grid.total_bits() - 1; depth > 0; --depth) {
    if (decompose::CappedElementUpperBound(grid, extents, depth) <=
        element_budget) {
      return depth;
    }
  }
  return 0;
}

}  // namespace probe::index
