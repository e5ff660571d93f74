// Leaf-level raw-speed pass: compressed leaves, the SIMD in-page filter,
// and aggregate pushdown.
//
// For each Section 5.3 distribution (U/C/D) the bench builds the point set
// into a byte-packed tree, then reports
//   - keys per leaf page (a page of 17-byte fixed-width entries holds 240),
//   - leaf page accesses over a Section 5.3 range-query batch,
//   - result identity: serial and parallel search versus a brute-force
//     scan of the points,
//   - COUNT(*) pushdown versus the same scan.
// A separate kernel section times the in-page interval filter
// (UpperBoundZ) with AVX2 dispatch against its forced-scalar fallback in
// ns per row. Numbers land in BENCH_leaf.json (section "leaf") and gate
// scripts/check.sh. Exits 1 on any result mismatch.
//
// Scale with: bench_leaf [points] [queries]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/simd_filter.h"
#include "index/zkd_index.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workload/querygen.h"

namespace {

using namespace probe;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct DatasetResult {
  std::string name;
  double keys_per_page = 0.0;
  uint64_t leaf_pages = 0;
  uint64_t count_leaf_pages = 0;
  uint64_t contained_elements = 0;
  uint64_t materialized_rows = 0;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  const size_t n_points =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 100000;
  const int n_queries = argc > 2 ? std::atoi(argv[2]) : 64;

  const zorder::GridSpec grid{2, 10};
  std::printf("=== Leaf raw-speed pass: %zu points, %d queries, avx2=%s ===\n\n",
              n_points, n_queries, btree::HasAvx2() ? "yes" : "no");

  util::Rng qrng(5300);
  const auto boxes =
      workload::MakeQueryBoxes2D(grid, 0.002, 1.0, n_queries, qrng);

  std::vector<DatasetResult> datasets;
  for (const auto dist :
       {workload::Distribution::kUniform, workload::Distribution::kClustered,
        workload::Distribution::kDiagonal}) {
    workload::DataGenConfig data;
    data.distribution = dist;
    data.count = n_points;
    data.seed = 600;
    const auto points = GeneratePoints(grid, data);

    storage::MemPager pager;
    storage::BufferPool pool(&pager, 4096);
    const auto index = index::ZkdIndex::Build(grid, &pool, points);

    DatasetResult r;
    r.name = workload::DistributionName(dist);
    r.keys_per_page = static_cast<double>(index.size()) /
                      static_cast<double>(index.LeafPartitions().size());

    // Section 5.3 query batch: page accesses and result identity.
    util::ThreadPool tp(3);
    r.identical = true;
    for (const auto& box : boxes) {
      std::vector<uint64_t> expected;
      for (const auto& rec : points) {
        if (box.ContainsPoint(rec.point)) expected.push_back(rec.id);
      }
      std::sort(expected.begin(), expected.end());
      index::QueryStats stats;
      auto got = index.RangeSearch(box, &stats);
      const auto parallel = index.ParallelRangeSearch(box, tp);
      r.leaf_pages += stats.leaf_pages;
      if (parallel != got) r.identical = false;
      std::sort(got.begin(), got.end());
      if (got != expected) r.identical = false;

      // Aggregate pushdown over the same box: same cardinality, no
      // materialized rows at full decomposition depth.
      index::QueryStats count_stats;
      const uint64_t count = index.CountBox(box, &count_stats);
      if (count != expected.size()) r.identical = false;
      r.count_leaf_pages += count_stats.leaf_pages;
      r.contained_elements += count_stats.contained_elements;
      r.materialized_rows += count_stats.materialized_rows;
    }

    std::printf("dataset %-2s keys/page %6.1f  leaf pages %6llu  "
                "count pages %6llu  %s\n",
                r.name.c_str(), r.keys_per_page,
                static_cast<unsigned long long>(r.leaf_pages),
                static_cast<unsigned long long>(r.count_leaf_pages),
                r.identical ? "results identical" : "RESULT MISMATCH");
    std::printf("           count pushdown: %llu contained elements, "
                "%llu materialized rows\n",
                static_cast<unsigned long long>(r.contained_elements),
                static_cast<unsigned long long>(r.materialized_rows));
    if (!r.identical) return 1;
    datasets.push_back(r);
  }

  // In-page filter kernel: first-past-the-bound over sorted z values, the
  // operation the skip merge runs once per reported run. ns/row over a
  // sweep of bounds, AVX2 dispatch vs forced scalar.
  const size_t kKernelKeys = 1 << 16;
  std::vector<uint64_t> zs(kKernelKeys);
  util::Rng krng(42);
  for (auto& z : zs) z = krng.Next() >> 8;
  std::sort(zs.begin(), zs.end());
  const int kSweeps = 400;

  double scalar_ns = 0.0;
  double simd_ns = 0.0;
  for (const bool force_scalar : {true, false}) {
    btree::SetForceScalarFilter(force_scalar);
    uint64_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int s = 0; s < kSweeps; ++s) {
      const uint64_t bound = zs[(static_cast<size_t>(s) * 163) % kKernelKeys];
      sink += static_cast<uint64_t>(
          btree::UpperBoundZ(zs.data(), static_cast<int>(zs.size()), bound));
    }
    const double ns = MsSince(start) * 1e6 /
                      (static_cast<double>(kSweeps) *
                       static_cast<double>(kKernelKeys));
    if (force_scalar) {
      scalar_ns = ns;
    } else {
      simd_ns = ns;
    }
    std::printf("filter %-6s %.4f ns/row (checksum %llu)\n",
                force_scalar ? "scalar" : "simd", ns,
                static_cast<unsigned long long>(sink));
  }
  btree::SetForceScalarFilter(false);
  const double simd_speedup = simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0;
  std::printf("filter speedup %.2fx\n\n", simd_speedup);

  std::string datasets_json = "[";
  for (const auto& r : datasets) {
    if (datasets_json.size() > 1) datasets_json += ",";
    datasets_json += "{\"name\":\"" + r.name + "\"" +
                     ",\"keys_per_page\":" + std::to_string(r.keys_per_page) +
                     ",\"leaf_pages\":" + std::to_string(r.leaf_pages) +
                     ",\"count_leaf_pages\":" +
                     std::to_string(r.count_leaf_pages) +
                     ",\"contained_elements\":" +
                     std::to_string(r.contained_elements) +
                     ",\"materialized_rows\":" +
                     std::to_string(r.materialized_rows) +
                     ",\"identical\":" + (r.identical ? "true" : "false") +
                     "}";
  }
  datasets_json += "]";

  const std::string payload =
      "{\"points\":" + std::to_string(n_points) +
      ",\"queries\":" + std::to_string(n_queries) +
      ",\"avx2\":" + (btree::HasAvx2() ? "true" : "false") +
      ",\"filter_scalar_ns_per_row\":" + std::to_string(scalar_ns) +
      ",\"filter_simd_ns_per_row\":" + std::to_string(simd_ns) +
      ",\"filter_speedup\":" + std::to_string(simd_speedup) +
      ",\"datasets\":" + datasets_json + "}";
  if (util::UpdateJsonSection("BENCH_leaf.json", "leaf", payload)) {
    std::printf("wrote BENCH_leaf.json (section \"leaf\")\n");
  }

  std::printf("\nCompressed leaves share one z prefix per page and store\n"
              "varint suffixes, so several times more keys ride on each page\n"
              "access; the merge then tests decoded runs against the query\n"
              "interval 4 wide with AVX2, and COUNT(*) sums run lengths and\n"
              "page headers without materializing rows at all.\n");
  return 0;
}
