// The crossmatch workload: the zones distance join of two correlated
// catalogs, in process, repeated for the run. It bypasses the server, the
// B+-tree and the WAL, so it is the control for changes to those layers.

#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "btree/external_sort.h"
#include "btree/node.h"
#include "common.h"
#include "relational/distance_join.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"

namespace perfbench {
namespace {

using namespace probe;

const zorder::GridSpec kGrid{2, 20};
constexpr size_t kCatalogPoints = 2000000;  // per side
constexpr uint64_t kRadius = 8;
// Generation is short (about 0.5 s), so it is repeated more often than the
// server workloads' set-up to steady its median.
constexpr int kSetupRepeats = 5;
// Rows of each catalog the all-pairs oracle checks.
constexpr size_t kOracleSlice = 10000;

struct StreamHash {
  uint64_t h = 1469598103934665603ULL;
  uint64_t count = 0;
  void Add(const relational::IdPair& p) {
    h = (h ^ p.r_id) * 1099511628211ULL;
    h = (h ^ p.s_id) * 1099511628211ULL;
    ++count;
  }
  bool operator==(const StreamHash&) const = default;
};

workload::PairedDataGenConfig CatalogConfig(uint64_t seed) {
  workload::PairedDataGenConfig config;
  config.base.count = kCatalogPoints;
  config.base.seed = seed;
  config.s_count = kCatalogPoints;
  config.match_fraction = 0.5;
  config.match_sigma = 4.0;
  return config;
}

struct Join {
  double us = 0;
  StreamHash hash;
  relational::DistanceJoinStats stats;
};

Join RunJoin(const workload::PairedPoints& data, util::ThreadPool* pool) {
  relational::DistanceJoinOptions options;
  options.pool = pool;
  Join j;
  const auto start = Clock::now();
  relational::DistanceJoin(
      data.r, data.s, kGrid, kRadius,
      [&j](const relational::IdPair& p) { j.hash.Add(p); }, &j.stats, options);
  j.us = UsSince(start);
  return j;
}

// All pairs within the radius, by brute force, sorted.
std::vector<relational::IdPair> OraclePairs(
    std::span<const index::PointRecord> r,
    std::span<const index::PointRecord> s) {
  std::vector<relational::IdPair> out;
  const int64_t r2 = static_cast<int64_t>(kRadius * kRadius);
  for (const auto& p : r) {
    for (const auto& q : s) {
      const int64_t dx = static_cast<int64_t>(p.point[0]) - q.point[0];
      const int64_t dy = static_cast<int64_t>(p.point[1]) - q.point[1];
      if (dx * dx + dy * dy <= r2) out.push_back({p.id, q.id});
    }
  }
  return out;
}

bool PairLess(const relational::IdPair& a, const relational::IdPair& b) {
  return a.r_id != b.r_id ? a.r_id < b.r_id : a.s_id < b.s_id;
}

// The join's own sort, on its own: both sides through btree::ExternalSorter
// in (zone, x) order, as DistanceJoin sorts them.
double TimeSort(const workload::PairedPoints& data, uint64_t zone_height) {
  const int d = kGrid.bits_per_dim;
  const auto start = Clock::now();
  for (const auto* side : {&data.r, &data.s}) {
    storage::MemPager scratch;
    btree::ExternalSorter sorter(&scratch, relational::DistanceJoinOptions{}.sort_budget_entries);
    for (const auto& p : *side) {
      const uint64_t zone = p.point[1] / zone_height;
      sorter.Add(btree::LeafEntry{btree::ZKey{(zone << d) | p.point[0], 64},
                                  (p.id << d) | p.point[1]});
    }
    uint64_t drained = 0;
    sorter.Drain([&drained](const btree::LeafEntry&) { ++drained; });
    if (drained != side->size()) return -1;
  }
  return UsSince(start) / 1e6;
}

}  // namespace

bool RunCrossmatch(const Args& args, Result* result) {
  // Set-up: generating the two catalogs, repeated; the last is kept.
  workload::PairedPoints data;
  std::vector<double> setups;
  for (int r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
    data = {};
    const auto start = Clock::now();
    data = workload::GeneratePairedPoints(kGrid, CatalogConfig(args.seed));
    setups.push_back(UsSince(start) / 1e6);
  }
  const double points = static_cast<double>(data.r.size() + data.s.size());
  util::ThreadPool pool(Cores() - 1);  // the caller is the last lane
  std::printf("crossmatch: |R| = |S| = %zu, radius %llu, %d join lanes\n",
              kCatalogPoints, static_cast<unsigned long long>(kRadius),
              Cores());

  // Reference: one serial join. Every pooled join must emit the same
  // pair stream.
  result->Attempt();
  const Join serial = RunJoin(data, nullptr);
  const auto check = [&](const Join& j) {
    result->Attempt();
    if (!(j.hash == serial.hash)) result->Fail("pooled pair stream differs from serial");
  };
  check(RunJoin(data, &pool));  // warm-up

  // A slice against the all-pairs oracle.
  result->Attempt();
  {
    const std::span<const index::PointRecord> rs(data.r.data(), kOracleSlice);
    const std::span<const index::PointRecord> ss(data.s.data(), kOracleSlice);
    auto got = relational::DistanceJoinPairs(rs, ss, kGrid, kRadius);
    auto want = OraclePairs(rs, ss);
    std::sort(got.begin(), got.end(), PairLess);
    std::sort(want.begin(), want.end(), PairLess);
    if (got != want) result->Fail("oracle slice");
    std::printf("oracle slice: %zu pairs in %zu x %zu rows\n", want.size(),
                kOracleSlice, kOracleSlice);
  }

  // Pooled joins for `seconds` (at least two), each checked against the
  // serial stream. Join i runs under spans of `tr` (none when null);
  // `after(i)` runs after it, inside its request span.
  const auto run_joins = [&](double seconds, Tracer* tr, const auto& after) {
    std::vector<double> us;
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    while (us.size() < 2 || Clock::now() < end) {
      const uint64_t i = us.size();
      Tracer::Scope root(tr, "bench.join", i);
      Join j;
      {
        Tracer::Scope s(tr, "relational.join", i);
        j = RunJoin(data, &pool);
      }
      check(j);
      us.push_back(j.us);
      after(i);
    }
    return us;
  };
  const auto nothing = [](uint64_t) {};

  if (!args.trace) {
    const std::vector<double> us = run_joins(args.seconds, nullptr, nothing);
    const double p50 = Percentile(us, 0.5);
    std::printf("joins: %zu timed, p50 %.0f ms, %llu pairs each\n", us.size(),
                p50 / 1000.0, static_cast<unsigned long long>(serial.hash.count));
    result->Set("throughput", points / (p50 / 1e6), "1/s");
    result->Set("p50_us", p50, "us");
    result->Set("p99_us", Percentile(us, 0.99), "us");
    result->Set("setup_s", Median(setups), "s");
    result->Set("peak_rss_mb", PeakRssMb(), "MiB");
    result->Set("bytes_per_point",
                static_cast<double>(serial.stats.sort_pages) *
                    storage::Page::kSize / points,
                "B");
    return true;
  }

  // Traced run: half untraced (the reference), half traced, where each
  // join is followed by the join's sort on its own.
  const std::vector<double> plain = run_joins(args.seconds / 2, nullptr, nothing);
  Tracer tr(true);
  std::vector<double> sort_s;
  const std::vector<double> traced =
      run_joins(args.seconds / 2, &tr, [&](uint64_t i) {
        Tracer::Scope s(&tr, "btree.sort", i);
        sort_s.push_back(TimeSort(data, serial.stats.zone_height));
        result->Attempt();
        if (sort_s.back() < 0) result->Fail("external sort lost records");
      });
  const double join_s = Median(traced) / 1e6;
  const double plain_s = Median(plain) / 1e6;
  const relational::DistanceJoinStats& st = serial.stats;
  result->Set("join.sort_s", Median(sort_s), "s");
  result->Set("join.merge_s", join_s - Median(sort_s), "s");
  result->Set("join.candidate_ratio",
              static_cast<double>(st.candidate_pairs) /
                  static_cast<double>(std::max<uint64_t>(1, st.pairs)),
              "ratio");
  result->Set("join.sort_pages", static_cast<double>(st.sort_pages), "count");
  result->Set("join.parallel_speedup", serial.us / 1e6 / join_s, "ratio");
  result->Set("trace.overhead_pct", 100.0 * (join_s - plain_s) / plain_s, "%");
  SetSelfTimes({{&tr, traced.size()}}, result);
  std::printf("traced: %zu joins, serial %.0f ms, pooled %.0f ms, sort %.0f ms\n",
              traced.size(), serial.us / 1000.0, join_s * 1000.0,
              Median(sort_s) * 1000.0);
  if (!tr.Write(args.spans_out, "client")) result->Fail("writing spans");
  return true;
}

}  // namespace perfbench
