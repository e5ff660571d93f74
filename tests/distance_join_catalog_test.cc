// The zones distance join at catalog shape: two correlated 200k-point
// catalogs on a 2^20 grid at radius 8, perfbench's 2M x 2M crossmatch
// workload scaled down, on which ctest asserts the join's exact
// properties at scale:
//  - the pooled join emits the serial pair stream, in order, at 1, 2 and
//    4 merge partitions;
//  - a 10k x 10k slice equals the all-pairs oracle;
//  - the tested pairs stay within 16x the emitted pairs.

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "relational/distance_join.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"

namespace probe::relational {
namespace {

using index::PointRecord;

constexpr uint64_t kRadius = 8;
const zorder::GridSpec kGrid{2, 20};

workload::PairedPoints Catalogs() {
  workload::PairedDataGenConfig config;
  config.base.count = 200000;
  config.base.seed = 4242;
  config.match_fraction = 0.5;
  config.match_sigma = 4.0;
  return workload::GeneratePairedPoints(kGrid, config);
}

bool PairLess(const IdPair& a, const IdPair& b) {
  return a.r_id != b.r_id ? a.r_id < b.r_id : a.s_id < b.s_id;
}

TEST(DistanceJoinCatalogTest, PooledEqualsSerialInOrder) {
  const auto data = Catalogs();
  DistanceJoinStats serial_stats;
  const auto serial =
      DistanceJoinPairs(data.r, data.s, kGrid, kRadius, &serial_stats);
  ASSERT_GT(serial.size(), data.r.size() / 4);

  util::ThreadPool pool(3);
  for (const int partitions : {1, 2, 4}) {
    DistanceJoinOptions options;
    options.pool = &pool;
    options.partitions = partitions;
    DistanceJoinStats stats;
    const auto pooled =
        DistanceJoinPairs(data.r, data.s, kGrid, kRadius, &stats, options);
    EXPECT_EQ(stats.partitions, static_cast<size_t>(partitions));
    EXPECT_EQ(stats.candidate_pairs, serial_stats.candidate_pairs);
    ASSERT_EQ(pooled.size(), serial.size()) << "partitions=" << partitions;
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_TRUE(pooled[i] == serial[i])
          << "partitions=" << partitions << " i=" << i;
    }
  }
}

TEST(DistanceJoinCatalogTest, SliceMatchesAllPairsOracle) {
  const auto data = Catalogs();
  const std::span<const PointRecord> r(data.r.data(), 10000);
  const std::span<const PointRecord> s(data.s.data(), 10000);
  auto got = DistanceJoinPairs(r, s, kGrid, kRadius);

  std::vector<IdPair> want;
  for (const auto& p : r) {
    for (const auto& q : s) {
      const int64_t dx = static_cast<int64_t>(p.point[0]) - q.point[0];
      const int64_t dy = static_cast<int64_t>(p.point[1]) - q.point[1];
      if (dx * dx + dy * dy <= static_cast<int64_t>(kRadius * kRadius)) {
        want.push_back(IdPair{p.id, q.id});
      }
    }
  }
  std::sort(got.begin(), got.end(), PairLess);
  std::sort(want.begin(), want.end(), PairLess);
  EXPECT_EQ(got, want);
}

TEST(DistanceJoinCatalogTest, CandidatesWithinSixteenTimesPairs) {
  const auto data = Catalogs();
  DistanceJoinStats stats;
  DistanceJoin(data.r, data.s, kGrid, kRadius, [](const IdPair&) {}, &stats);
  ASSERT_GT(stats.pairs, 0u);
  EXPECT_LE(static_cast<double>(stats.candidate_pairs) /
                static_cast<double>(stats.pairs),
            16.0)
      << stats.candidate_pairs << " candidates for " << stats.pairs
      << " pairs";
}

}  // namespace
}  // namespace probe::relational
