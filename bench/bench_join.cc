// Distance join at catalog scale: the zones algorithm cross-matching two
// correlated point sets (default 5M x 5M on a 2^20 grid — two synthetic
// surveys with half of the second re-observing the first within a few
// cells).
//
// Measures the serial join (in-memory zone sort + neighbor-zone merge +
// SIMD distance filter, each phase timed), a thread sweep with
// bitwise-identity checks against the serial pair stream, and a small
// all-pairs oracle slice. Numbers land in BENCH_join.json (section
// "join"); scripts/check.sh gates on candidate efficiency (tested pairs vs
// emitted pairs), identity, the oracle, and a self-recorded throughput
// floor compared against the committed baseline.
//
// Scale with: bench_join [r_points] [s_points] [radius]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "relational/distance_join.h"
#include "util/bench_json.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"

namespace {

using namespace probe;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Order-sensitive FNV-1a over the pair stream: equal hashes + equal
/// counts certify the parallel merge reproduced the serial emission order
/// without materializing either stream.
struct StreamHash {
  uint64_t h = 1469598103934665603ULL;
  uint64_t count = 0;
  void Add(const relational::IdPair& p) {
    h = (h ^ p.r_id) * 1099511628211ULL;
    h = (h ^ p.s_id) * 1099511628211ULL;
    ++count;
  }
  bool operator==(const StreamHash& o) const {
    return h == o.h && count == o.count;
  }
};

/// All-pairs reference count over a small slice.
uint64_t OraclePairs(std::span<const index::PointRecord> r,
                     std::span<const index::PointRecord> s, uint64_t radius) {
  const unsigned __int128 r2 = static_cast<unsigned __int128>(radius) * radius;
  uint64_t pairs = 0;
  for (const auto& p : r) {
    for (const auto& q : s) {
      const uint64_t dx = p.point[0] > q.point[0] ? p.point[0] - q.point[0]
                                                  : q.point[0] - p.point[0];
      const uint64_t dy = p.point[1] > q.point[1] ? p.point[1] - q.point[1]
                                                  : q.point[1] - p.point[1];
      if (static_cast<unsigned __int128>(dx) * dx +
              static_cast<unsigned __int128>(dy) * dy <=
          r2) {
        ++pairs;
      }
    }
  }
  return pairs;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t r_points =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 5000000;
  const size_t s_points =
      argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 5000000;
  const uint64_t radius =
      argc > 3 ? static_cast<uint64_t>(std::atoll(argv[3])) : 8;

  const zorder::GridSpec grid{2, 20};
  std::printf("=== Distance join (zones): |R|=%zu, |S|=%zu, radius=%llu, "
              "grid 2^%d ===\n\n",
              r_points, s_points,
              static_cast<unsigned long long>(radius), grid.bits_per_dim);

  workload::PairedDataGenConfig config;
  config.base.count = r_points;
  config.base.seed = 4242;
  config.s_count = s_points;
  config.match_fraction = 0.5;
  config.match_sigma = 4.0;
  const auto gen_start = std::chrono::steady_clock::now();
  const auto data = GeneratePairedPoints(grid, config);
  std::printf("generated paired catalogs in %.0f ms "
              "(match fraction %.2f, sigma %.1f)\n",
              MsSince(gen_start), config.match_fraction, config.match_sigma);

  // Serial reference: the stream hash is the identity yardstick for the
  // thread sweep.
  StreamHash serial_hash;
  relational::DistanceJoinStats serial_stats;
  const auto serial_start = std::chrono::steady_clock::now();
  relational::DistanceJoin(
      data.r, data.s, grid, radius,
      [&serial_hash](const relational::IdPair& p) { serial_hash.Add(p); },
      &serial_stats);
  const double serial_ms = MsSince(serial_start);
  const double candidate_ratio =
      static_cast<double>(serial_stats.candidate_pairs) /
      static_cast<double>(std::max<uint64_t>(1, serial_stats.pairs));
  const double points_per_s =
      static_cast<double>(r_points + s_points) / (serial_ms / 1000.0);
  std::printf("serial      %8.0f ms  zones=%llu/%llu  candidates=%llu  "
              "pairs=%llu  ratio=%.2f  build=%.0f ms  probe=%.0f ms\n",
              serial_ms,
              static_cast<unsigned long long>(serial_stats.r_zones),
              static_cast<unsigned long long>(serial_stats.s_zones),
              static_cast<unsigned long long>(serial_stats.candidate_pairs),
              static_cast<unsigned long long>(serial_stats.pairs),
              candidate_ratio, serial_stats.build_us / 1000.0,
              serial_stats.probe_us / 1000.0);

  // Thread sweep. Rows past the hardware's core count only measure
  // scheduling overhead; tag them so regression tooling skips their
  // speedup numbers (this dev container is single-core).
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::string rows_json = "[";
  bool all_identical = true;
  for (const int threads : {1, 2, 4}) {
    const bool oversubscribed = static_cast<unsigned>(threads) > hw;
    util::ThreadPool pool(threads - 1);
    relational::DistanceJoinOptions options;
    options.pool = &pool;
    StreamHash hash;
    relational::DistanceJoinStats stats;
    const auto start = std::chrono::steady_clock::now();
    relational::DistanceJoin(
        data.r, data.s, grid, radius,
        [&hash](const relational::IdPair& p) { hash.Add(p); }, &stats,
        options);
    const double ms = MsSince(start);
    const double speedup = ms > 0 ? serial_ms / ms : 0.0;
    const bool identical = hash == serial_hash;
    all_identical = all_identical && identical;
    std::printf("threads=%-2d  %8.0f ms  speedup %5.2fx  partitions=%zu  "
                "build=%.0f ms  probe=%.0f ms  %s%s\n",
                threads, ms, speedup, stats.partitions,
                stats.build_us / 1000.0, stats.probe_us / 1000.0,
                identical ? "pairs identical" : "PAIR MISMATCH",
                oversubscribed ? "  (oversubscribed)" : "");
    if (rows_json.size() > 1) rows_json += ",";
    rows_json += "{\"threads\":" + std::to_string(threads) +
                 ",\"ms\":" + std::to_string(ms) +
                 ",\"speedup\":" + std::to_string(speedup) +
                 ",\"partitions\":" + std::to_string(stats.partitions) +
                 ",\"build_us\":" + std::to_string(stats.build_us) +
                 ",\"probe_us\":" + std::to_string(stats.probe_us) +
                 ",\"oversubscribed\":" + (oversubscribed ? "true" : "false") +
                 ",\"identical\":" + (identical ? "true" : "false") + "}";
  }
  rows_json += "]";

  // Oracle slice: the first 10k x 10k points against the O(n*m) all-pairs
  // count — the same exactness the unit tests prove, re-certified on this
  // run's actual data.
  const size_t oracle_n = std::min<size_t>(10000, data.r.size());
  const size_t oracle_m = std::min<size_t>(10000, data.s.size());
  const std::span<const index::PointRecord> oracle_r(data.r.data(), oracle_n);
  const std::span<const index::PointRecord> oracle_s(data.s.data(), oracle_m);
  relational::DistanceJoinStats oracle_stats;
  uint64_t oracle_join = 0;
  relational::DistanceJoin(
      oracle_r, oracle_s, grid, radius,
      [&oracle_join](const relational::IdPair&) { ++oracle_join; },
      &oracle_stats);
  const uint64_t oracle_expect = OraclePairs(oracle_r, oracle_s, radius);
  const bool oracle_identical = oracle_join == oracle_expect;
  std::printf("oracle      %zux%zu slice: join=%llu brute-force=%llu  %s\n",
              oracle_n, oracle_m,
              static_cast<unsigned long long>(oracle_join),
              static_cast<unsigned long long>(oracle_expect),
              oracle_identical ? "identical" : "MISMATCH");

  // The candidate budget: zones with h = r bound the tested pairs to a
  // (2r+1) x 3h window per probe, so candidates stay within a small
  // multiple of the output on correlated catalogs. A broken zone map
  // degenerates toward the cross product and blows this immediately.
  const double candidate_budget = 16.0;
  // Throughput floor with 2x headroom, recorded for the committed-baseline
  // regression gate (same shape as BENCH_server's qps floor).
  const double floor_points_per_s = points_per_s / 2.0;

  const std::string payload =
      "{\"r_points\":" + std::to_string(r_points) +
      ",\"s_points\":" + std::to_string(s_points) +
      ",\"radius\":" + std::to_string(radius) +
      ",\"zone_height\":" + std::to_string(serial_stats.zone_height) +
      ",\"r_zones\":" + std::to_string(serial_stats.r_zones) +
      ",\"s_zones\":" + std::to_string(serial_stats.s_zones) +
      ",\"candidate_pairs\":" + std::to_string(serial_stats.candidate_pairs) +
      ",\"pairs\":" + std::to_string(serial_stats.pairs) +
      ",\"candidate_ratio\":" + std::to_string(candidate_ratio) +
      ",\"candidate_budget\":" + std::to_string(candidate_budget) +
      ",\"build_us\":" + std::to_string(serial_stats.build_us) +
      ",\"probe_us\":" + std::to_string(serial_stats.probe_us) +
      ",\"serial_ms\":" + std::to_string(serial_ms) +
      ",\"points_per_s\":" + std::to_string(points_per_s) +
      ",\"floor_points_per_s\":" + std::to_string(floor_points_per_s) +
      ",\"hardware_threads\":" +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\"oracle\":{\"r_rows\":" + std::to_string(oracle_n) +
      ",\"s_rows\":" + std::to_string(oracle_m) +
      ",\"pairs\":" + std::to_string(oracle_join) +
      ",\"identical\":" + (oracle_identical ? "true" : "false") + "}" +
      ",\"rows\":" + rows_json + "}";
  if (util::UpdateJsonSection("BENCH_join.json", "join", payload)) {
    std::printf("wrote BENCH_join.json (section \"join\")\n");
  }

  std::printf("\nZones of height r bound each probe to three neighbor zones\n"
              "and an x-window of 2r+1 cells; the per-pair distance test is\n"
              "the SIMD in-page filter. The candidate/output ratio is the\n"
              "algorithm's whole story: near 1 means the zone geometry did\n"
              "its job, the cross product would be ~%.0e.\n",
              static_cast<double>(r_points) * static_cast<double>(s_points) /
                  static_cast<double>(std::max<uint64_t>(
                      1, serial_stats.pairs)));
  return (all_identical && oracle_identical) ? 0 : 1;
}
