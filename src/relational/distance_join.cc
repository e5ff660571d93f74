#include "relational/distance_join.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>

#include "btree/simd_filter.h"
#include "probe/check.h"

namespace probe::relational {

namespace {

/// One side of the join after zoning and sorting: a CSR layout over the
/// non-empty zones, with parallel coordinate/id arrays in (zone, x, id,
/// y) order. uint64_t coordinate arrays feed the SIMD kernel directly.
struct ZonedSide {
  std::vector<uint64_t> zone_ids;  // sorted, non-empty zones only
  std::vector<size_t> offsets;     // zone_ids.size() + 1 row offsets
  // Row arrays. The bucket sorts write every element, so they are
  // allocated uninitialized.
  std::unique_ptr<uint64_t[]> xs;  // sorted ascending within each zone
  std::unique_ptr<uint64_t[]> ys;
  std::unique_ptr<uint64_t[]> ids;
  size_t rows = 0;
};

/// One row in zone-sort order: `key` packs (zone << d) | x and `payload`
/// packs (id << d) | y. Every half is below 2^d, so integer order on
/// (key, payload) is exactly (zone, x, id, y) order.
struct ZoneRow {
  uint64_t key;
  uint64_t payload;

  friend bool operator<(const ZoneRow& a, const ZoneRow& b) {
    return a.key != b.key ? a.key < b.key : a.payload < b.payload;
  }
};

/// Runs fn(i) for i in [0, count): on `pool` when it is set, else in order
/// on the caller.
void RunOn(util::ThreadPool* pool, size_t count,
           const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(count, fn);
  } else {
    for (size_t i = 0; i < count; ++i) fn(i);
  }
}

/// Sorts `points` into (zone, x, id, y) order in memory and materializes
/// the CSR side. Each pool lane counts the rows per bucket of one slice of
/// the input; a prefix sum over (bucket, lane) gives every lane its own
/// slots, into which it scatters its slice; then each bucket is sorted,
/// in parallel across buckets, which also fills the coordinate arrays.
/// A bucket is one zone, or, when the grid has more zones than fit, 2^shift
/// consecutive zones, so the lanes' histograms together hold at most
/// max(rows, lanes) counters; the bucket's sort orders by the full key
/// either way. Without a pool every step runs on the caller as one lane.
ZonedSide BuildSide(std::span<const index::PointRecord> points, int d,
                    uint64_t h, util::ThreadPool* pool) {
  const uint64_t mask = (1ULL << d) - 1;  // d <= 32 < 64
  const size_t n = points.size();
  const size_t lanes = pool != nullptr ? static_cast<size_t>(pool->lanes()) : 1;
  const uint64_t max_zone = mask / h;
  int shift = 0;
  while ((max_zone >> shift) >= std::max<uint64_t>(n / lanes, 1)) ++shift;
  const size_t buckets = static_cast<size_t>(max_zone >> shift) + 1;
  // Clamped so an off-grid y (unchecked when audits are compiled out)
  // cannot index past the histogram.
  const auto bucket_of = [&](uint64_t zone) {
    return std::min(static_cast<size_t>(zone >> shift), buckets - 1);
  };
  const auto slice = [&](size_t lane) {
    const size_t from = lane * n / lanes;
    return points.subspan(from, (lane + 1) * n / lanes - from);
  };
  // next[lane * buckets + b]: the lane's row count in bucket b, then its
  // first slot there.
  std::vector<size_t> next(lanes * buckets, 0);
  RunOn(pool, lanes, [&](size_t lane) {
    size_t* count = next.data() + lane * buckets;
    for (const auto& p : slice(lane)) {
      [[maybe_unused]] const uint64_t x = p.point[0];
      const uint64_t y = p.point[1];
      PROBE_ASSERT_MSG(x <= mask && y <= mask,
                       "distance join point off the grid");
      if (p.id >> (64 - d)) {
        check::AuditFailure(__FILE__, __LINE__, "id < 2^(64 - bits_per_dim)",
                            "distance join id too wide to zone-sort");
      }
      ++count[bucket_of(y / h)];
    }
  });
  // start[b] is bucket b's first row.
  std::vector<size_t> start(buckets + 1, n);
  size_t filled = 0;
  for (size_t b = 0; b < buckets; ++b) {
    start[b] = filled;
    for (size_t lane = 0; lane < lanes; ++lane) {
      const size_t count = next[lane * buckets + b];
      next[lane * buckets + b] = filled;
      filled += count;
    }
  }

  std::vector<ZoneRow> rows(n);
  RunOn(pool, lanes, [&](size_t lane) {
    size_t* slot = next.data() + lane * buckets;
    for (const auto& p : slice(lane)) {
      const uint64_t y = p.point[1];
      const uint64_t zone = y / h;
      rows[slot[bucket_of(zone)]++] =
          ZoneRow{(zone << d) | p.point[0], (p.id << d) | y};
    }
  });

  ZonedSide side;
  side.xs = std::make_unique_for_overwrite<uint64_t[]>(n);
  side.ys = std::make_unique_for_overwrite<uint64_t[]>(n);
  side.ids = std::make_unique_for_overwrite<uint64_t[]>(n);
  side.rows = n;
  // Tasks own contiguous bucket ranges of about equal rows; a bucket's
  // rows never leave its range, so the tasks write disjoint slices, and
  // since a zone never spans buckets, each task lists its own zones.
  const size_t tasks = std::min(4 * lanes, buckets);
  std::vector<size_t> cuts(tasks + 1, buckets);
  cuts[0] = 0;
  for (size_t t = 1; t < tasks; ++t) {
    cuts[t] = static_cast<size_t>(
        std::lower_bound(start.begin(), start.end(), t * n / tasks) -
        start.begin());
  }
  struct TaskZones {
    std::vector<uint64_t> ids;
    std::vector<size_t> offsets;
  };
  std::vector<TaskZones> task_zones(tasks);
  RunOn(pool, tasks, [&](size_t t) {
    for (size_t b = cuts[t]; b < cuts[t + 1]; ++b) {
      std::sort(rows.begin() + static_cast<ptrdiff_t>(start[b]),
                rows.begin() + static_cast<ptrdiff_t>(start[b + 1]));
    }
    TaskZones zones;
    for (size_t i = start[cuts[t]]; i < start[cuts[t + 1]]; ++i) {
      side.xs[i] = rows[i].key & mask;
      side.ys[i] = rows[i].payload & mask;
      side.ids[i] = rows[i].payload >> d;
      const uint64_t zone = rows[i].key >> d;
      if (zones.ids.empty() || zones.ids.back() != zone) {
        zones.ids.push_back(zone);
        zones.offsets.push_back(i);
      }
    }
    task_zones[t] = std::move(zones);
  });

  for (const TaskZones& zones : task_zones) {
    side.zone_ids.insert(side.zone_ids.end(), zones.ids.begin(),
                         zones.ids.end());
    side.offsets.insert(side.offsets.end(), zones.offsets.begin(),
                        zones.offsets.end());
  }
  side.offsets.push_back(n);
  return side;
}

/// Probes rows [begin, end) of `r` against `s`, accumulating into
/// `candidates`/`pairs` and emitting matches — for each R row in CSR
/// order, its partner zones ascending, partners within a zone in the
/// zone's sorted order. Serial execution calls this once over all rows;
/// the parallel path calls it per contiguous chunk, which partitions both
/// the row range and the emission sequence, so replaying chunks in order
/// reproduces the serial output exactly.
void ProbeRows(const ZonedSide& r, size_t begin, size_t end,
               const ZonedSide& s, int d, uint64_t radius, uint64_t h,
               const std::function<void(const IdPair&)>& sink,
               uint64_t* candidates, uint64_t* pairs) {
  const uint64_t side_max = (1ULL << d) - 1;
  // Coordinates below 2^31 keep every squared distance under 2^63, so the
  // 64-bit SIMD kernel is exact and clamping r^2 to int64 max loses
  // nothing; a full 32-bit grid needs the 128-bit scalar test.
  const bool simd_ok = d <= 31;
  const unsigned __int128 r2_wide =
      static_cast<unsigned __int128>(radius) * radius;
  const uint64_t r2_clamped = static_cast<uint64_t>(
      std::min(r2_wide, static_cast<unsigned __int128>(
                            std::numeric_limits<int64_t>::max())));
  constexpr int kChunk = 4096;
  int32_t hits[kChunk];

  for (size_t i = begin; i < end; ++i) {
    const uint64_t qx = r.xs[i];
    const uint64_t qy = r.ys[i];
    const uint64_t rid = r.ids[i];
    const uint64_t zlo = qy > radius ? (qy - radius) / h : 0;
    uint64_t ymax = qy + radius;
    if (ymax < qy || ymax > side_max) ymax = side_max;
    const uint64_t zhi = ymax / h;
    uint64_t xmax = qx + radius;
    if (xmax < qx) xmax = side_max;

    auto zi = std::lower_bound(s.zone_ids.begin(), s.zone_ids.end(), zlo) -
              s.zone_ids.begin();
    for (; static_cast<size_t>(zi) < s.zone_ids.size() &&
           s.zone_ids[static_cast<size_t>(zi)] <= zhi;
         ++zi) {
      const size_t off = s.offsets[static_cast<size_t>(zi)];
      const size_t zone_end = s.offsets[static_cast<size_t>(zi) + 1];
      const uint64_t* first = s.xs.get() + off;
      const uint64_t* last = s.xs.get() + zone_end;
      // The x-window [qx - radius, qx + radius] inside this zone.
      const size_t lo = qx > radius
                            ? static_cast<size_t>(
                                  std::lower_bound(first, last, qx - radius) -
                                  s.xs.get())
                            : off;
      const size_t hi = static_cast<size_t>(
          std::upper_bound(first + (lo - off), last, xmax) - s.xs.get());
      *candidates += hi - lo;

      if (simd_ok) {
        for (size_t pos = lo; pos < hi; pos += kChunk) {
          const int len = static_cast<int>(
              std::min(hi - pos, static_cast<size_t>(kChunk)));
          const int m = btree::CollectWithinDist2(
              s.xs.get() + pos, s.ys.get() + pos, len, qx, qy, r2_clamped,
              hits);
          for (int j = 0; j < m; ++j) {
            ++*pairs;
            sink(IdPair{rid, s.ids[pos + static_cast<size_t>(hits[j])]});
          }
        }
      } else {
        for (size_t pos = lo; pos < hi; ++pos) {
          const uint64_t dx =
              s.xs[pos] > qx ? s.xs[pos] - qx : qx - s.xs[pos];
          const uint64_t dy =
              s.ys[pos] > qy ? s.ys[pos] - qy : qy - s.ys[pos];
          const unsigned __int128 d2 =
              static_cast<unsigned __int128>(dx) * dx +
              static_cast<unsigned __int128>(dy) * dy;
          if (d2 <= r2_wide) {
            ++*pairs;
            sink(IdPair{rid, s.ids[pos]});
          }
        }
      }
    }
  }
}

}  // namespace

void DistanceJoin(std::span<const index::PointRecord> r,
                  std::span<const index::PointRecord> s,
                  const zorder::GridSpec& grid, uint64_t radius,
                  const std::function<void(const IdPair&)>& sink,
                  DistanceJoinStats* stats,
                  const DistanceJoinOptions& options) {
  if (grid.dims != 2 || !grid.Valid()) {
    check::AuditFailure(__FILE__, __LINE__, "grid.dims == 2 && grid.Valid()",
                        "distance join requires a valid 2-d grid");
  }
  const int d = grid.bits_per_dim;
  const uint64_t h =
      options.zone_height != 0 ? options.zone_height
                               : std::max<uint64_t>(1, radius);

  const auto build_start = std::chrono::steady_clock::now();
  const ZonedSide rs = BuildSide(r, d, h, options.pool);
  const ZonedSide ss = BuildSide(s, d, h, options.pool);
  const auto probe_start = std::chrono::steady_clock::now();

  uint64_t candidates = 0;
  uint64_t pairs = 0;
  size_t partitions = 1;

  const size_t rows = rs.rows;
  int want = options.partitions;
  if (options.pool != nullptr && want <= 0) want = options.pool->lanes();
  if (options.pool != nullptr && want > 1 && rows > 1) {
    // Contiguous chunks of R's sorted order: each chunk's emissions are a
    // contiguous slice of the serial output, so replaying the per-chunk
    // buffers in chunk order is bitwise-identical to the serial join.
    const size_t nchunks =
        std::min(static_cast<size_t>(want), rows);
    const size_t chunk = (rows + nchunks - 1) / nchunks;
    struct ChunkOut {
      std::vector<IdPair> out;
      uint64_t candidates = 0;
      uint64_t pairs = 0;
    };
    std::vector<ChunkOut> results(nchunks);
    options.pool->ParallelFor(nchunks, [&](size_t c) {
      const size_t begin = c * chunk;
      const size_t end = std::min(rows, begin + chunk);
      // Filled on the lane's own stack and moved out once: adjacent
      // ChunkOut slots share cache lines.
      ChunkOut mine;
      ProbeRows(
          rs, begin, end, ss, d, radius, h,
          [&mine](const IdPair& p) { mine.out.push_back(p); },
          &mine.candidates, &mine.pairs);
      results[c] = std::move(mine);
    });
    for (const auto& res : results) {
      candidates += res.candidates;
      pairs += res.pairs;
      for (const auto& p : res.out) sink(p);
    }
    partitions = nchunks;
  } else {
    ProbeRows(rs, 0, rows, ss, d, radius, h, sink, &candidates, &pairs);
  }

  if (stats != nullptr) {
    stats->r_rows = rs.rows;
    stats->s_rows = ss.rows;
    stats->zone_height = h;
    stats->r_zones = rs.zone_ids.size();
    stats->s_zones = ss.zone_ids.size();
    stats->candidate_pairs = candidates;
    stats->pairs = pairs;
    stats->partitions = partitions;
    const auto us = [](auto from, auto to) {
      return std::chrono::duration<double, std::micro>(to - from).count();
    };
    stats->build_us = us(build_start, probe_start);
    stats->probe_us = us(probe_start, std::chrono::steady_clock::now());
  }
}

std::vector<IdPair> DistanceJoinPairs(std::span<const index::PointRecord> r,
                                      std::span<const index::PointRecord> s,
                                      const zorder::GridSpec& grid,
                                      uint64_t radius,
                                      DistanceJoinStats* stats,
                                      const DistanceJoinOptions& options) {
  std::vector<IdPair> out;
  DistanceJoin(
      r, s, grid, radius, [&out](const IdPair& p) { out.push_back(p); },
      stats, options);
  return out;
}

}  // namespace probe::relational
