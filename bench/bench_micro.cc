// Microbenchmarks of the primitive operations (google-benchmark).
//
// Section 4 claims the element object class's operations are "all very
// simple to implement" — these measure just how cheap shuffle, unshuffle,
// precedes, contains, decomposition, B-tree ops, and the range-search
// merge are on this implementation.

#include <benchmark/benchmark.h>

#include "ag/merge.h"
#include "ag/setops.h"
#include "btree/btree.h"
#include "decompose/decomposer.h"
#include "decompose/generator.h"
#include "geometry/primitives.h"
#include "index/zkd_index.h"
#include "relational/relation.h"
#include "relational/spatial_join.h"
#include "util/rng.h"
#include "workload/datagen.h"
#include "workload/experiment.h"
#include "workload/querygen.h"
#include "zorder/bigmin.h"
#include "zorder/curve.h"
#include "zorder/shuffle.h"

namespace {

using namespace probe;

void BM_Shuffle2D(benchmark::State& state) {
  const zorder::GridSpec grid{2, 16};
  util::Rng rng(1);
  uint32_t x = static_cast<uint32_t>(rng.NextBelow(grid.side()));
  uint32_t y = static_cast<uint32_t>(rng.NextBelow(grid.side()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Shuffle2D(grid, x, y));
    x = (x + 12345) & 0xFFFF;
    y = (y + 54321) & 0xFFFF;
  }
}
BENCHMARK(BM_Shuffle2D);

void BM_ShuffleGenericSchedule(benchmark::State& state) {
  // The same alternation expressed as a custom schedule disables the
  // Morton fast path, isolating its speedup.
  std::vector<int> schedule;
  for (int j = 0; j < 32; ++j) schedule.push_back(j % 2);
  const zorder::GridSpec grid = zorder::GridSpec::WithSchedule(2, 16, schedule);
  uint32_t x = 12345, y = 54321;
  for (auto _ : state) {
    const uint32_t coords[2] = {x & 0xFFFF, y & 0xFFFF};
    benchmark::DoNotOptimize(Shuffle(grid, coords));
    x += 12345;
    y += 54321;
  }
}
BENCHMARK(BM_ShuffleGenericSchedule);

void BM_Unshuffle2D(benchmark::State& state) {
  const zorder::GridSpec grid{2, 16};
  uint64_t z = 0x123456789ABCDEFULL & (grid.cell_count() - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Unshuffle(grid, zorder::ZValue::FromInteger(z, grid.total_bits())));
    z = (z + 0x9E3779B9) & (grid.cell_count() - 1);
  }
}
BENCHMARK(BM_Unshuffle2D);

void BM_ZValueCompare(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<zorder::ZValue> values;
  for (int i = 0; i < 1024; ++i) {
    values.push_back(
        zorder::ZValue::FromInteger(rng.Next(), 1 + rng.NextBelow(48)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(values[i & 1023] < values[(i + 1) & 1023]);
    ++i;
  }
}
BENCHMARK(BM_ZValueCompare);

void BM_ZValueContains(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<zorder::ZValue> values;
  for (int i = 0; i < 1024; ++i) {
    values.push_back(
        zorder::ZValue::FromInteger(rng.Next(), 1 + rng.NextBelow(48)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(values[i & 1023].Contains(values[(i + 1) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_ZValueContains);

void BM_BigMin(benchmark::State& state) {
  const zorder::GridSpec grid{2, 16};
  const uint64_t zmin = zorder::ZRank(grid, std::vector<uint32_t>{1000, 2000});
  const uint64_t zmax = zorder::ZRank(grid, std::vector<uint32_t>{50000, 60000});
  uint64_t z = zmin + 12345;
  for (auto _ : state) {
    uint64_t out = 0;
    benchmark::DoNotOptimize(zorder::BigMin(grid, z, zmin, zmax, &out));
    z = zmin + ((z + 987654321) % (zmax - zmin));
  }
}
BENCHMARK(BM_BigMin);

void BM_DecomposeBox(benchmark::State& state) {
  const zorder::GridSpec grid{2, static_cast<int>(state.range(0))};
  const uint32_t side = static_cast<uint32_t>(grid.side());
  const geometry::GridBox box = geometry::GridBox::Make2D(
      side / 7, side * 5 / 8, side / 9, side * 3 / 5);
  uint64_t elements = 0;
  for (auto _ : state) {
    const auto decomposition = decompose::DecomposeBox(grid, box);
    elements = decomposition.size();
    benchmark::DoNotOptimize(decomposition);
  }
  state.counters["elements"] = static_cast<double>(elements);
}
BENCHMARK(BM_DecomposeBox)->Arg(8)->Arg(12)->Arg(16);

void BM_LazyGeneratorFullDrain(benchmark::State& state) {
  const zorder::GridSpec grid{2, 12};
  const geometry::BoxObject object(
      geometry::GridBox::Make2D(100, 3000, 200, 2500));
  for (auto _ : state) {
    decompose::ElementGenerator generator(grid, object);
    zorder::ZValue z;
    uint64_t n = 0;
    while (generator.Next(&z)) ++n;
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_LazyGeneratorFullDrain);

void BM_BTreeInsert(benchmark::State& state) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 64);
  btree::BTreeConfig config;
  config.leaf_capacity = 20;
  btree::BTree tree(&pool, config);
  util::Rng rng(4);
  uint64_t i = 0;
  for (auto _ : state) {
    tree.Insert(btree::ZKey::FromZValue(
                    zorder::ZValue::FromInteger(rng.Next(), 32)),
                i++);
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeSeek(benchmark::State& state) {
  storage::MemPager pager;
  storage::BufferPool pool(&pager, 256);
  btree::BTreeConfig config;
  config.leaf_capacity = 20;
  util::Rng rng(5);
  std::vector<btree::LeafEntry> entries;
  for (uint64_t i = 0; i < 50000; ++i) {
    entries.push_back(
        {btree::ZKey::FromZValue(zorder::ZValue::FromInteger(rng.Next(), 32)),
         i});
  }
  std::sort(entries.begin(), entries.end(),
            [](const btree::LeafEntry& a, const btree::LeafEntry& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.payload < b.payload;
            });
  btree::BTree tree = btree::BTree::BulkLoad(&pool, entries, config);
  for (auto _ : state) {
    btree::BTree::Cursor cursor(&tree);
    benchmark::DoNotOptimize(cursor.Seek(btree::ZKey::FromZValue(
        zorder::ZValue::FromInteger(rng.Next(), 32))));
  }
}
BENCHMARK(BM_BTreeSeek);

void BM_V2EncodeDecode(benchmark::State& state) {
  // Codec round trip for a near-full compressed leaf: the per-entry cost
  // of a mutation that cannot be written in place (decode -> edit ->
  // re-encode).
  util::Rng rng(7);
  std::vector<btree::LeafEntry> entries;
  uint64_t z = rng.NextBelow(1 << 20);
  for (int i = 0; i < 500; ++i) {
    z += 1 + rng.NextBelow(64);
    entries.push_back({btree::ZKey::FromZValue(
                           zorder::ZValue::FromInteger(z, 32)),
                       rng.Next()});
    if (!btree::V2Admits(entries)) {
      entries.pop_back();
      break;
    }
  }
  storage::Page page;
  std::vector<btree::LeafEntry> decoded;
  for (auto _ : state) {
    btree::V2Encode(&page, entries, storage::kInvalidPageId);
    btree::V2Decode(page, &decoded);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(entries.size()));
}
BENCHMARK(BM_V2EncodeDecode);

void BM_SpatialJoinMerge(benchmark::State& state) {
  // The stack merge over two decomposed objects (element sequences of a
  // few thousand entries each).
  const zorder::GridSpec grid{2, 11};
  const geometry::BallObject a({900.0, 900.0}, 600.0);
  const geometry::BallObject b({1100.0, 1100.0}, 600.0);
  const auto ea = decompose::Decompose(grid, a);
  const auto eb = decompose::Decompose(grid, b);
  for (auto _ : state) {
    uint64_t pairs = 0;
    ag::MergeOverlappingElements(ea, eb, [&](size_t, size_t) {
      ++pairs;
      return true;
    });
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["a_elems"] = static_cast<double>(ea.size());
  state.counters["b_elems"] = static_cast<double>(eb.size());
}
BENCHMARK(BM_SpatialJoinMerge);

void BM_SpatialJoinEmit(benchmark::State& state) {
  // The relational join including output-tuple construction — the path the
  // pre-reserved output relation and bulk row copies speed up (emission
  // dominates once pairs outnumber elements).
  relational::Schema r_schema({{"r_id", relational::ValueType::kInt},
                               {"r_z", relational::ValueType::kZValue}});
  relational::Schema s_schema({{"s_id", relational::ValueType::kInt},
                               {"s_z", relational::ValueType::kZValue}});
  relational::Relation r(r_schema), s(s_schema);
  util::Rng rng(4242);
  for (int i = 0; i < 4000; ++i) {
    const int length = 6 + static_cast<int>(rng.NextBelow(10));
    relational::Tuple tuple;
    tuple.emplace_back(static_cast<int64_t>(i));
    tuple.emplace_back(zorder::ZValue::FromInteger(
        rng.Next() & ((1ULL << length) - 1), length));
    if (i % 2 == 0) {
      r.Add(std::move(tuple));
    } else {
      s.Add(std::move(tuple));
    }
  }
  size_t pairs = 0;
  for (auto _ : state) {
    const auto out = relational::SpatialJoin(r, "r_z", s, "s_z");
    pairs = out.size();
    benchmark::DoNotOptimize(out.size());
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}
BENCHMARK(BM_SpatialJoinEmit);

void BM_SetIntersection(benchmark::State& state) {
  const zorder::GridSpec grid{2, 11};
  const geometry::BallObject a({900.0, 900.0}, 600.0);
  const geometry::BallObject b({1100.0, 1100.0}, 600.0);
  const auto ea = decompose::Decompose(grid, a);
  const auto eb = decompose::Decompose(grid, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::IntersectionOf(grid, ea, eb));
  }
}
BENCHMARK(BM_SetIntersection);

void BM_RangeSearch5000(benchmark::State& state) {
  const zorder::GridSpec grid{2, 10};
  workload::DataGenConfig data;
  data.count = 5000;
  data.seed = 6;
  const auto points = GeneratePoints(grid, data);
  auto built = workload::BuildZkdIndex(grid, points, 20, 64);
  util::Rng rng(7);
  const auto boxes = workload::MakeQueryBoxes2D(grid, 0.05, 1.0, 64, rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(built.index->RangeSearch(boxes[i & 63]));
    ++i;
  }
}
BENCHMARK(BM_RangeSearch5000);

}  // namespace

BENCHMARK_MAIN();
