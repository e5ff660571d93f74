// The three workloads served over TCP: serve_read, serve_write, nearest.
//
// Each builds a ShardedEngine over 1M seeded uniform points on a 2^20 x
// 2^20 grid (z-ordered load, then Checkpoint), fronts it with the TCP
// Server and drives it from one closed-loop client on one connection.
// Timed runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) first run the untraced loop as a reference, then time each
// request's calls into every layer the benchmark can reach from outside.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "common.h"
#include "index/durable_index.h"
#include "index/nearest.h"
#include "obs/metrics.h"
#include "query/planner.h"
#include "query/query.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/sharded_engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"

namespace perfbench {
namespace {

using namespace probe;
using Engine = server::ShardedEngine;
using Op = index::DurableIndex::Op;

const zorder::GridSpec kGrid{2, 20};
constexpr size_t kBasePoints = 1000000;
// Apply batch of the set-up load; the load runs in z order, so each batch
// dirties only the right edge of the tree.
constexpr size_t kLoadBatch = 100000;
constexpr int kSetupRepeats = 3;
constexpr double kWarmupSeconds = 1.0;
// Distinct read requests, cycled; their in-process answers are the oracle.
constexpr size_t kRequestPool = 2048;
// Requests (or k-NN centers) of the fixed pass that yields exact counts.
constexpr size_t kCountPass = 512;
constexpr size_t kKnnCountPass = 48;
constexpr uint32_t kK = 10;
// serve_write's open-loop writer: flush policy and schedule. The rate is
// well under what an unpaced writer sustains, so the schedule, not the
// writer's speed, fixes the work; checkpointing every second keeps the
// version table that every view drop walks small.
constexpr double kBatchesPerSecond = 20.0;
constexpr size_t kInsertsPerBatch = 100;
constexpr int kCheckpointEvery = 20;  // batches, i.e. every second

// Independent seed streams derived from --seed.
constexpr uint64_t kRequestSalt = 0x5157a11dULL;
constexpr uint64_t kInsertSalt = 0x1a5e27ULL;
constexpr uint64_t kCenterSalt = 0xce47e2ULL;

// ------------------------------------------------------------------ store

struct Store {
  int shards = 1;
  std::string prefix;
  std::vector<index::PointRecord> points;  // points[id]
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<Engine> engine;
  double setup_s = 0;          // median over the repeats
  uint64_t load_wal_bytes = 0;
  double load_commits_per_fsync = 0;
  double checkpoint_ms = 0;
};

storage::WalStats WalTotals(Engine& engine) {
  storage::WalStats total;
  for (int i = 0; i < engine.shard_count(); ++i) {
    const storage::WalStats s = engine.shard(i).wal().stats();
    total.records += s.records;
    total.bytes += s.bytes;
    total.syncs += s.syncs;
    total.group_syncs += s.group_syncs;
    total.group_commits += s.group_commits;
  }
  return total;
}

bool OpenEngine(Store* store, bool truncate) {
  server::ShardedEngineOptions options;
  options.shards = store->shards;
  options.truncate = truncate;
  store->engine = std::make_unique<Engine>(kGrid, store->prefix, options,
                                           store->pool.get());
  return store->engine->ok();
}

// Bytes of the files the engine keeps under `prefix` (base + WAL).
uint64_t EngineFileBytes(const std::string& prefix, int shards) {
  uint64_t total = 0;
  for (int i = 0; i < shards; ++i) {
    const std::string base = Engine::ShardPath(prefix, i);
    for (const std::string& path : {base, base + ".wal"}) {
      std::error_code ec;
      const auto size = std::filesystem::file_size(path, ec);
      if (!ec) total += size;
    }
  }
  return total;
}

void RemoveStoreFiles(const Store& store) {
  for (int i = 0; i < store.shards; ++i) {
    const std::string base = Engine::ShardPath(store.prefix, i);
    for (const std::string& p : {base, base + ".wal", base + ".wal.tmp"}) {
      std::error_code ec;
      std::filesystem::remove(p, ec);
    }
  }
}

// One set-up: generate, load in z order, checkpoint. Everything it does is
// set-up time.
bool BuildOnce(uint64_t seed, Store* store) {
  const auto start = Clock::now();
  workload::DataGenConfig config;
  config.distribution = workload::Distribution::kUniform;
  config.count = kBasePoints;
  config.seed = seed;
  store->points = workload::GeneratePoints(kGrid, config);
  if (!OpenEngine(store, /*truncate=*/true)) return false;

  std::vector<std::pair<uint64_t, uint64_t>> order;  // (z, id)
  order.reserve(store->points.size());
  for (const auto& p : store->points) {
    order.emplace_back(store->engine->ZOf(p.point), p.id);
  }
  std::sort(order.begin(), order.end());
  std::vector<Op> batch;
  batch.reserve(kLoadBatch);
  for (size_t i = 0; i < order.size(); i += kLoadBatch) {
    batch.clear();
    for (size_t j = i; j < std::min(order.size(), i + kLoadBatch); ++j) {
      const uint64_t id = order[j].second;
      batch.push_back(Op::Insert(store->points[id].point, id));
    }
    if (!store->engine->Apply(batch)) return false;
  }
  const storage::WalStats wal = WalTotals(*store->engine);
  store->load_wal_bytes = wal.bytes;
  store->load_commits_per_fsync =
      static_cast<double>(wal.group_commits) /
      static_cast<double>(std::max<uint64_t>(1, wal.group_syncs));
  const auto checkpoint_start = Clock::now();
  if (!store->engine->Checkpoint()) return false;
  store->checkpoint_ms = UsSince(checkpoint_start) / 1000.0;
  store->setup_s = UsSince(start) / 1e6;
  return store->engine->size() == kBasePoints;
}

// Builds the store `repeats` times (each from scratch, in its own files)
// and keeps the last; setup_s is the median.
bool BuildStore(const Args& args, int shards, int repeats, Store* store) {
  store->shards = shards;
  store->pool = std::make_unique<util::ThreadPool>(shards - 1);
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    if (store->engine) {
      store->engine.reset();
      RemoveStoreFiles(*store);
    }
    // Hand the freed repeat back to the OS, so that peak_rss_mb measures
    // one set-up and the run, not what earlier repeats left resident.
    store->points = {};
    malloc_trim(0);
    store->prefix = args.dir + "/store" + std::to_string(r);
    if (!BuildOnce(args.seed, store)) {
      std::fprintf(stderr, "store set-up failed\n");
      return false;
    }
    times.push_back(store->setup_s);
  }
  store->setup_s = Median(times);
  std::printf("setup: %zu points, %d shard(s), load batch %zu, set-up s",
              kBasePoints, shards, kLoadBatch);
  for (double t : times) std::printf(" %.3f", t);
  std::printf("\n");
  return true;
}

// --------------------------------------------------------------- requests

enum class Kind { kCount, kRange, kBox };

struct Request {
  Kind kind = Kind::kCount;
  geometry::GridBox box;
};

// A seeded COUNT/RANGE/BOX mix whose boxes hold, on average, between 4
// and 10^4 rows, spread log-uniformly, with aspect ratios in [1/2, 2].
// Kinds and sizes are stratified (request i draws from the i-th of
// kRequestPool equal slices of log(rows)), so every seed gets the same mix
// of work; the seed places the boxes and orders the requests.
std::vector<Request> MakeRequests(uint64_t seed) {
  util::Rng rng(seed ^ kRequestSalt);
  const double side = static_cast<double>(kGrid.side());
  const double cells_per_point = side * side / static_cast<double>(kBasePoints);
  const double log_lo = std::log(4.0);
  const double log_span = std::log(10000.0 / 4.0);
  std::vector<Request> out(kRequestPool);
  for (size_t i = 0; i < out.size(); ++i) {
    Request& r = out[i];
    r.kind = static_cast<Kind>(i % 3);
    const double rows =
        std::exp(log_lo + log_span * (static_cast<double>(i) + rng.NextDouble()) /
                              static_cast<double>(out.size()));
    const double aspect = std::exp(std::log(0.5) + rng.NextDouble() * std::log(4.0));
    const double area = rows * cells_per_point;
    const auto clamp_side = [&](double v) {
      return static_cast<uint64_t>(std::clamp(std::round(v), 1.0, side));
    };
    const uint64_t w = clamp_side(std::sqrt(area * aspect));
    const uint64_t h = clamp_side(area / static_cast<double>(w));
    const uint64_t x = rng.NextBelow(kGrid.side() - w + 1);
    const uint64_t y = rng.NextBelow(kGrid.side() - h + 1);
    r.box = geometry::GridBox::Make2D(
        static_cast<uint32_t>(x), static_cast<uint32_t>(x + w - 1),
        static_cast<uint32_t>(y), static_cast<uint32_t>(y + h - 1));
  }
  // Seeded Fisher-Yates shuffle of the request order.
  for (size_t i = out.size() - 1; i > 0; --i) {
    std::swap(out[i], out[rng.NextBelow(i + 1)]);
  }
  return out;
}

// Points serve_write inserts: ids first_id + k, in batch order.
struct Inserts {
  uint64_t first_id = kBasePoints;
  std::vector<geometry::GridPoint> points;
  std::vector<uint64_t> in_box;  // per pool request: planned inserts inside
};

// The oracle for the request pool: each box's ids (z order) on the base
// store, and what a wire answer may add to them.
struct Oracle {
  const std::vector<index::PointRecord>* points = nullptr;
  std::vector<std::vector<uint64_t>> base;
  const Inserts* inserts = nullptr;  // null: the store is read-only

  const geometry::GridPoint* PointOf(uint64_t id) const {
    if (id < points->size()) return &(*points)[id].point;
    if (inserts != nullptr && id >= inserts->first_id &&
        id - inserts->first_id < inserts->points.size()) {
      return &inserts->points[id - inserts->first_id];
    }
    return nullptr;
  }

  // Read-only: got == base. With inserts: base ⊆ got ⊆ base ∪ inserts,
  // every extra id a planned insert inside the box, order preserved.
  bool CheckIds(size_t q, const geometry::GridBox& box,
                const std::vector<uint64_t>& got) const {
    const std::vector<uint64_t>& want = base[q];
    if (inserts == nullptr) return got == want;
    size_t j = 0;
    for (uint64_t id : got) {
      if (j < want.size() && id == want[j]) {
        ++j;
        continue;
      }
      const geometry::GridPoint* p = PointOf(id);
      if (id < points->size() || p == nullptr || !box.ContainsPoint(*p)) {
        return false;
      }
    }
    return j == want.size();
  }

  bool CheckCount(size_t q, uint64_t count) const {
    const uint64_t lo = base[q].size();
    const uint64_t extra = inserts == nullptr ? 0 : inserts->in_box[q];
    return count >= lo && count <= lo + extra;
  }
};

Oracle MakeOracle(const Store& store, const std::vector<Request>& requests) {
  Oracle oracle;
  oracle.points = &store.points;
  const Engine::View view = store.engine->CreateView();
  oracle.base.reserve(requests.size());
  for (const Request& r : requests) {
    oracle.base.push_back(view.RangeSearch(r.box));
  }
  return oracle;
}

// ----------------------------------------------------------- client loop

// Sends request `i` (cycled from the pool) over the wire and checks the
// answer. Returns the wire latency in µs (the check is not timed), or a
// negative value when the request failed.
double WireRequest(server::Client& client, const std::vector<Request>& pool,
                   const Oracle& oracle, uint64_t i, Result* result) {
  const size_t q = i % pool.size();
  const Request& r = pool[q];
  result->Attempt();
  bool ok = false;
  bool match = false;
  double us = 0;
  switch (r.kind) {
    case Kind::kCount: {
      uint64_t count = 0;
      const auto start = Clock::now();
      ok = client.Count(r.box, &count);
      us = UsSince(start);
      match = ok && oracle.CheckCount(q, count);
      break;
    }
    case Kind::kRange: {
      std::vector<uint64_t> ids;
      const auto start = Clock::now();
      ok = client.Range(r.box, &ids);
      us = UsSince(start);
      match = ok && oracle.CheckIds(q, r.box, ids);
      break;
    }
    case Kind::kBox: {
      std::vector<server::BoxResponse::Row> rows;
      const auto start = Clock::now();
      ok = client.Box(r.box, &rows);
      us = UsSince(start);
      std::vector<uint64_t> ids;
      ids.reserve(rows.size());
      match = ok;
      for (const auto& row : rows) {
        const geometry::GridPoint* p = oracle.PointOf(row.id);
        match = match && p != nullptr && *p == row.point;
        ids.push_back(row.id);
      }
      match = match && oracle.CheckIds(q, r.box, ids);
      break;
    }
  }
  if (!ok) {
    result->Fail("request " + std::to_string(i) + ": " +
                 server::StatusName(client.last_status()) + " " +
                 client.last_error());
    return -1;
  }
  if (!match) result->Fail("request " + std::to_string(i) + ": wrong answer");
  return us;
}

// Latencies of the requests completed inside the timed window, and when
// each completed.
struct Samples {
  std::vector<double> us;
  std::vector<Clock::time_point> done;
};

// Closed loop: runs `send(i)` back to back until `end`, keeping samples of
// the requests that start at or after `t0`.
template <typename Send>
void ClosedLoop(uint64_t* next, Clock::time_point t0, Clock::time_point end,
                const Send& send, Samples* samples) {
  while (true) {
    const auto start = Clock::now();
    if (start >= end) break;
    const double us = send((*next)++);
    if (us >= 0 && start >= t0) {
      samples->us.push_back(us);
      samples->done.push_back(Clock::now());
    }
  }
}

// Throughput over the timed window; p50 and p99 over every timed request.
void SetLatencyMetrics(const Samples& s, Clock::time_point t0, Result* result) {
  const double seconds =
      s.done.empty() ? 0.0 : UsBetween(t0, s.done.back()) / 1e6;
  result->Set("throughput",
              seconds > 0 ? static_cast<double>(s.us.size()) / seconds : 0.0,
              "1/s");
  result->Set("p50_us", Percentile(s.us, 0.50), "us");
  result->Set("p99_us", Percentile(s.us, 0.99), "us");
  std::printf("requests: %zu timed, p50 %.1f us, p99 %.1f us\n", s.us.size(),
              Percentile(s.us, 0.50), Percentile(s.us, 0.99));
}

// ------------------------------------------------------------- the server

struct Serving {
  std::unique_ptr<server::Server> server;
  server::Client client;
};

bool StartServing(Engine* engine, Serving* s) {
  server::ServerOptions options;
  options.worker_threads = 1;  // one connection, one handler
  options.max_connections = 1;
  s->server = std::make_unique<server::Server>(engine, options);
  server::HelloResponse hello;
  if (!s->server->Start() || !s->client.ConnectTcp(s->server->port()) ||
      !s->client.Hello(&hello)) {
    std::fprintf(stderr, "server start or HELLO failed\n");
    return false;
  }
  return true;
}

void StopServing(Serving* s) {
  s->client.Goodbye();
  s->client.Close();
  if (s->server) s->server->Stop();
  s->server.reset();
}

uint64_t PagerReads() {
  return obs::Registry::Default().GetCounter("probe_pager_reads_total")->value();
}

// ------------------------------------------------------- exact-count pass

// The exact-count pass: the first kCountPass pool requests in process, each
// on a fresh view, QueryStats summed. It also sums the pager reads each
// request causes; the obs counter is process-wide, so the pass runs only
// while the client and the writer are idle. Both repeat exactly for a given
// seed and store state.
void BoxCountPass(const Engine& engine, const std::vector<Request>& pool,
                  Result* result) {
  index::QueryStats total;
  uint64_t reads = 0;
  for (size_t q = 0; q < kCountPass; ++q) {
    const Request& r = pool[q];
    index::QueryStats st;
    const uint64_t reads_before = PagerReads();
    {
      const Engine::View view = engine.CreateView();
      if (r.kind == Kind::kCount) {
        view.CountBox(r.box, &st);
      } else {
        view.RangeSearch(r.box, &st);
      }
    }
    reads += PagerReads() - reads_before;
    total.leaf_pages += st.leaf_pages;
    total.internal_pages += st.internal_pages;
    total.elements_generated += st.elements_generated;
    total.point_seeks += st.point_seeks;
    total.results += st.results;
    total.entries_on_touched_pages += st.entries_on_touched_pages;
  }
  const double n = static_cast<double>(kCountPass);
  result->Set("btree.leaf_pages_per_query", total.leaf_pages / n, "count");
  result->Set("btree.internal_pages_per_query", total.internal_pages / n,
              "count");
  result->Set("decompose.elements_per_query", total.elements_generated / n,
              "count");
  result->Set("index.seeks_per_query", total.point_seeks / n, "count");
  result->Set("index.efficiency", total.Efficiency(), "ratio");
  result->Set("storage.pager_reads_per_query", static_cast<double>(reads) / n,
              "count");
}

// WAL and checkpoint numbers of the set-up load.
void SetLoadMetrics(const Store& store, Result* result) {
  result->Set("wal.bytes_per_point",
              static_cast<double>(store.load_wal_bytes) / kBasePoints, "B");
  result->Set("wal.commits_per_fsync", store.load_commits_per_fsync, "ratio");
  result->Set("checkpoint.ms", store.checkpoint_ms, "ms");
}

// --------------------------------------------------------- traced requests

struct LayerTimes {
  std::vector<double> wire, overhead, view_create, view_drop, query, encode,
      decode, plan, ping;
  uint64_t views = 0;
  uint64_t new_epoch_views = 0;
  uint64_t requests = 0;
};

// What the traced requests of one run share: the client thread's spans,
// the per-layer times, and the epochs the previous view pinned.
struct Traced {
  Tracer tracer{true};
  LayerTimes t;
  std::vector<uint64_t> prev_epochs;
};

// Wraps `fn` in a span and returns its duration in µs.
template <typename Fn>
double Timed(Tracer* tracer, const char* name, uint64_t request, const Fn& fn) {
  Tracer::Scope scope(tracer, name, request);
  const auto start = Clock::now();
  fn();
  return UsSince(start);
}

// Response encoding (payload + frame) and decoding (frame + payload) on a
// real answer, as the server and the client do them.
template <typename Response>
void TimeProtocol(Tracer* tr, uint64_t i, const Response& response,
                  LayerTimes* t, Result* result) {
  std::vector<uint8_t> bytes;
  t->encode.push_back(Timed(tr, "protocol.encode", i, [&] {
    server::EncodeFrame(response.ToFrame(static_cast<uint32_t>(i)), &bytes);
  }));
  bool ok = false;
  t->decode.push_back(Timed(tr, "protocol.decode", i, [&] {
    server::Frame frame;
    size_t consumed = 0;
    server::Status error = server::Status::kOk;
    Response decoded;
    ok = server::DecodeFrame(bytes, &frame, &consumed, &error) ==
             server::DecodeResult::kFrame &&
         Response::FromPayload(frame.payload, &decoded);
  }));
  result->Attempt();
  if (!ok) result->Fail("frame round trip");
}

// One traced request. `wire()` sends it over the wire and checks the answer
// (its latency in µs, negative when it failed). Then the same request goes
// through each layer's public entry point: a view is created,
// `run(view, &response)` answers it in process under span `query_span`,
// the view is dropped, the response goes through the protocol, and `q` is
// planned.
template <typename Response, typename Wire, typename Run>
void TracedRequest(Traced* traced, uint64_t i, Engine& engine,
                   const Wire& wire, const char* query_span, const Run& run,
                   const query::Query& q, Result* result) {
  Tracer* tr = &traced->tracer;
  LayerTimes* t = &traced->t;
  Tracer::Scope root(tr, "bench.request", i);
  double wire_us = -1;
  {
    Tracer::Scope s(tr, "server.request", i);
    wire_us = wire();
  }
  if (wire_us < 0) return;
  t->wire.push_back(wire_us);

  Engine::View view;
  t->view_create.push_back(Timed(tr, "engine.view_create", i,
                                 [&] { view = engine.CreateView(); }));
  std::vector<uint64_t> epochs = view.epochs();
  if (!traced->prev_epochs.empty()) {
    ++t->views;
    if (epochs != traced->prev_epochs) ++t->new_epoch_views;
  }
  traced->prev_epochs = std::move(epochs);

  Response response;
  const double query_us =
      Timed(tr, query_span, i, [&] { run(view, &response); });
  t->query.push_back(query_us);
  t->overhead.push_back(wire_us - query_us);
  t->view_drop.push_back(
      Timed(tr, "engine.view_drop", i, [&] { view = Engine::View(); }));
  TimeProtocol(tr, i, response, t, result);

  // A fresh snapshot per plan: holding one across the loop would stall a
  // concurrent checkpoint's pin drain.
  const index::DurableIndex::Snapshot snap = engine.shard(0).CreateSnapshot();
  query::PlannerContext ctx;
  ctx.index = &snap.index();
  t->plan.push_back(Timed(tr, "query.plan", i, [&] {
    if (!query::Plan(q, ctx).root) result->Fail("no plan");
  }));
  ++t->requests;
}

// A traced box request: COUNT, RANGE or BOX as the pool says.
void TracedBoxRequest(Traced* traced, uint64_t i, Engine& engine,
                      server::Client& client, const std::vector<Request>& pool,
                      const Oracle& oracle, Result* result) {
  const Request& r = pool[i % pool.size()];
  const auto wire = [&] { return WireRequest(client, pool, oracle, i, result); };
  switch (r.kind) {
    case Kind::kCount:
      TracedRequest<server::CountResponse>(
          traced, i, engine, wire, "index.query",
          [&](const Engine::View& v, server::CountResponse* out) {
            out->count = v.CountBox(r.box);
          },
          query::Query::Count(r.box), result);
      break;
    case Kind::kRange:
      TracedRequest<server::RangeResponse>(
          traced, i, engine, wire, "index.query",
          [&](const Engine::View& v, server::RangeResponse* out) {
            out->ids = v.RangeSearch(r.box);
          },
          query::Query::Range(r.box), result);
      break;
    case Kind::kBox:
      TracedRequest<server::BoxResponse>(
          traced, i, engine, wire, "index.query",
          [&](const Engine::View& v, server::BoxResponse* out) {
            for (const auto& row : v.RangeSearchRows(r.box)) {
              out->rows.push_back({row.id, row.point});
            }
          },
          query::Query::Range(r.box), result);
      break;
  }
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

// The request loop of a traced run: warm-up until `warm_end`, then 1000
// PINGs, then half the run untraced (the tracing-off reference) and half
// traced.
template <typename Send, typename Trace>
void TracedLoop(const Args& args, server::Client& client,
                Clock::time_point warm_end, const Send& send,
                const Trace& trace, Traced* traced, Result* result) {
  uint64_t next = 0;
  Samples warm;
  ClosedLoop(&next, warm_end, warm_end, send, &warm);
  for (int i = 0; i < 1000; ++i) {
    result->Attempt();
    bool ok = false;
    traced->t.ping.push_back(Timed(nullptr, "server.ping", 0,
                                   [&] { ok = client.Ping(); }));
    if (!ok) result->Fail("PING");
  }
  const double half = args.seconds / 2;
  const auto a0 = Clock::now();
  Samples plain;
  ClosedLoop(&next, a0, After(a0, half), send, &plain);
  const auto b_end = After(Clock::now(), half);
  while (Clock::now() < b_end) trace(next++);
  const double off = Percentile(plain.us, 0.5);
  const double on = Percentile(traced->t.wire, 0.5);
  result->Set("trace.overhead_pct", off > 0 ? 100.0 * (on - off) / off : 0.0,
              "%");
  std::printf("traced: %llu requests traced, wire p50 %.1f us traced vs "
              "%.1f us untraced\n",
              static_cast<unsigned long long>(traced->t.requests), on, off);
}

// The per-layer metrics of a traced run, and its spans written out.
// `writer` is serve_write's writer thread, with the batches it traced.
void ReportTraced(const Args& args, const Traced& traced, Result* result,
                  const Tracer* writer = nullptr, uint64_t writer_ops = 0) {
  const LayerTimes& t = traced.t;
  result->Set("server.ping_us", Median(t.ping), "us");
  result->Set("server.wire_overhead_us", Median(t.overhead), "us");
  result->Set("protocol.encode_us", Median(t.encode), "us");
  result->Set("protocol.decode_us", Median(t.decode), "us");
  result->Set("engine.view_create_us", Median(t.view_create), "us");
  result->Set("engine.view_drop_us", Median(t.view_drop), "us");
  result->Set("engine.new_epoch_view_share",
              static_cast<double>(t.new_epoch_views) /
                  static_cast<double>(std::max<uint64_t>(1, t.views)),
              "ratio");
  result->Set("index.query_us", Median(t.query), "us");
  result->Set("query.plan_us", Median(t.plan), "us");
  std::vector<std::pair<const Tracer*, uint64_t>> tracers = {
      {&traced.tracer, t.requests}};
  if (writer != nullptr) tracers.emplace_back(writer, writer_ops);
  SetSelfTimes(tracers, result);
  if (!traced.tracer.Write(args.spans_out, "client") ||
      (writer != nullptr && !writer->Write(args.spans_out, "writer"))) {
    result->Fail("writing spans");
  }
}

// The end-to-end metrics of an untraced server run, after its timed loop.
void ReportEndToEnd(const Samples& samples, Clock::time_point t0,
                    Store& store, Result* result) {
  SetLatencyMetrics(samples, t0, result);
  result->Set("setup_s", store.setup_s, "s");
  result->Attempt();
  if (!store.engine->Checkpoint()) {
    result->Fail("final checkpoint");
  } else {
    const double bytes =
        static_cast<double>(EngineFileBytes(store.prefix, store.shards));
    result->Set("bytes_per_point",
                bytes / static_cast<double>(store.engine->size()), "B");
  }
  result->Set("peak_rss_mb", PeakRssMb(), "MiB");
}

}  // namespace

// --------------------------------------------------------------- serve_read

bool RunServeRead(const Args& args, Result* result) {
  Store store;
  if (!BuildStore(args, 2, args.trace ? 1 : kSetupRepeats, &store)) return false;
  const std::vector<Request> pool = MakeRequests(args.seed);
  const Oracle oracle = MakeOracle(store, pool);
  Serving serving;
  if (!StartServing(store.engine.get(), &serving)) return false;

  const auto send = [&](uint64_t i) {
    return WireRequest(serving.client, pool, oracle, i, result);
  };
  if (!args.trace) {
    uint64_t next = 0;
    const auto t0 = After(Clock::now(), kWarmupSeconds);
    Samples samples;
    ClosedLoop(&next, t0, After(t0, args.seconds), send, &samples);
    StopServing(&serving);
    ReportEndToEnd(samples, t0, store, result);
    return true;
  }

  BoxCountPass(*store.engine, pool, result);
  SetLoadMetrics(store, result);
  Traced traced;
  TracedLoop(
      args, serving.client, After(Clock::now(), kWarmupSeconds), send,
      [&](uint64_t i) {
        TracedBoxRequest(&traced, i, *store.engine, serving.client, pool,
                         oracle, result);
      },
      &traced, result);
  StopServing(&serving);
  ReportTraced(args, traced, result);
  return true;
}

// -------------------------------------------------------------- serve_write

namespace {

Inserts MakeInserts(uint64_t seed, size_t batches,
                    const std::vector<Request>& pool) {
  Inserts ins;
  util::Rng rng(seed ^ kInsertSalt);
  ins.points.reserve(batches * kInsertsPerBatch);
  for (size_t k = 0; k < batches * kInsertsPerBatch; ++k) {
    const auto x = static_cast<uint32_t>(rng.NextBelow(kGrid.side()));
    const auto y = static_cast<uint32_t>(rng.NextBelow(kGrid.side()));
    ins.points.push_back(geometry::GridPoint({x, y}));
  }
  ins.in_box.assign(pool.size(), 0);
  for (const auto& p : ins.points) {
    for (size_t q = 0; q < pool.size(); ++q) {
      if (pool[q].box.ContainsPoint(p)) ++ins.in_box[q];
    }
  }
  return ins;
}

// The open-loop writer: batch j is due at start + j / rate; it commits
// when due (or late, behind a slow predecessor). Every kCheckpointEvery
// batches it checkpoints, except after the last batch: the batches after
// the last checkpoint are left in the WAL for the durability check to
// recover.
struct Writer {
  Engine* engine = nullptr;
  const Inserts* inserts = nullptr;
  size_t batches = 0;
  Clock::time_point start;
  Clock::time_point t0;  // end of warm-up
  Tracer tracer{false};

  // Results, read after join.
  std::vector<double> commit_us;  // from due time, timed window only
  std::vector<double> late_us;    // start minus due, timed window only
  std::vector<double> checkpoint_ms;
  uint64_t wal_records_at_checkpoint = 0;  // WAL records after the last one
  size_t acked = 0;
  std::vector<std::string> failures;

  void Run() {
    std::vector<Op> ops;
    for (size_t j = 0; j < batches; ++j) {
      const auto due = After(start, static_cast<double>(j) / kBatchesPerSecond);
      std::this_thread::sleep_until(due);
      const auto began = Clock::now();
      ops.clear();
      for (size_t k = j * kInsertsPerBatch; k < (j + 1) * kInsertsPerBatch; ++k) {
        ops.push_back(Op::Insert(inserts->points[k], inserts->first_id + k));
      }
      bool ok = false;
      {
        Tracer::Scope s(&tracer, "storage.commit", j);
        ok = engine->Apply(ops);
      }
      const auto done = Clock::now();
      if (!ok) {
        failures.push_back("commit of batch " + std::to_string(j));
        return;
      }
      acked = j + 1;
      if (due >= t0) {
        commit_us.push_back(UsBetween(due, done));
        late_us.push_back(UsBetween(due, began));
      }
      if ((j + 1) % kCheckpointEvery == 0 && j + 1 < batches) {
        Tracer::Scope s(&tracer, "storage.checkpoint", j);
        const auto c0 = Clock::now();
        if (!engine->Checkpoint()) {
          failures.push_back("checkpoint after batch " + std::to_string(j));
          return;
        }
        checkpoint_ms.push_back(UsSince(c0) / 1000.0);
        wal_records_at_checkpoint = WalTotals(*engine).records;
      }
    }
  }
};

// After the run: close the engine, reopen it (recovery), and require
// every acknowledged batch, and nothing else, to be there. The writer left
// its last batches un-checkpointed, so recovery must redo them from the
// WAL; the check fails if it had nothing to redo.
void CheckDurability(Store* store, const Inserts& inserts, size_t acked_points,
                     uint64_t wal_records_at_checkpoint, Result* result) {
  result->Attempt();
  const uint64_t wal_records = WalTotals(*store->engine).records;
  if (wal_records <= wal_records_at_checkpoint) {
    result->Fail("no WAL records after the last checkpoint: recovery would "
                 "have nothing to redo");
    return;
  }
  store->engine.reset();
  if (!OpenEngine(store, /*truncate=*/false)) {
    result->Fail("reopen after the run");
    return;
  }
  uint64_t redone = 0;
  for (int i = 0; i < store->engine->shard_count(); ++i) {
    redone += store->engine->shard(i).recovery().records_redone;
  }
  std::printf("recovery: %llu WAL records after the last checkpoint, %llu "
              "page images redone\n",
              static_cast<unsigned long long>(wal_records - wal_records_at_checkpoint),
              static_cast<unsigned long long>(redone));
  const uint64_t expected = kBasePoints + acked_points;
  if (redone == 0) {
    result->Fail("recovery redid no committed batch");
    return;
  }
  if (store->engine->size() != expected) {
    result->Fail("recovered " + std::to_string(store->engine->size()) +
                 " points, expected " + std::to_string(expected));
    return;
  }
  const uint32_t top = static_cast<uint32_t>(kGrid.side() - 1);
  const auto rows =
      store->engine->RangeSearchRows(geometry::GridBox::Make2D(0, top, 0, top));
  std::vector<uint8_t> seen(expected, 0);
  bool ok = rows.size() == expected;
  for (const auto& row : rows) {
    const geometry::GridPoint* want =
        row.id < kBasePoints ? &store->points[row.id].point
        : row.id - kBasePoints < acked_points
            ? &inserts.points[row.id - kBasePoints]
            : nullptr;
    if (want == nullptr || !(*want == row.point) || seen[row.id]) {
      ok = false;
      break;
    }
    seen[row.id] = 1;
  }
  if (!ok) result->Fail("recovered contents differ from the acknowledged state");
}

}  // namespace

bool RunServeWrite(const Args& args, Result* result) {
  Store store;
  if (!BuildStore(args, 2, args.trace ? 1 : kSetupRepeats, &store)) return false;
  const std::vector<Request> pool = MakeRequests(args.seed);
  const size_t batches = static_cast<size_t>(
      std::ceil(kBatchesPerSecond * (kWarmupSeconds + args.seconds)));
  const Inserts inserts = MakeInserts(args.seed, batches, pool);
  Oracle oracle = MakeOracle(store, pool);
  oracle.inserts = &inserts;
  std::printf("flush policy: group-commit linger %lld us, checkpoint every %d "
              "batches but not after the last; writer %.0f batches/s x %zu "
              "inserts, %zu batches\n",
              static_cast<long long>(
                  store.engine->shard(0).wal().group_commit_delay().count()),
              kCheckpointEvery, kBatchesPerSecond, kInsertsPerBatch, batches);

  Serving serving;
  if (!StartServing(store.engine.get(), &serving)) return false;
  const storage::WalStats wal_before = WalTotals(*store.engine);

  Writer writer;
  writer.engine = store.engine.get();
  writer.inserts = &inserts;
  writer.batches = batches;
  writer.start = Clock::now();
  writer.t0 = After(writer.start, kWarmupSeconds);
  writer.tracer = Tracer(args.trace);
  std::thread writer_thread([&writer] { writer.Run(); });

  const auto send = [&](uint64_t i) {
    return WireRequest(serving.client, pool, oracle, i, result);
  };
  Samples samples;
  Traced traced;
  if (!args.trace) {
    uint64_t next = 0;
    ClosedLoop(&next, writer.t0, After(writer.t0, args.seconds), send, &samples);
  } else {
    TracedLoop(
        args, serving.client, writer.t0, send,
        [&](uint64_t i) {
          TracedBoxRequest(&traced, i, *store.engine, serving.client, pool,
                           oracle, result);
        },
        &traced, result);
  }
  writer_thread.join();
  result->Attempt(batches);
  for (const std::string& f : writer.failures) result->Fail(f);
  StopServing(&serving);
  const storage::WalStats wal_after = WalTotals(*store.engine);
  const size_t acked_points = writer.acked * kInsertsPerBatch;

  // Final state: exact once every batch is in.
  result->Attempt();
  if (store.engine->size() != kBasePoints + acked_points) {
    result->Fail("final size");
  } else if (writer.acked == batches) {
    const Engine::View view = store.engine->CreateView();
    for (size_t q = 0; q < pool.size(); ++q) {
      if (view.CountBox(pool[q].box) != oracle.base[q].size() + inserts.in_box[q]) {
        result->Fail("final count of request " + std::to_string(q));
        break;
      }
    }
  }
  // Exact counts on the written store, now that nothing else runs.
  if (args.trace) BoxCountPass(*store.engine, pool, result);

  std::printf("writer: %zu/%zu batches acknowledged, %zu checkpoints, "
              "commit p50 %.1f us p99 %.1f us (n=%zu), late p99 %.1f us\n",
              writer.acked, batches, writer.checkpoint_ms.size(),
              Percentile(writer.commit_us, 0.5),
              Percentile(writer.commit_us, 0.99), writer.commit_us.size(),
              Percentile(writer.late_us, 0.99));
  CheckDurability(&store, inserts, acked_points,
                  writer.wal_records_at_checkpoint, result);

  if (!args.trace) {
    ReportEndToEnd(samples, writer.t0, store, result);
    return true;
  }
  result->Set("commit.p50_us", Percentile(writer.commit_us, 0.5), "us");
  result->Set("commit.p99_us", Percentile(writer.commit_us, 0.99), "us");
  result->Set("commit.late_p99_us", Percentile(writer.late_us, 0.99), "us");
  result->Set("checkpoint.ms", Median(writer.checkpoint_ms), "ms");
  result->Set("wal.bytes_per_point",
              static_cast<double>(wal_after.bytes - wal_before.bytes) /
                  static_cast<double>(std::max<size_t>(1, acked_points)),
              "B");
  result->Set("wal.commits_per_fsync",
              static_cast<double>(wal_after.group_commits -
                                  wal_before.group_commits) /
                  static_cast<double>(std::max<uint64_t>(
                      1, wal_after.group_syncs - wal_before.group_syncs)),
              "ratio");
  ReportTraced(args, traced, result, &writer.tracer, writer.acked);
  return true;
}

// ------------------------------------------------------------------ nearest

namespace {

// k-NN centers, stratified: the grid is cut into kStrata x kStrata cells,
// center i lies in cell order[i mod kStrata²] at a seeded offset, and the
// order is a seeded permutation. Every run thus spreads its centers evenly
// over the plane, whatever the seed.
class Centers {
 public:
  static constexpr uint64_t kStrata = 32;

  explicit Centers(uint64_t seed) : seed_(seed ^ kCenterSalt) {
    order_.resize(kStrata * kStrata);
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    util::Rng rng(seed_);
    for (size_t i = order_.size() - 1; i > 0; --i) {
      std::swap(order_[i], order_[rng.NextBelow(i + 1)]);
    }
  }

  geometry::GridPoint operator()(uint64_t i) const {
    const uint64_t cell = order_[i % order_.size()];
    const uint64_t width = kGrid.side() / kStrata;
    util::Rng rng(seed_ + 0x9e3779b97f4a7c15ULL * (i + 1));
    const auto x = static_cast<uint32_t>((cell % kStrata) * width + rng.NextBelow(width));
    const auto y = static_cast<uint32_t>((cell / kStrata) * width + rng.NextBelow(width));
    return geometry::GridPoint({x, y});
  }

 private:
  uint64_t seed_;
  std::vector<uint64_t> order_;
};

// O(n) oracle: the k closest points by (distance², id).
std::vector<index::Neighbor> BruteForceKnn(
    const std::vector<index::PointRecord>& points,
    const geometry::GridPoint& c, size_t k) {
  std::vector<index::Neighbor> all;
  all.reserve(points.size());
  for (const auto& p : points) {
    const auto dx = static_cast<int64_t>(p.point[0]) - c[0];
    const auto dy = static_cast<int64_t>(p.point[1]) - c[1];
    all.push_back({p.id, static_cast<index::Dist2>(dx * dx + dy * dy)});
  }
  const auto by_distance_then_id = [](const index::Neighbor& a,
                                      const index::Neighbor& b) {
    return a.distance2 != b.distance2 ? a.distance2 < b.distance2
                                      : a.id < b.id;
  };
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                    all.end(), by_distance_then_id);
  all.resize(k);
  return all;
}

bool SameNeighbors(const std::vector<index::Neighbor>& a,
                   const std::vector<index::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].distance2 != b[i].distance2) return false;
  }
  return true;
}

// Every 8th request's answer is kept for the brute-force check.
constexpr uint64_t kKnnCheckStride = 8;
constexpr size_t kKnnChecks = 48;

}  // namespace

bool RunNearest(const Args& args, Result* result) {
  Store store;
  if (!BuildStore(args, 1, args.trace ? 1 : kSetupRepeats, &store)) return false;
  Serving serving;
  if (!StartServing(store.engine.get(), &serving)) return false;

  const Centers center(args.seed);
  std::vector<std::pair<uint64_t, std::vector<index::Neighbor>>> kept;
  const auto send = [&](uint64_t i) {
    result->Attempt();
    std::vector<index::Neighbor> got;
    const auto start = Clock::now();
    const bool ok = serving.client.Knn(center(i), kK, &got);
    const double us = UsSince(start);
    if (!ok) {
      result->Fail("KNN " + std::to_string(i) + ": " + serving.client.last_error());
      return -1.0;
    }
    if (got.size() != kK) result->Fail("KNN " + std::to_string(i) + ": short answer");
    if (i % kKnnCheckStride == 0 && kept.size() < kKnnChecks) {
      kept.emplace_back(i, std::move(got));
    }
    return us;
  };

  Samples samples;
  Clock::time_point t0;
  Traced traced;
  if (!args.trace) {
    uint64_t next = 0;
    t0 = After(Clock::now(), kWarmupSeconds);
    ClosedLoop(&next, t0, After(t0, args.seconds), send, &samples);
  } else {
    // Exact counts: a fixed set of centers through index::KNearest, each on
    // a fresh snapshot, while the client is idle.
    index::NearestStats total;
    uint64_t reads = 0;
    for (size_t i = 0; i < kKnnCountPass; ++i) {
      const uint64_t reads_before = PagerReads();
      {
        const auto snap = store.engine->shard(0).CreateSnapshot();
        index::NearestStats st;
        index::KNearest(snap.index(), center(i), kK, &st);
        total.regions_expanded += st.regions_expanded;
        total.range_scans += st.range_scans;
        total.points_examined += st.points_examined;
        total.leaf_pages += st.leaf_pages;
      }
      reads += PagerReads() - reads_before;
    }
    const double n = kKnnCountPass;
    result->Set("nearest.regions_per_query", total.regions_expanded / n, "count");
    result->Set("nearest.scans_per_query", total.range_scans / n, "count");
    result->Set("nearest.points_examined_per_result",
                total.points_examined / (n * kK), "count");
    result->Set("nearest.leaf_pages_per_query", total.leaf_pages / n, "count");
    result->Set("storage.pager_reads_per_query", static_cast<double>(reads) / n,
                "count");
    SetLoadMetrics(store, result);
    TracedLoop(
        args, serving.client, After(Clock::now(), kWarmupSeconds), send,
        [&](uint64_t i) {
          const geometry::GridPoint c = center(i);
          TracedRequest<server::KnnResponse>(
              &traced, i, *store.engine, [&] { return send(i); }, "nearest.knn",
              [&](const Engine::View& v, server::KnnResponse* out) {
                out->neighbors = v.KNearest(c, kK);
              },
              query::Query::KNearest(c, kK), result);
        },
        &traced, result);
  }
  StopServing(&serving);

  // Brute-force oracle on the kept sample.
  for (const auto& [i, got] : kept) {
    result->Attempt();
    if (!SameNeighbors(got, BruteForceKnn(store.points, center(i), kK))) {
      result->Fail("KNN " + std::to_string(i) + " differs from brute force");
    }
  }
  std::printf("nearest: %zu answers checked against brute force\n", kept.size());

  if (!args.trace) {
    ReportEndToEnd(samples, t0, store, result);
    return true;
  }
  ReportTraced(args, traced, result);
  return true;
}

}  // namespace perfbench
