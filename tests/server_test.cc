#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "obs/runtime_metrics.h"
#include "server/client.h"
#include "temp_file.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"

// End-to-end over real TCP: a client executes every query type against a
// ShardedEngine through the server and gets byte-identical answers to
// in-process calls; pipelined requests come back in order; the same
// listener answers HTTP /metrics and /healthz; and Stop() is graceful.

namespace probe::server {
namespace {

using geometry::GridBox;
using geometry::GridPoint;

constexpr zorder::GridSpec kGrid{2, 8};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tmp_ = std::make_unique<testutil::TempFile>("server_e2e");
    pool_ = std::make_unique<util::ThreadPool>(4);
    ShardedEngineOptions engine_options;
    engine_options.shards = 4;
    engine_options.truncate = true;
    engine_ = std::make_unique<ShardedEngine>(kGrid, tmp_->path(),
                                              engine_options, pool_.get());
    ASSERT_TRUE(engine_->ok());

    workload::DataGenConfig config;
    config.distribution = workload::Distribution::kClustered;
    config.count = 2000;
    config.seed = 5;
    const auto points = workload::GeneratePoints(kGrid, config);
    std::vector<index::DurableIndex::Op> ops;
    for (const auto& r : points) {
      ops.push_back(index::DurableIndex::Op::Insert(r.point, r.id));
    }
    ASSERT_TRUE(engine_->Apply(ops));

    server_ = std::make_unique<Server>(engine_.get(), ServerOptions{});
    ASSERT_TRUE(server_->Start());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    for (int i = 0; i < 4; ++i) {
      const std::string base = ShardedEngine::ShardPath(tmp_->path(), i);
      std::remove(base.c_str());
      std::remove((base + ".wal").c_str());
    }
  }

  // One blocking HTTP exchange against the server's port.
  std::string Http(const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      response.append(chunk, static_cast<size_t>(n));
    }
    ::close(fd);
    return response;
  }

  std::unique_ptr<testutil::TempFile> tmp_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<ShardedEngine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, EveryQueryTypeMatchesInProcessResults) {
  Client client;
  ASSERT_TRUE(client.ConnectTcp(server_->port()));
  HelloResponse hello;
  ASSERT_TRUE(client.Hello(&hello));
  EXPECT_EQ(hello.shards, 4);
  EXPECT_EQ(hello.point_count, 2000u);

  const GridBox boxes[] = {
      GridBox::Make2D(0, 255, 0, 255),
      GridBox::Make2D(40, 90, 120, 200),
      GridBox::Make2D(7, 7, 7, 7),
  };
  for (const auto& box : boxes) {
    std::vector<uint64_t> ids;
    ASSERT_TRUE(client.Range(box, &ids));
    EXPECT_EQ(ids, engine_->RangeSearch(box)) << box.ToString();

    std::vector<BoxResponse::Row> rows;
    ASSERT_TRUE(client.Box(box, &rows));
    const auto expect = engine_->RangeSearchRows(box);
    ASSERT_EQ(rows.size(), expect.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].id, expect[i].id);
      EXPECT_EQ(rows[i].point, expect[i].point);
    }

    uint64_t count = 0;
    ASSERT_TRUE(client.Count(box, &count));
    EXPECT_EQ(count, engine_->CountBox(box)) << box.ToString();

    std::string explain;
    ASSERT_TRUE(client.Explain(box, false, &explain));
    EXPECT_EQ(explain, engine_->Explain(box, false));
    ASSERT_TRUE(client.Explain(box, true, &explain));
    EXPECT_EQ(explain, engine_->Explain(box, true));
  }

  const GridPoint center({128, 128});
  std::vector<index::Neighbor> neighbors;
  ASSERT_TRUE(client.Knn(center, 25, &neighbors));
  const auto expect_knn = engine_->KNearest(center, 25);
  ASSERT_EQ(neighbors.size(), expect_knn.size());
  for (size_t i = 0; i < neighbors.size(); ++i) {
    EXPECT_EQ(neighbors[i].id, expect_knn[i].id);
    EXPECT_EQ(neighbors[i].distance2, expect_knn[i].distance2);
  }

  EXPECT_TRUE(client.Goodbye());
}

TEST_F(ServerTest, BoxHonoursSessionDepthCap) {
  // A depth-capped session runs BOX through the same capped merge as
  // RANGE: the same ids in the same order, and the same decomposition
  // work, as the process-wide query metrics record it.
  Client client;
  ASSERT_TRUE(client.ConnectTcp(server_->port()));
  HelloResponse hello;
  ASSERT_TRUE(client.Hello(&hello, /*max_element_depth=*/6));
  const obs::Counter& elements =
      *obs::QueryMetrics::Default().elements_generated;

  for (const auto& box :
       {GridBox::Make2D(0, 255, 0, 255), GridBox::Make2D(30, 220, 10, 190),
        GridBox::Make2D(40, 90, 120, 200)}) {
    std::vector<uint64_t> ids;
    const uint64_t before_range = elements.value();
    ASSERT_TRUE(client.Range(box, &ids));
    const uint64_t range_elements = elements.value() - before_range;

    std::vector<BoxResponse::Row> rows;
    const uint64_t before_box = elements.value();
    ASSERT_TRUE(client.Box(box, &rows));
    const uint64_t box_elements = elements.value() - before_box;

    ASSERT_EQ(rows.size(), ids.size()) << box.ToString();
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].id, ids[i]);
      EXPECT_TRUE(box.ContainsPoint(rows[i].point));
    }
    EXPECT_EQ(box_elements, range_elements) << box.ToString();
  }
  EXPECT_TRUE(client.Goodbye());
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  Client client;
  ASSERT_TRUE(client.ConnectTcp(server_->port()));
  HelloResponse hello;
  ASSERT_TRUE(client.Hello(&hello));

  // Write a window of COUNT requests, then read the window of responses:
  // request_ids echo back in submission order.
  constexpr int kWindow = 64;
  std::vector<uint64_t> expected;
  for (int i = 0; i < kWindow; ++i) {
    const auto lo = static_cast<uint32_t>(i * 3);
    const GridBox box = GridBox::Make2D(lo, lo + 50, 10, 240);
    expected.push_back(engine_->CountBox(box));
    CountRequest req;
    req.box = box;
    ASSERT_TRUE(client.Send(req.ToFrame(static_cast<uint32_t>(1000 + i))));
  }
  for (int i = 0; i < kWindow; ++i) {
    Frame frame;
    ASSERT_TRUE(client.Recv(&frame));
    ASSERT_EQ(frame.type, FrameType::kCountResult);
    EXPECT_EQ(frame.request_id, static_cast<uint32_t>(1000 + i));
    CountResponse resp;
    ASSERT_TRUE(CountResponse::FromPayload(frame.payload, &resp));
    EXPECT_EQ(resp.count, expected[static_cast<size_t>(i)]);
  }
}

TEST_F(ServerTest, UnknownFrameTypeIsAnsweredNotFatal) {
  Client client;
  ASSERT_TRUE(client.ConnectTcp(server_->port()));

  Frame weird;
  weird.type = static_cast<FrameType>(50);  // intact but unknown
  weird.request_id = 77;
  ASSERT_TRUE(client.Send(weird));
  Frame resp;
  ASSERT_TRUE(client.Recv(&resp));
  EXPECT_EQ(resp.type, FrameType::kError);
  ErrorResponse err;
  ASSERT_TRUE(ErrorResponse::FromPayload(resp.payload, &err));
  EXPECT_EQ(err.status, Status::kUnknownType);

  // The stream stayed synchronized: the connection still works.
  EXPECT_TRUE(client.Ping());
}

TEST_F(ServerTest, MetricsAndHealthzOverTheSameListener) {
  // Generate some traffic so the counters are nonzero.
  Client client;
  ASSERT_TRUE(client.ConnectTcp(server_->port()));
  HelloResponse hello;
  ASSERT_TRUE(client.Hello(&hello));
  std::vector<uint64_t> ids;
  ASSERT_TRUE(client.Range(GridBox::Make2D(0, 255, 0, 255), &ids));

  const std::string metrics = Http("GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("probe_server_requests_total"), std::string::npos);
  EXPECT_NE(metrics.find("probe_server_sessions"), std::string::npos);

  const std::string health = Http("GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"shards\":4"), std::string::npos);

  const std::string missing = Http("GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos);

  EXPECT_GE(server_->counters().http_requests, 3u);
}

TEST_F(ServerTest, GracefulStopDrainsAndIsIdempotent) {
  Client client;
  ASSERT_TRUE(client.ConnectTcp(server_->port()));
  HelloResponse hello;
  ASSERT_TRUE(client.Hello(&hello));
  std::vector<uint64_t> ids;
  ASSERT_TRUE(client.Range(GridBox::Make2D(0, 100, 0, 100), &ids));

  EXPECT_TRUE(server_->Stop());
  EXPECT_TRUE(server_->Stop());  // idempotent

  // The open connection was woken and closed.
  EXPECT_FALSE(client.Ping());

  // New connections are refused outright (listener closed).
  Client late;
  EXPECT_FALSE(late.ConnectTcp(server_->port()));
}

TEST_F(ServerTest, CorruptFrameClosesOnlyThatConnection) {
  Client good;
  ASSERT_TRUE(good.ConnectTcp(server_->port()));
  HelloResponse hello;
  ASSERT_TRUE(good.Hello(&hello));

  // Push a CRC-corrupted frame through a raw socket. The server must
  // answer kBadCrc and hang up that connection — and only that one.
  Frame ping;
  ping.type = FrameType::kPing;
  ping.request_id = 9;
  std::vector<uint8_t> wire;
  EncodeFrame(ping, &wire);
  wire[3] ^= 0x40;  // flip a type bit: the CRC no longer matches

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  // Read until close; the bytes read must decode to a kBadCrc error frame.
  std::vector<uint8_t> rx;
  uint8_t chunk[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    rx.insert(rx.end(), chunk, chunk + n);
  }
  ::close(fd);
  Frame resp;
  size_t consumed = 0;
  Status error = Status::kOk;
  ASSERT_EQ(DecodeFrame(rx, &resp, &consumed, &error), DecodeResult::kFrame);
  ASSERT_EQ(resp.type, FrameType::kError);
  ErrorResponse err;
  ASSERT_TRUE(ErrorResponse::FromPayload(resp.payload, &err));
  EXPECT_EQ(err.status, Status::kBadCrc);

  // Isolation: the well-behaved connection is untouched.
  EXPECT_TRUE(good.Ping());
  std::vector<uint64_t> ids;
  EXPECT_TRUE(good.Range(GridBox::Make2D(0, 50, 0, 50), &ids));
}

}  // namespace
}  // namespace probe::server
