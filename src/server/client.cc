#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace probe::server {

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_request_id_(other.next_request_id_),
      rx_(std::move(other.rx_)),
      last_status_(other.last_status_),
      last_error_(std::move(other.last_error_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    next_request_id_ = other.next_request_id_;
    rx_ = std::move(other.rx_);
    last_status_ = other.last_status_;
    last_error_ = std::move(other.last_error_);
  }
  return *this;
}

bool Client::ConnectTcp(int port) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    Fail(Status::kIoError, "socket() failed");
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    Fail(Status::kIoError, "connect() failed");
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Adopt(fd);
  return true;
}

void Client::Adopt(int fd) {
  Close();
  fd_ = fd;
  rx_.clear();
  last_status_ = Status::kOk;
  last_error_.clear();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::Fail(Status status, std::string message) {
  last_status_ = status;
  last_error_ = std::move(message);
}

bool Client::WriteAll(const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      Fail(Status::kIoError, "send() failed");
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool Client::Send(const Frame& frame) {
  if (!connected()) {
    Fail(Status::kIoError, "not connected");
    return false;
  }
  std::vector<uint8_t> bytes;
  if (!EncodeFrame(frame, &bytes)) {
    Fail(Status::kOversized, "request over the frame cap");
    return false;
  }
  return WriteAll(bytes.data(), bytes.size());
}

bool Client::Recv(Frame* frame) {
  if (!connected()) {
    Fail(Status::kIoError, "not connected");
    return false;
  }
  uint8_t chunk[16384];
  for (;;) {
    size_t consumed = 0;
    Status error = Status::kOk;
    const DecodeResult r =
        DecodeFrame(std::span<const uint8_t>(rx_.data(), rx_.size()), frame,
                    &consumed, &error);
    if (r == DecodeResult::kFrame) {
      rx_.erase(rx_.begin(), rx_.begin() + static_cast<ptrdiff_t>(consumed));
      if (error != Status::kOk) {
        Fail(error, "malformed response frame");
        return false;
      }
      return true;
    }
    if (r == DecodeResult::kError) {
      Fail(error, "unsynchronized response stream");
      Close();
      return false;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      rx_.insert(rx_.end(), chunk, chunk + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Fail(Status::kIoError, n == 0 ? "server closed connection"
                                  : "recv() failed");
    Close();
    return false;
  }
}

bool Client::RoundTrip(const Frame& request, FrameType expected,
                       Frame* response) {
  if (!Send(request)) {
    // The peer may have refused the connection (kBusy/kShuttingDown) and
    // closed: its refusal frame is still in the receive buffer even though
    // the send got EPIPE. Prefer that protocol-level answer to "I/O error".
    if (connected() && Recv(response) && response->type == FrameType::kError) {
      ErrorResponse err;
      if (ErrorResponse::FromPayload(response->payload, &err)) {
        Fail(err.status, err.message);
      }
    }
    return false;
  }
  if (!Recv(response)) return false;
  if (response->type == FrameType::kError) {
    ErrorResponse err;
    if (ErrorResponse::FromPayload(response->payload, &err)) {
      Fail(err.status, err.message);
    } else {
      Fail(Status::kBadPayload, "undecodable error response");
    }
    return false;
  }
  if (response->type != expected || response->request_id != request.request_id) {
    Fail(Status::kBadPayload, "response type/id mismatch");
    return false;
  }
  last_status_ = Status::kOk;
  return true;
}

bool Client::Hello(HelloResponse* out, int32_t max_element_depth,
                   const std::string& client_name) {
  HelloRequest req;
  req.max_element_depth = max_element_depth;
  req.client_name = client_name;
  Frame resp;
  if (!RoundTrip(req.ToFrame(NextRequestId()), FrameType::kHelloOk, &resp)) {
    return false;
  }
  if (!HelloResponse::FromPayload(resp.payload, out)) {
    Fail(Status::kBadPayload, "undecodable HELLO response");
    return false;
  }
  return true;
}

bool Client::Range(const geometry::GridBox& box, std::vector<uint64_t>* ids) {
  RangeRequest req;
  req.box = box;
  Frame resp;
  if (!RoundTrip(req.ToFrame(NextRequestId()), FrameType::kRangeResult,
                 &resp)) {
    return false;
  }
  RangeResponse parsed;
  if (!RangeResponse::FromPayload(resp.payload, &parsed)) {
    Fail(Status::kBadPayload, "undecodable RANGE response");
    return false;
  }
  *ids = std::move(parsed.ids);
  return true;
}

bool Client::Box(const geometry::GridBox& box,
                 std::vector<BoxResponse::Row>* rows) {
  BoxRequest req;
  req.box = box;
  Frame resp;
  if (!RoundTrip(req.ToFrame(NextRequestId()), FrameType::kBoxResult, &resp)) {
    return false;
  }
  BoxResponse parsed;
  if (!BoxResponse::FromPayload(resp.payload, &parsed)) {
    Fail(Status::kBadPayload, "undecodable BOX response");
    return false;
  }
  *rows = std::move(parsed.rows);
  return true;
}

bool Client::Count(const geometry::GridBox& box, uint64_t* count) {
  CountRequest req;
  req.box = box;
  Frame resp;
  if (!RoundTrip(req.ToFrame(NextRequestId()), FrameType::kCountResult,
                 &resp)) {
    return false;
  }
  CountResponse parsed;
  if (!CountResponse::FromPayload(resp.payload, &parsed)) {
    Fail(Status::kBadPayload, "undecodable COUNT response");
    return false;
  }
  *count = parsed.count;
  return true;
}

bool Client::Knn(const geometry::GridPoint& center, uint32_t k,
                 std::vector<index::Neighbor>* neighbors) {
  KnnRequest req;
  req.center = center;
  req.k = k;
  Frame resp;
  if (!RoundTrip(req.ToFrame(NextRequestId()), FrameType::kKnnResult, &resp)) {
    return false;
  }
  KnnResponse parsed;
  if (!KnnResponse::FromPayload(resp.payload, &parsed)) {
    Fail(Status::kBadPayload, "undecodable KNN response");
    return false;
  }
  *neighbors = std::move(parsed.neighbors);
  return true;
}

bool Client::Explain(const geometry::GridBox& box, bool count,
                     std::string* text) {
  ExplainRequest req;
  req.box = box;
  req.count = count ? 1 : 0;
  Frame resp;
  if (!RoundTrip(req.ToFrame(NextRequestId()), FrameType::kExplainResult,
                 &resp)) {
    return false;
  }
  ExplainResponse parsed;
  if (!ExplainResponse::FromPayload(resp.payload, &parsed)) {
    Fail(Status::kBadPayload, "undecodable EXPLAIN response");
    return false;
  }
  *text = std::move(parsed.text);
  return true;
}

bool Client::Ping() {
  Frame req;
  req.type = FrameType::kPing;
  req.request_id = NextRequestId();
  Frame resp;
  return RoundTrip(req, FrameType::kPong, &resp);
}

bool Client::Goodbye() {
  Frame req;
  req.type = FrameType::kGoodbye;
  req.request_id = NextRequestId();
  Frame resp;
  return RoundTrip(req, FrameType::kGoodbyeOk, &resp);
}

}  // namespace probe::server
