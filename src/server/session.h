#ifndef PROBE_SERVER_SESSION_H_
#define PROBE_SERVER_SESSION_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "util/mutex.h"
#include "util/thread_annotations.h"

/// \file
/// Per-connection session state.
///
/// A connection becomes a session with HELLO and stops being one with
/// GOODBYE (or by idling past the server's timeout, or by disconnecting).
/// The session carries the connection-scoped query context: the engine
/// handle implied by the grid the HELLO response described, the session's
/// decomposition depth cap (applied to every query as
/// SearchOptions::max_element_depth), and usage counters for /metrics.
///
/// Sessions are owned by a SessionManager so the server can enforce the
/// protocol rules centrally: one session per connection (double HELLO is
/// rejected), queries require a session, and idle sessions are expired by
/// a sweep instead of lingering until the TCP stack notices.

namespace probe::server {

/// Usage counters of one session.
struct SessionStats {
  uint64_t queries = 0;
  uint64_t rows = 0;
  uint64_t errors = 0;
};

/// One HELLO'd connection.
class Session {
 public:
  Session(uint64_t id, int32_t max_element_depth, std::string client_name,
          std::chrono::steady_clock::time_point now)
      : id_(id),
        max_element_depth_(max_element_depth),
        client_name_(std::move(client_name)),
        last_active_(now) {}

  uint64_t id() const { return id_; }
  int32_t max_element_depth() const { return max_element_depth_; }
  const std::string& client_name() const { return client_name_; }

  SessionStats& stats() { return stats_; }
  const SessionStats& stats() const { return stats_; }

  void Touch(std::chrono::steady_clock::time_point now) { last_active_ = now; }
  std::chrono::steady_clock::time_point last_active() const {
    return last_active_;
  }

 private:
  uint64_t id_;
  int32_t max_element_depth_;
  std::string client_name_;
  SessionStats stats_;
  std::chrono::steady_clock::time_point last_active_;
};

/// Registry of live sessions. Thread-safe; sessions are created and closed
/// from connection handlers and swept from whichever handler notices an
/// expiry first.
class SessionManager {
 public:
  explicit SessionManager(std::chrono::milliseconds idle_timeout)
      : idle_timeout_(idle_timeout) {}

  /// Creates a session and returns its id (ids are never reused).
  uint64_t Create(int32_t max_element_depth, std::string client_name);

  /// Looks up a session and touches it (resets the idle clock). Returns
  /// nullptr for unknown ids — and for sessions already idle past the
  /// timeout, which stay registered (touching an expired session must not
  /// revive it); the caller answers kSessionExpired and Close()s it. The
  /// pointer stays valid until Close(id) — each connection closes only
  /// its own session, and a connection handler is single-threaded, so
  /// handing out the raw pointer is safe.
  Session* Touch(uint64_t id);

  /// Restarts `id`'s idle clock once a request's response is built, even
  /// when the request itself outlasted the timeout: time spent serving a
  /// request is not idle time, so a long query must not expire its own
  /// session. No-op for unknown ids.
  void FinishRequest(uint64_t id);

  /// Removes the session; false if it did not exist.
  bool Close(uint64_t id);

  /// Expires every session idle past the timeout; returns how many.
  size_t ExpireIdle();

  /// True when `id` exists but has been idle past the timeout (the caller
  /// should answer kSessionExpired and Close it).
  bool Expired(uint64_t id) const;

  size_t active() const;
  std::chrono::milliseconds idle_timeout() const { return idle_timeout_; }

  /// Replaces the idle clock with a harness-controlled one, so expiry
  /// tests advance time instead of sleeping through it. The function is
  /// called under the registry lock and must be safe to call from any
  /// handler thread.
  void SetClockForTest(
      std::function<std::chrono::steady_clock::time_point()> clock);

 private:
  std::chrono::steady_clock::time_point Now() const PROBE_REQUIRES(mutex_);

  std::chrono::milliseconds idle_timeout_;
  // Leaf lock: guards the registry map only. Session *contents* are owned
  // by the connection handler that created the session (see Touch()).
  mutable util::Mutex mutex_;
  std::unordered_map<uint64_t, std::unique_ptr<Session>> sessions_
      PROBE_GUARDED_BY(mutex_);
  uint64_t next_id_ PROBE_GUARDED_BY(mutex_) = 1;
  std::function<std::chrono::steady_clock::time_point()> clock_
      PROBE_GUARDED_BY(mutex_);
};

}  // namespace probe::server

#endif  // PROBE_SERVER_SESSION_H_
