#include "server/session.h"

#include <utility>

namespace probe::server {

std::chrono::steady_clock::time_point SessionManager::Now() const {
  return clock_ ? clock_() : std::chrono::steady_clock::now();
}

void SessionManager::SetClockForTest(
    std::function<std::chrono::steady_clock::time_point()> clock) {
  util::MutexLock lock(&mutex_);
  clock_ = std::move(clock);
}

uint64_t SessionManager::Create(int32_t max_element_depth,
                                std::string client_name) {
  util::MutexLock lock(&mutex_);
  const uint64_t id = next_id_++;
  sessions_.emplace(id, std::make_unique<Session>(id, max_element_depth,
                                                  std::move(client_name),
                                                  Now()));
  return id;
}

Session* SessionManager::Touch(uint64_t id) {
  util::MutexLock lock(&mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  const auto now = Now();
  // An expired session is dead even if nobody swept it yet: touching it
  // must not revive it (that would make expiry depend on sweep timing).
  if (now - it->second->last_active() > idle_timeout_) return nullptr;
  it->second->Touch(now);
  return it->second.get();
}

void SessionManager::FinishRequest(uint64_t id) {
  util::MutexLock lock(&mutex_);
  auto it = sessions_.find(id);
  if (it != sessions_.end()) it->second->Touch(Now());
}

bool SessionManager::Close(uint64_t id) {
  util::MutexLock lock(&mutex_);
  return sessions_.erase(id) != 0;
}

bool SessionManager::Expired(uint64_t id) const {
  util::MutexLock lock(&mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  return Now() - it->second->last_active() > idle_timeout_;
}

size_t SessionManager::ExpireIdle() {
  util::MutexLock lock(&mutex_);
  const auto now = Now();
  size_t expired = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now - it->second->last_active() > idle_timeout_) {
      it = sessions_.erase(it);
      ++expired;
    } else {
      ++it;
    }
  }
  return expired;
}

size_t SessionManager::active() const {
  util::MutexLock lock(&mutex_);
  return sessions_.size();
}

}  // namespace probe::server
