// Lint fixture: storage syscalls whose result is discarded must trip the
// unchecked-syscall rule, once per marked line; the checked calls below
// them must not. Never compiled; see README.md.
#include <cstdio>
#include <unistd.h>

namespace fixture {

void IgnoresFailures(int fd, const char* buf, size_t n) {
  ::pwrite(fd, buf, n, 0);  // BAD: bare statement
  (void)::ftruncate(fd, 0);  // BAD: void cast
  static_cast<void>(pread(fd, nullptr, 0, 0));  // BAD: void cast
  [[maybe_unused]] const int rc =
      ::ftruncate(fd, 4096);  // BAD: maybe_unused binding
  if (n > 0) std::rename("a", "b");  // BAD: bare statement after if
}

bool ChecksEveryResult(int fd, const char* buf, size_t n) {
  const ssize_t written =
      ::pwrite(fd, buf, n, 0);
  if (written != static_cast<ssize_t>(n)) return false;
  if (::ftruncate(fd, 0) != 0) return false;
  return std::rename("a", "b") == 0;
}

}  // namespace fixture
