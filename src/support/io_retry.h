// Short-I/O and EINTR discipline for raw file descriptors, shared by the daemon
// (src/net) and any tool that talks to pipes or sockets directly.
//
// POSIX read/write may transfer fewer bytes than asked (pipes, sockets, signals)
// and may fail with EINTR without transferring anything.  Every raw syscall site
// in this codebase goes through these helpers so the retry policy lives in one
// place: retry on EINTR always, loop on short transfers until the full count is
// moved or a real error/EOF ends it.  Datagram sockets are different — a datagram
// sends or receives whole or not at all — so src/net/socket.h wraps sendto/recvfrom
// with RetryEintr directly rather than a transfer loop.  ReadFileFully is the one
// whole-file reader: every map source, routes file and state-dir file is read
// through it, so an unreadable file is an error, never an empty one.
//
// Long-running tools must also ignore SIGPIPE: a peer closing its socket between
// our poll and our send must surface as EPIPE from the syscall (handled, counted),
// not kill the process.  Filters (pathalias, routedb batch) keep the default — for
// a pipeline, dying silently on a closed pipe is the correct UNIX behavior.

#ifndef SRC_SUPPORT_IO_RETRY_H_
#define SRC_SUPPORT_IO_RETRY_H_

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <optional>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#endif

namespace pathalias {
namespace support {

// Retries `call` (any syscall-shaped callable returning a signed count) until it
// returns something other than -1/EINTR.  The one-liner that keeps every call
// site honest about interrupted syscalls.
template <typename Call>
auto RetryEintr(Call&& call) -> decltype(call()) {
  decltype(call()) result;
  do {
    result = call();
  } while (result < 0 && errno == EINTR);
  return result;
}

#if defined(__unix__) || defined(__APPLE__)

// Reads exactly `count` bytes unless EOF or a real error intervenes.  Returns the
// number of bytes actually read: `count` on success, less on EOF, -1 on error
// (errno set; never EINTR).
inline ssize_t ReadFull(int fd, void* buffer, size_t count) {
  char* out = static_cast<char*>(buffer);
  size_t done = 0;
  while (done < count) {
    ssize_t n = RetryEintr([&] { return ::read(fd, out + done, count - done); });
    if (n < 0) {
      return -1;
    }
    if (n == 0) {
      break;  // EOF
    }
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

// Writes exactly `count` bytes or fails: returns `count` on success, -1 on error
// (errno set; never EINTR, and a short write is retried, not returned).
inline ssize_t WriteFull(int fd, const void* buffer, size_t count) {
  const char* in = static_cast<const char*>(buffer);
  size_t done = 0;
  while (done < count) {
    ssize_t n = RetryEintr([&] { return ::write(fd, in + done, count - done); });
    if (n < 0) {
      return -1;
    }
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

// The bytes of `path`, read to end of file, or nullopt with *error (when non-null)
// set to "cannot open|read PATH: strerror".  An std::ifstream drained through
// rdbuf() swallows read errors (a directory reads as zero bytes); here a failed
// open or read (EISDIR, EACCES, EIO) is an error.
inline std::optional<std::string> ReadFileFully(const std::string& path, std::string* error) {
  auto fail = [&](const char* step) -> std::optional<std::string> {
    if (error != nullptr) {
      *error = std::string(step) + " " + path + ": " + std::strerror(errno);
    }
    return std::nullopt;
  };
  // pathalint: allow(R4): a directory (EISDIR) reaches this error path with no
  // injection, and tests read one through the tools and the update step; a
  // caller whose schedules fail it injects first, as the state dir's state.read.
  int fd = RetryEintr([&] { return ::open(path.c_str(), O_RDONLY | O_CLOEXEC); });
  if (fd < 0) {
    return fail("cannot open");
  }
  std::string bytes;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    bytes.reserve(static_cast<size_t>(st.st_size));
  }
  char chunk[1 << 16];
  ssize_t got = 0;
  while ((got = RetryEintr([&] { return ::read(fd, chunk, sizeof(chunk)); })) > 0) {
    bytes.append(chunk, static_cast<size_t>(got));
  }
  const int read_errno = errno;
  ::close(fd);
  if (got < 0) {
    errno = read_errno;
    return fail("cannot read");
  }
  return bytes;
}

// For daemons: a peer disappearing mid-send must be an errno, not a process death.
inline void IgnoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }

#endif  // __unix__ || __APPLE__

}  // namespace support
}  // namespace pathalias

#endif  // SRC_SUPPORT_IO_RETRY_H_
