#include "src/support/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/support/failpoint.h"
#include "src/support/io_retry.h"

namespace pathalias {
namespace support {

namespace {

std::string Describe(std::string_view step, const std::string& path) {
  std::string message;
  message.reserve(step.size() + path.size() + 64);
  message.append(step);
  message.append(" '");
  message.append(path);
  message.append("': ");
  message.append(std::strerror(errno));
  return message;
}

std::string FailpointName(std::string_view prefix, std::string_view step) {
  std::string name;
  name.reserve(prefix.size() + 1 + step.size());
  name.append(prefix);
  name.push_back('.');
  name.append(step);
  return name;
}

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

bool PublishFileDurably(const std::string& path, std::string_view bytes,
                        std::string_view failpoint_prefix, std::string* error) {
  const std::string temp_path = path + ".tmp";

  int fd = -1;
  if (failpoint::Inject(FailpointName(failpoint_prefix, "open"))) {
    fd = -1;
  } else {
    fd = RetryEintr([&] { return ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644); });
  }
  if (fd < 0) {
    if (error != nullptr) *error = Describe("open", temp_path);
    return false;
  }

  bool wrote = false;
  if (failpoint::Inject(FailpointName(failpoint_prefix, "write"))) {
    // Simulate the real torn state: half the payload lands, then the error.
    int injected = errno;
    (void)WriteFull(fd, bytes.data(), bytes.size() / 2);
    errno = injected;
  } else {
    wrote = WriteFull(fd, bytes.data(), bytes.size()) == static_cast<ssize_t>(bytes.size());
  }
  if (!wrote) {
    if (error != nullptr) *error = Describe("write", temp_path);
    ::close(fd);
    ::unlink(temp_path.c_str());
    return false;
  }

  // fsync BEFORE rename: the rename must not publish a name whose data blocks
  // are still queued — a crash after the rename would then expose a torn file
  // at the published path, which is exactly the state this helper forbids.
  bool synced = !failpoint::Inject(FailpointName(failpoint_prefix, "fsync")) &&
                RetryEintr([&] { return ::fsync(fd); }) == 0;
  if (!synced) {
    if (error != nullptr) *error = Describe("fsync", temp_path);
    ::close(fd);
    ::unlink(temp_path.c_str());
    return false;
  }

  bool closed = !failpoint::Inject(FailpointName(failpoint_prefix, "close")) &&
                RetryEintr([&] { return ::close(fd); }) == 0;
  if (!closed) {
    if (error != nullptr) *error = Describe("close", temp_path);
    ::unlink(temp_path.c_str());
    return false;
  }

  bool renamed = !failpoint::Inject(FailpointName(failpoint_prefix, "rename")) &&
                 std::rename(temp_path.c_str(), path.c_str()) == 0;
  if (!renamed) {
    if (error != nullptr) *error = Describe("rename", temp_path);
    ::unlink(temp_path.c_str());
    return false;
  }

  // Make the directory entry durable.  The content is already committed — a
  // failure here is reported (caller may retry), but the published path is
  // valid either way, so there is nothing to roll back.
  const std::string dir = ParentDir(path);
  int dir_fd = RetryEintr([&] { return ::open(dir.c_str(), O_RDONLY); });
  bool dir_synced = dir_fd >= 0 &&
                    !failpoint::Inject(FailpointName(failpoint_prefix, "dirsync")) &&
                    RetryEintr([&] { return ::fsync(dir_fd); }) == 0;
  if (dir_fd >= 0) ::close(dir_fd);
  if (!dir_synced) {
    if (error != nullptr) *error = Describe("fsync directory", dir);
    return false;
  }
  return true;
}

bool WriteOutputFile(const std::string& path, std::string_view bytes,
                     std::string_view failpoint_prefix, std::string* error) {
  struct stat st;
  if (::lstat(path.c_str(), &st) != 0 || S_ISREG(st.st_mode)) {
    return PublishFileDurably(path, bytes, failpoint_prefix, error);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    if (error != nullptr) *error = "write '" + path + "' failed";
    return false;
  }
  return true;
}

}  // namespace support
}  // namespace pathalias
