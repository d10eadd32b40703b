#include "util/fsio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/faultfs.hpp"

namespace herc::util {

namespace {

/// Consults the installed FaultFs (if any) at one IO point.  Returns the
/// no-op decision when injection is off.
FaultFs::Decision fault_decision(FsOp op, const std::string& path,
                                 std::size_t bytes = 0) {
  if (FaultFs* fs = FaultFs::installed()) return fs->decide(op, path, bytes);
  return {};
}

/// The injected-error spelling mirrors strerror so callers and logs treat
/// injected and real faults identically.
Error injected_error(FaultFs::Action action, const char* what,
                     const std::string& path) {
  const char* cause = action == FaultFs::Action::kEnospc ||
                              action == FaultFs::Action::kShort
                          ? "No space left on device"
                          : "Input/output error";
  return io_error(std::string(what) + " '" + path + "' failed: " + cause +
                  " (injected)");
}

}  // namespace

Result<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    std::string why = "cannot open file '" + path + "': " + std::strerror(err);
    return err == ENOENT ? not_found(why) : io_error(why);
  }
  std::string text;
  char buf[65536];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) != 0) {
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (errno != EINTR) {
      const int err = errno;
      ::close(fd);
      return io_error("read of '" + path + "' failed: " + std::strerror(err));
    }
  }
  ::close(fd);
  return text;
}

Status write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return invalid("cannot write file '" + path + "'");
  out << content;
  out.flush();
  if (!out) return io_error("short write to file '" + path + "'");
  return Status::ok_status();
}

Status sync_parent_dir(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  auto fault = fault_decision(FsOp::kDirFsync, path);
  if (fault.action != FaultFs::Action::kNone)
    return injected_error(fault.action, "fsync of directory", dir);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return io_error("cannot open directory '" + dir + "' for fsync");
  // Some filesystems refuse fsync on directories (EINVAL); that is the best
  // the platform offers, not an application error.
  int rc = ::fsync(fd);
  int saved_errno = errno;
  ::close(fd);
  if (rc != 0 && saved_errno != EINVAL)
    return io_error("fsync of directory '" + dir + "' failed: " +
                    std::string(std::strerror(saved_errno)));
  return Status::ok_status();
}

Status write_file_atomic(const std::string& path, std::string_view content,
                         bool durable) {
  const std::string tmp = path + ".tmp";
  {
    // Scoped so the descriptor is closed (AppendFile::~AppendFile) before
    // the rename — and, on any failure, before the tmp file is unlinked.
    AppendFile out;
    auto st = out.open_trunc(tmp);
    if (!st.ok()) return st;
    st = out.append(content);
    if (!st.ok()) {
      out.close();
      std::remove(tmp.c_str());
      return st;
    }
    if (durable) {
      st = out.sync();
      if (!st.ok()) {
        out.close();
        std::remove(tmp.c_str());
        return st;
      }
    }
  }
  auto fault = fault_decision(FsOp::kRename, path);
  if (fault.action != FaultFs::Action::kNone) {
    std::remove(tmp.c_str());
    return injected_error(fault.action, "rename over", path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return io_error("cannot replace '" + path + "' (rename failed: " +
                    std::string(std::strerror(errno)) + ")");
  }
  if (durable) return sync_parent_dir(path);
  return Status::ok_status();
}

Status AppendFile::open_trunc(const std::string& path) {
  close();
  auto fault = fault_decision(FsOp::kOpen, path);
  if (fault.action != FaultFs::Action::kNone)
    return injected_error(fault.action, "open of", path);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0)
    return io_error("open of '" + path + "' failed: " + std::strerror(errno));
  path_ = path;
  return Status::ok_status();
}

void AppendFile::close() {
  if (fd_ >= 0) {
    // EINTR after close() leaves the fd state unspecified on POSIX; Linux
    // always releases it, so retrying close() would race a reused
    // descriptor.  Close once and ignore the (unreportable) result.
    ::close(fd_);
  }
  fd_ = -1;
}

Status AppendFile::append(std::string_view data) {
  if (fd_ < 0) return invalid("append to closed file '" + path_ + "'");
  auto fault = fault_decision(FsOp::kWrite, path_, data.size());
  switch (fault.action) {
    case FaultFs::Action::kNone:
      break;
    case FaultFs::Action::kShort:
    case FaultFs::Action::kTorn: {
      // Land the prefix for real — the on-disk state after a disk-full short
      // write or a mid-write process death — then report the failure.
      std::string_view prefix = data.substr(0, fault.prefix_bytes);
      const char* p = prefix.data();
      std::size_t left = prefix.size();
      while (left > 0) {
        ssize_t n = ::write(fd_, p, left);
        if (n <= 0) break;  // best effort; the op fails either way
        p += n;
        left -= static_cast<std::size_t>(n);
      }
      return injected_error(fault.action, "write to", path_);
    }
    default:
      return injected_error(fault.action, "write to", path_);
  }
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error("write to '" + path_ + "' failed: " +
                      std::string(std::strerror(errno)));
    }
    if (n == 0) return io_error("short write to '" + path_ + "'");
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return Status::ok_status();
}

Status AppendFile::check_linked() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0)
    return io_error("fstat of '" + path_ + "' failed: " +
                    std::string(std::strerror(errno)));
  if (st.st_nlink == 0) return io_error("'" + path_ + "' was removed while open");
  return Status::ok_status();
}

Status AppendFile::sync() {
  if (fd_ < 0) return invalid("sync of closed file '" + path_ + "'");
  auto fault = fault_decision(FsOp::kFsync, path_);
  if (fault.action != FaultFs::Action::kNone)
    return injected_error(fault.action, "fsync of", path_);
  if (::fsync(fd_) != 0)
    return io_error("fsync of '" + path_ + "' failed: " +
                    std::string(std::strerror(errno)));
  return Status::ok_status();
}

}  // namespace herc::util
