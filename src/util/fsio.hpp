#pragma once
// Small file I/O helpers shared by the CLI and the persistence layer.
//
// write_file_atomic is the load-bearing one: project snapshots must never be
// half-written.  It writes to a sibling temp file and renames it over the
// target, so a crash (or a full disk) mid-save leaves any existing file
// untouched — either the old snapshot survives intact or the new one is
// complete.
//
// Durability levels: by default writes only reach the OS page cache (an
// application crash cannot lose them, a machine crash can).  Passing
// `durable = true` additionally fsyncs the data — and, for the atomic
// variant, the containing directory after the rename — so the write survives
// power loss once the call returns.  The server's group-committed journal
// and shutdown snapshots use the durable mode; the single-user CLI defaults
// to the cheap one.

#include <string>

#include "util/result.hpp"

namespace herc::util {

/// Reads a whole file; kNotFound if it does not exist, kIoError for any other
/// open or read failure (a directory, a symlink loop, EIO, EMFILE).
[[nodiscard]] Result<std::string> read_file(const std::string& path);

/// Plain truncating write (journals append elsewhere; this is for scratch
/// output where atomicity does not matter).
[[nodiscard]] Status write_file(const std::string& path, std::string_view content);

/// Crash-safe replace: writes `content` to `path + ".tmp"`, flushes, then
/// renames over `path`.  On any failure the original file is left exactly as
/// it was and the temp file is removed (best effort).  With `durable` the
/// temp file is fsynced before the rename and the parent directory after it,
/// so the replacement itself survives power loss.
[[nodiscard]] Status write_file_atomic(const std::string& path,
                                       std::string_view content,
                                       bool durable = false);

/// fsyncs the directory containing `path` (durable rename requires the
/// directory entry to reach disk too).  Best effort on filesystems that
/// reject directory fsync.
[[nodiscard]] Status sync_parent_dir(const std::string& path);

/// An append-only file handle over a POSIX descriptor: the journal's I/O
/// primitive.  Unbuffered — append() issues the write immediately — with an
/// explicit sync() for fsync-backed durability.  Not thread-safe; its one
/// journal user, hercules::GroupCommitter, serializes access.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile() { close(); }
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Opens (creating or truncating) `path` for appending; kIoError when the
  /// open fails, injected or real.
  [[nodiscard]] Status open_trunc(const std::string& path);
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  void close();

  /// Writes all of `data`; fails on short writes (disk full) or I/O errors.
  [[nodiscard]] Status append(std::string_view data);

  /// fsync: blocks until everything appended so far is on stable storage.
  [[nodiscard]] Status sync();

  /// kIoError once the file has no name left (fstat link count 0), so no
  /// open of the path finds what was appended.  Not a FaultFs IO point.
  [[nodiscard]] Status check_linked() const;

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace herc::util
