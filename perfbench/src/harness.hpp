#pragma once
// Plumbing shared by the workloads and the traced ladder: an in-process
// server in a directory of its own, shard-file copies for the recovery step,
// the host-steal reading, the idle poller, and small response helpers.

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arith.hpp"
#include "srv/client.hpp"
#include "srv/server.hpp"

namespace perfbench {

using herc::util::Json;
using herc::util::JsonObject;
using herc::util::Result;

/// This process's scratch root, .bench_build/perfbench-runs/<pid> (relative
/// to the working directory, so unix socket paths stay short).
std::string run_root();
/// A fresh, empty directory under run_root().
std::string fresh_dir(const std::string& tag);
void remove_dir(const std::string& dir);

/// One in-process srv::Server with ServerConfig defaults, listening on a
/// unix socket inside its own directory, which also holds its shard files.
/// Stopping the server and removing the directory happen on destruction.
class HostedServer {
 public:
  /// Starts in `dir` (which must exist), or in a fresh directory when empty.
  [[nodiscard]] static Result<std::unique_ptr<HostedServer>> start(
      const std::string& tag, const std::string& dir = "");
  ~HostedServer();
  HostedServer(const HostedServer&) = delete;
  HostedServer& operator=(const HostedServer&) = delete;

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::string address() const { return server_->unix_address(); }
  [[nodiscard]] herc::srv::Server& server() { return *server_; }
  [[nodiscard]] Result<std::unique_ptr<herc::srv::Client>> connect() const;

 private:
  HostedServer() = default;
  std::string dir_;
  std::unique_ptr<herc::srv::Server> server_;
};

/// Copies <from>/<name>.snapshot.json and <name>.wal for every project into
/// a fresh directory and returns it.
[[nodiscard]] Result<std::string> copy_shard_files(const std::string& from,
                                                   const std::vector<std::string>& names);

/// CPU time counters from /proc/stat (all CPUs), for the host-steal share.
struct ProcStat {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  static ProcStat read();
};

/// Keeps every CPU of the machine from halting while it lives: one
/// SCHED_IDLE spinner thread pinned to each CPU, which any runnable thread
/// of the process preempts at once.  The in-process equivalent of booting
/// with idle=poll: a halted vCPU must be rescheduled by the host on every
/// wake-up, which the host charges as steal; without the spinners that
/// moved throughput by up to 2x between runs on a 4-vCPU KVM guest.
class IdlePoller {
 public:
  IdlePoller();
  ~IdlePoller();
  IdlePoller(const IdlePoller&) = delete;
  IdlePoller& operator=(const IdlePoller&) = delete;

  /// CPU time the spinners have used so far, in microseconds.
  [[nodiscard]] double cpu_us() const;

  /// Process CPU time less the live poller's (if any), in microseconds.
  [[nodiscard]] static double work_cpu_us();

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  std::vector<pthread_t> handles_;  ///< threads_' native handles, for their CPU clocks
};

/// Counts one response into `f`; true when it succeeded.
bool tally(const Result<herc::srv::wire::Response>& r, Failures& f);

/// "(N rows)" footer of a rendered query result; nullopt if absent.
[[nodiscard]] std::optional<long> row_count(const std::string& text);

/// `text` member of an ok read response ("" when absent).
[[nodiscard]] std::string result_text(const herc::srv::wire::Response& r);

/// Integer member at a '/'-separated path of a stats document (0 if absent).
[[nodiscard]] std::int64_t stat_int(const Json& doc, const std::string& path);
[[nodiscard]] double stat_num(const Json& doc, const std::string& path);

/// Nanoseconds on the steady clock.
[[nodiscard]] std::int64_t now_ns();

}  // namespace perfbench
