#pragma once
// herc::srv::Server — the multi-project front-end.
//
// Topology:
//
//   listeners (tcp / unix) -> accept thread -> one reader thread per session
//        reads:  -> ProjectShard read lane, on the reader thread
//        writes and server ops:  -> bounded job queue -> worker pool
//                                -> ProjectShard registry
//        -> responses written back on the session socket
//
// A session's reader thread parses each request.  A project read (query,
// explain, status, gantt: ProjectShard::is_read_op) runs right there on a
// pinned epoch and is answered before the next frame is parsed, so a request
// pipelined behind a read waits for that read.  Everything else — mutations,
// `stats`, and the server ops (open/projects/stats/...) — is queued for the
// worker pool, so a slow flow execution on one connection never stalls that
// connection's reader, and `id`-tagged responses may return out of request
// order (clients pipeline).  Shards serialize their writes internally (see
// shard.hpp), so workers need no shard-awareness, and requests against
// different projects execute fully in parallel.
//
// Graceful shutdown (stop(), also triggered by the `shutdown` op or a signal
// in tools/herc_srv): stop accepting, stop reading — joining the reader
// threads finishes every read already parsed — then finish every queued
// request, then per shard a final group commit + snapshot.  A SIGKILL
// instead loses nothing acknowledged: recovery replays each shard's
// snapshot + WAL (tests assert byte-identity).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "srv/net.hpp"
#include "srv/shard.hpp"
#include "srv/wire.hpp"

namespace herc::srv {

struct ServerConfig {
  /// unix-domain listener path; empty = none.
  std::string unix_path;
  /// TCP listener port; -1 = none, 0 = kernel-assigned (see tcp_port()).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  int workers = 4;
  /// Overload shedding: maximum parsed-but-unexecuted writes and server ops
  /// queued for the worker pool.  One arriving past the bound is answered
  /// immediately with a RETRYABLE `overloaded` error instead of being
  /// queued — bounding memory and queueing latency under a request storm
  /// (shed work is cheap for the client to retry; an unbounded queue would
  /// instead time everyone out).  Reads never queue and are never shed: each
  /// session runs at most one at a time on its own thread.
  std::size_t max_queue_depth = 1024;
  /// Applied to every shard (data directory, fsync policy, commit window).
  ShardOptions shard;
  /// Nominal runtime for auto-registered simulated tools (DSL projects and
  /// recovery).
  std::int64_t tool_minutes = 120;
};

class Server {
 public:
  /// Binds listeners and starts the accept/worker threads.  At least one
  /// listener must be configured.
  [[nodiscard]] static util::Result<std::unique_ptr<Server>> start(
      ServerConfig config);

  ~Server();  ///< stop()s if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Graceful shutdown; idempotent, callable from any thread except a
  /// worker (the `shutdown` op uses request_stop() instead).
  void stop();

  /// Asynchronous stop request: wakes whoever blocks on stop_event_fd().
  /// Safe from workers and (via the self-pipe pattern) signal contexts.
  void request_stop();

  /// Readable fd that becomes ready once request_stop() was called; poll it
  /// alongside a signal pipe, then call stop().
  [[nodiscard]] int stop_event_fd() const { return stop_pipe_[0]; }
  [[nodiscard]] bool stop_requested() const { return stop_requested_.load(); }

  /// Actual TCP port (differs from config when 0 was requested); -1 without
  /// a TCP listener.
  [[nodiscard]] int tcp_port() const { return tcp_port_; }
  /// Connectable address strings.
  [[nodiscard]] std::string unix_address() const;
  [[nodiscard]] std::string tcp_address() const;

  /// {"server": {...counters...}, "shards": [...], "totals": {...}} — the
  /// same document the `stats` wire op returns.
  [[nodiscard]] util::Json stats_json();

  [[nodiscard]] std::size_t active_sessions() const {
    return active_sessions_.load();
  }

  /// Registry lookup for tests (nullptr when absent).  The pointer stays
  /// valid until `close`/stop().
  [[nodiscard]] ProjectShard* find_shard(const std::string& name);

  /// The shard options every `open` op uses (so pre-opened shards match).
  [[nodiscard]] const ShardOptions& config_shard() const { return config_.shard; }

  /// Registers an externally created shard (herc_srv --open).  Replaces any
  /// existing shard of the same name.
  void adopt_shard(std::unique_ptr<ProjectShard> shard);

 private:
  /// One connection.  The fd closes with the LAST reference (registry or an
  /// in-flight job), so a worker's response write can never hit a recycled
  /// fd; `open` flips off first, making late writes no-ops.
  struct Session {
    ~Session();
    int fd = -1;
    std::uint64_t id = 0;
    std::mutex write_mu;
    std::atomic<bool> open{true};
  };

  struct Job {
    std::shared_ptr<Session> session;
    wire::Request request;
  };

  explicit Server(ServerConfig config);

  void accept_main();
  void reader_main(std::shared_ptr<Session> session);
  void worker_main();
  /// Executes one request and writes its response: project reads on the
  /// session's reader thread, everything else on a worker.
  void handle(Session& session, const wire::Request& request);
  /// Server-level ops (empty `project`): ping/open/close/projects/stats/
  /// shutdown.
  [[nodiscard]] wire::Response handle_server_op(const wire::Request& request);
  void send_response(Session& session, const wire::Response& response);

  ServerConfig config_;
  int listen_fds_[2] = {-1, -1};  ///< [0] unix, [1] tcp (unused = -1)
  int tcp_port_ = -1;
  int stop_pipe_[2] = {-1, -1};

  std::mutex sessions_mu_;
  std::vector<std::shared_ptr<Session>> sessions_;  ///< currently connected
  /// Every reader thread ever started; finished ones join instantly at
  /// stop() (readers remove their session from sessions_ themselves).
  std::vector<std::thread> reader_threads_;
  std::uint64_t next_session_id_ = 1;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable drain_cv_;
  std::deque<Job> queue_;
  int busy_workers_ = 0;
  bool workers_stop_ = false;

  std::mutex shards_mu_;
  std::map<std::string, std::shared_ptr<ProjectShard>> shards_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  ///< guarded by stop_mu_
  std::mutex stop_mu_;

  // Observability (the satellite counters; shards hold the per-shard ones).
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> sessions_total_{0};
  std::atomic<std::uint64_t> active_sessions_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> requests_shed_{0};
  std::atomic<std::int64_t> queue_depth_{0};
};

}  // namespace herc::srv
