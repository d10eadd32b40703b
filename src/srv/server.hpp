#pragma once
// herc::srv::Server — the multi-project front-end.
//
// Topology:
//
//   listeners (tcp / unix) -> accept thread -> one reader thread per session
//        every request: -> server op, or ProjectShard (read or write lane)
//        -> response written back on the session socket
//
// A session's reader thread parses each request, runs it and answers it
// before it parses the next frame, so responses on one connection return in
// request order and a request pipelined behind a write sees that write.  A
// connection is one designer's ordered session: the server holds at most one
// parsed request per connection, and frames a client sends beyond that wait
// in the socket, so the client's own send buffer applies the backpressure.
// Shards serialize their writes internally (see shard.hpp): writes to
// different projects run in parallel, one per connection, and a project read
// (ProjectShard::is_read_op) runs on a pinned epoch without the shard lock.
// A shard starts no thread: its group committer writes on the thread of a
// request waiting for its ack, so the accept thread and the readers are the
// server's only threads.
//
// Graceful shutdown (stop(), also triggered by the `shutdown` op or a signal
// in tools/herc_srv): stop accepting, shut the read side of every session,
// join the readers — each finishes and answers what it has already parsed —
// then per shard a final group commit + snapshot.  A SIGKILL instead loses
// nothing acknowledged: recovery replays each shard's snapshot + WAL (tests
// assert byte-identity).

#include <atomic>
#include <cstdint>
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
  /// Applied to every shard (data directory, fsync policy).
  ShardOptions shard;
  /// Nominal runtime for auto-registered simulated tools (DSL projects and
  /// recovery).
  std::int64_t tool_minutes = 120;
};

class Server {
 public:
  /// Binds listeners and starts the accept thread.  At least one
  /// listener must be configured.
  [[nodiscard]] static util::Result<std::unique_ptr<Server>> start(
      ServerConfig config);

  ~Server();  ///< stop()s if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Graceful shutdown; idempotent, callable from any thread except a
  /// session's reader (the `shutdown` op uses request_stop() instead).
  void stop();

  /// Asynchronous stop request: wakes whoever blocks on stop_event_fd().
  /// Safe from reader threads and (via the self-pipe pattern) signal
  /// contexts.
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
  /// One connection.  Its reader thread is the only one that writes to it;
  /// the fd closes with the last reference (the reader or the registry), so
  /// stop() can never shut down a recycled fd.
  struct Session {
    ~Session();
    int fd = -1;
    std::uint64_t id = 0;
  };

  explicit Server(ServerConfig config);

  void accept_main();
  void reader_main(std::shared_ptr<Session> session);
  /// Executes one request and writes its response, on the session's reader
  /// thread.
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
  /// Running reader threads by session id.  A reader that ends moves its
  /// own handle to finished_readers_, which accept_main joins before it
  /// starts the next reader; stop() joins both.
  std::map<std::uint64_t, std::thread> reader_threads_;
  std::vector<std::thread> finished_readers_;
  std::uint64_t next_session_id_ = 1;

  std::mutex shards_mu_;
  std::map<std::string, std::shared_ptr<ProjectShard>> shards_;

  std::thread accept_thread_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  ///< guarded by stop_mu_
  std::mutex stop_mu_;

  // Observability (the satellite counters; shards hold the per-shard ones).
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> sessions_total_{0};
  std::atomic<std::uint64_t> active_sessions_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
};

}  // namespace herc::srv
