#include "srv/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace herc::srv {

namespace {

using util::Error;
using util::Json;
using util::JsonObject;
using util::Result;
using util::Status;

/// Required string member of an op's args.
Result<std::string> arg_string(const JsonObject& args, const std::string& key) {
  if (!args.contains(key) || !args.at(key).is_string()) {
    return Error{Error::Code::kInvalid, "missing string arg '" + key + "'"};
  }
  return args.at(key).as_string();
}

}  // namespace

Server::Session::~Session() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Result<std::unique_ptr<Server>> Server::start(ServerConfig config) {
  if (config.unix_path.empty() && config.tcp_port < 0) {
    return Error{Error::Code::kInvalid, "server: no listener configured"};
  }
  if (config.workers < 1) config.workers = 1;
  auto server = std::unique_ptr<Server>(new Server(std::move(config)));

  if (::pipe(server->stop_pipe_) != 0) {
    return Error{Error::Code::kInvalid, "server: pipe() failed"};
  }

  if (!server->config_.unix_path.empty()) {
    net::Address addr;
    addr.kind = net::Address::Kind::kUnix;
    addr.path = server->config_.unix_path;
    auto fd = net::listen_on(addr);
    if (!fd.ok()) return fd.error();
    server->listen_fds_[0] = fd.value();
  }
  if (server->config_.tcp_port >= 0) {
    net::Address addr;
    addr.kind = net::Address::Kind::kTcp;
    addr.host = server->config_.tcp_host;
    addr.port = server->config_.tcp_port;
    auto fd = net::listen_on(addr);
    if (!fd.ok()) return fd.error();
    server->listen_fds_[1] = fd.value();
    auto port = net::bound_port(fd.value());
    if (!port.ok()) return port.error();
    server->tcp_port_ = port.value();
  }

  for (int i = 0; i < server->config_.workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->worker_main(); });
  }
  server->accept_thread_ = std::thread([s = server.get()] { s->accept_main(); });
  return server;
}

Server::~Server() {
  stop();
  for (int fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

std::string Server::unix_address() const {
  return config_.unix_path.empty() ? std::string() : "unix:" + config_.unix_path;
}

std::string Server::tcp_address() const {
  if (tcp_port_ < 0) return {};
  return "tcp:" + config_.tcp_host + ":" + std::to_string(tcp_port_);
}

void Server::request_stop() {
  if (stop_requested_.exchange(true)) return;
  char byte = 's';
  // Best effort: the pipe only wakes pollers; stop_requested_ is the truth.
  [[maybe_unused]] auto n = ::write(stop_pipe_[1], &byte, 1);
}

void Server::accept_main() {
  while (!stopping_.load()) {
    pollfd fds[3];
    nfds_t n = 0;
    int index_of[2] = {-1, -1};
    for (int i = 0; i < 2; ++i) {
      if (listen_fds_[i] >= 0) {
        fds[n] = {listen_fds_[i], POLLIN, 0};
        index_of[i] = static_cast<int>(n);
        ++n;
      }
    }
    fds[n++] = {stop_pipe_[0], POLLIN, 0};

    int rc = ::poll(fds, n, 250);
    if (stopping_.load()) break;
    if (rc <= 0) continue;

    for (int i = 0; i < 2; ++i) {
      if (index_of[i] < 0 || (fds[index_of[i]].revents & POLLIN) == 0) continue;
      int client = ::accept(listen_fds_[i], nullptr, nullptr);
      if (client < 0) continue;
      auto session = std::make_shared<Session>();
      session->fd = client;
      std::vector<std::thread> finished;
      {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        if (stopping_.load()) continue;  // ~Session closes the fd
        finished.swap(finished_readers_);
        session->id = next_session_id_++;
        sessions_.push_back(session);
        reader_threads_.emplace(session->id,
                                std::thread([this, session] { reader_main(session); }));
      }
      for (auto& reader : finished) reader.join();
      sessions_total_.fetch_add(1);
      active_sessions_.fetch_add(1);
    }
  }
}

void Server::reader_main(std::shared_ptr<Session> session) {
  wire::FrameReader reader;
  std::string chunk;
  for (;;) {
    chunk.clear();
    auto n = net::recv_some(session->fd, chunk);
    if (!n.ok() || n.value() == 0) break;  // error or clean EOF / shutdown
    reader.feed(chunk);
    while (auto payload = reader.poll()) {
      auto request = wire::Request::parse(*payload);
      if (!request.ok()) {
        // Well-framed but unparseable: answer (id 0 — we could not read one)
        // and keep the connection.
        protocol_errors_.fetch_add(1);
        send_response(*session, wire::Response::failure(0, request.error()));
        continue;
      }
      // A read runs to completion here, on a pinned epoch: it needs no shard
      // lock, so a hand-off to a worker would gain it nothing.  The next
      // frame is parsed only after it is answered, so a connection has at
      // most one read in flight and reads never count against the queue.
      if (!request.value().project.empty() &&
          ProjectShard::is_read_op(request.value().op)) {
        handle(*session, request.value());
        continue;
      }
      bool shed = false;
      std::uint64_t request_id = 0;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        // Overload shedding: past the bound the request is answered (not
        // queued) with a retryable error, from the reader thread — the
        // worker pool never sees it, so a storm cannot grow the queue or
        // its memory without limit.
        if (queue_.size() >= config_.max_queue_depth) {
          shed = true;
          request_id = request.value().id;
        } else {
          queue_.push_back(Job{session, std::move(request).take()});
          queue_depth_.store(static_cast<std::int64_t>(queue_.size()));
        }
      }
      if (shed) {
        requests_shed_.fetch_add(1);
        send_response(
            *session,
            wire::Response::failure(
                request_id,
                util::overloaded("server queue full (" +
                                 std::to_string(config_.max_queue_depth) +
                                 " requests pending); retry after backoff")));
        continue;
      }
      queue_cv_.notify_one();
    }
    if (reader.broken()) {
      // Framing violations are connection-fatal: stop writes and slam the
      // connection shut so the peer sees EOF.
      protocol_errors_.fetch_add(1);
      session->open.store(false);
      ::shutdown(session->fd, SHUT_RDWR);
      break;
    }
  }
  // Deregister.  On a clean EOF `open` stays true: responses for requests
  // this connection already queued are still written (the graceful-shutdown
  // drain depends on that); the fd closes with the last shared_ptr.  This
  // thread's handle goes to the finished list for accept_main to join,
  // unless stop() has already taken it.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    std::erase(sessions_, session);
    if (auto self = reader_threads_.extract(session->id))
      finished_readers_.push_back(std::move(self.mapped()));
  }
  active_sessions_.fetch_sub(1);
}

void Server::worker_main() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return workers_stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (workers_stop_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.store(static_cast<std::int64_t>(queue_.size()));
      ++busy_workers_;
    }
    handle(*job.session, job.request);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --busy_workers_;
      if (queue_.empty() && busy_workers_ == 0) drain_cv_.notify_all();
    }
  }
}

void Server::handle(Session& session, const wire::Request& request) {
  requests_total_.fetch_add(1);
  wire::Response response;
  if (request.project.empty()) {
    response = handle_server_op(request);
  } else {
    std::shared_ptr<ProjectShard> shard;
    {
      std::lock_guard<std::mutex> lock(shards_mu_);
      auto it = shards_.find(request.project);
      if (it != shards_.end()) shard = it->second;
    }
    if (!shard) {
      response = wire::Response::failure(
          request.id, Error{Error::Code::kNotFound,
                            "no open project '" + request.project + "'"});
    } else {
      response = shard->apply(request);
    }
  }
  send_response(session, response);
}

wire::Response Server::handle_server_op(const wire::Request& request) {
  const auto& op = request.op;
  if (op == "ping") {
    JsonObject result;
    result.set("pong", true);
    return wire::Response::success(request.id, Json(std::move(result)));
  }
  if (op == "projects") {
    util::JsonArray names;
    {
      std::lock_guard<std::mutex> lock(shards_mu_);
      for (const auto& [name, shard] : shards_) names.emplace_back(name);
    }
    JsonObject result;
    result.set("projects", Json(std::move(names)));
    return wire::Response::success(request.id, Json(std::move(result)));
  }
  if (op == "stats") {
    return wire::Response::success(request.id, stats_json());
  }
  if (op == "shutdown") {
    request_stop();
    JsonObject result;
    result.set("stopping", true);
    return wire::Response::success(request.id, Json(std::move(result)));
  }
  if (op == "open") {
    auto name = arg_string(request.args, "name");
    if (!name.ok()) return wire::Response::failure(request.id, name.error());
    std::lock_guard<std::mutex> lock(shards_mu_);
    if (shards_.count(name.value()) != 0) {
      return wire::Response::failure(
          request.id, Error{Error::Code::kConflict,
                            "project '" + name.value() + "' already open"});
    }
    Result<std::unique_ptr<ProjectShard>> shard =
        Error{Error::Code::kInvalid,
              "open: args need one of scenario / scenario_seed / schema / recover"};
    if (request.args.contains("scenario")) {
      auto scenario = gen::scenario_from_json(request.args.at("scenario"));
      if (!scenario.ok()) {
        return wire::Response::failure(request.id, scenario.error());
      }
      shard = ProjectShard::create(name.value(), scenario.value(), config_.shard);
    } else if (request.args.contains("scenario_seed")) {
      const Json& seed = request.args.at("scenario_seed");
      if (!seed.is_int()) {
        return wire::Response::failure(
            request.id,
            Error{Error::Code::kInvalid, "scenario_seed must be an integer"});
      }
      gen::ScenarioSpec spec;
      spec.seed = static_cast<std::uint64_t>(seed.as_int());
      if (request.args.contains("shape") && request.args.at("shape").is_string()) {
        auto shape = gen::parse_shape(request.args.at("shape").as_string());
        if (!shape.ok()) return wire::Response::failure(request.id, shape.error());
        spec.shape = shape.value();
      }
      if (request.args.contains("size") && request.args.at("size").is_int()) {
        spec.size = static_cast<std::size_t>(request.args.at("size").as_int());
      }
      shard = ProjectShard::create(name.value(), gen::generate(spec), config_.shard);
    } else if (request.args.contains("schema")) {
      auto schema = arg_string(request.args, "schema");
      if (!schema.ok()) return wire::Response::failure(request.id, schema.error());
      shard = ProjectShard::create_from_dsl(name.value(), schema.value(),
                                            config_.tool_minutes, config_.shard);
    } else if (request.args.contains("recover") &&
               request.args.at("recover").is_bool() &&
               request.args.at("recover").as_bool()) {
      shard = ProjectShard::recover(name.value(), config_.tool_minutes,
                                    config_.shard);
    }
    if (!shard.ok()) return wire::Response::failure(request.id, shard.error());
    JsonObject result;
    result.set("project", name.value());
    result.set("snapshot", shard.value()->snapshot_path());
    shards_.emplace(name.value(),
                    std::shared_ptr<ProjectShard>(std::move(shard).take()));
    return wire::Response::success(request.id, Json(std::move(result)));
  }
  if (op == "close") {
    auto name = arg_string(request.args, "name");
    if (!name.ok()) return wire::Response::failure(request.id, name.error());
    std::shared_ptr<ProjectShard> shard;
    {
      std::lock_guard<std::mutex> lock(shards_mu_);
      auto it = shards_.find(name.value());
      if (it == shards_.end()) {
        return wire::Response::failure(
            request.id, Error{Error::Code::kNotFound,
                              "no open project '" + name.value() + "'"});
      }
      shard = std::move(it->second);
      shards_.erase(it);
    }
    // In-flight requests still hold a reference; they finish against the
    // detached shard.  The final commit+snapshot happens here.
    Status status = shard->shutdown();
    if (!status.ok()) return wire::Response::failure(request.id, status.error());
    JsonObject result;
    result.set("closed", name.value());
    return wire::Response::success(request.id, Json(std::move(result)));
  }
  return wire::Response::failure(
      request.id, Error{Error::Code::kInvalid, "unknown server op '" + op + "'"});
}

void Server::send_response(Session& session, const wire::Response& response) {
  if (!session.open.load()) return;
  std::string frame = response.encode();
  std::lock_guard<std::mutex> lock(session.write_mu);
  // Send failures just mean the peer vanished; the reader notices EOF.
  [[maybe_unused]] auto status = net::send_all(session.fd, frame);
}

Json Server::stats_json() {
  JsonObject server;
  server.set("workers", Json(static_cast<std::int64_t>(config_.workers)));
  server.set("srv_requests", Json(static_cast<std::int64_t>(requests_total_.load())));
  server.set("srv_sessions_total",
             Json(static_cast<std::int64_t>(sessions_total_.load())));
  server.set("srv_active_sessions",
             Json(static_cast<std::int64_t>(active_sessions_.load())));
  server.set("srv_protocol_errors",
             Json(static_cast<std::int64_t>(protocol_errors_.load())));
  server.set("srv_requests_shed",
             Json(static_cast<std::int64_t>(requests_shed_.load())));
  server.set("srv_queue_depth", Json(queue_depth_.load()));
  server.set("srv_queue_limit",
             Json(static_cast<std::int64_t>(config_.max_queue_depth)));

  util::JsonArray shard_stats;
  std::int64_t total_requests = 0;
  std::int64_t total_commits = 0;
  std::int64_t total_lines = 0;
  std::int64_t shards_read_only = 0;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    for (const auto& [name, shard] : shards_) {
      if (shard->read_only()) ++shards_read_only;
      Json stats = shard->stats_json();
      const JsonObject& obj = stats.as_object();
      if (obj.contains("srv_requests")) {
        total_requests += obj.at("srv_requests").as_int();
      }
      if (obj.contains("journal_lines")) {
        total_lines += obj.at("journal_lines").as_int();
      }
      if (obj.contains("group_commit")) {
        const JsonObject& gc = obj.at("group_commit").as_object();
        if (gc.contains("srv_group_commits")) {
          total_commits += gc.at("srv_group_commits").as_int();
        }
      }
      shard_stats.push_back(std::move(stats));
    }
  }
  JsonObject totals;
  totals.set("shards", Json(static_cast<std::int64_t>(shard_stats.size())));
  totals.set("shards_read_only", Json(shards_read_only));
  totals.set("shard_requests", Json(total_requests));
  totals.set("srv_group_commits", Json(total_commits));
  totals.set("journal_lines", Json(total_lines));

  JsonObject out;
  out.set("server", Json(std::move(server)));
  out.set("totals", Json(std::move(totals)));
  out.set("shards", Json(std::move(shard_stats)));
  return Json(std::move(out));
}

void Server::adopt_shard(std::unique_ptr<ProjectShard> shard) {
  std::lock_guard<std::mutex> lock(shards_mu_);
  std::string name = shard->name();
  shards_[name] = std::shared_ptr<ProjectShard>(std::move(shard));
}

ProjectShard* Server::find_shard(const std::string& name) {
  std::lock_guard<std::mutex> lock(shards_mu_);
  auto it = shards_.find(name);
  return it == shards_.end() ? nullptr : it->second.get();
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  request_stop();
  stopping_.store(true);

  // 1. No new connections.
  if (accept_thread_.joinable()) accept_thread_.join();
  for (int& fd : listen_fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());

  // 2. No new requests: shut the read side of every session.  Readers see
  // EOF after parsing whatever already arrived, so nothing parsed is lost —
  // and the write side stays open for the drain's responses.  A reader
  // answers its reads itself, so once it is joined its reads are done.
  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions = sessions_;
    readers.swap(finished_readers_);
    for (auto& [id, reader] : reader_threads_) readers.push_back(std::move(reader));
    reader_threads_.clear();
  }
  for (auto& session : sessions) ::shutdown(session->fd, SHUT_RD);
  for (auto& reader : readers) {
    if (reader.joinable()) reader.join();
  }

  // 3. Drain: every parsed request executes and is answered.
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drain_cv_.wait(lock, [this] { return queue_.empty() && busy_workers_ == 0; });
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // 4. Per shard: final group commit (fsynced) + clean snapshot.
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    for (auto& [name, shard] : shards_) {
      [[maybe_unused]] Status status = shard->shutdown();
    }
    shards_.clear();
  }

  // 5. Now responses are all written; dropping the last references closes
  // the sockets (~Session).
  sessions.clear();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.clear();
  }
}

}  // namespace herc::srv
