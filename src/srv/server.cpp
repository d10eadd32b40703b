#include "srv/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace herc::srv {

using util::Error;
using util::Json;
using util::JsonObject;
using util::Result;
using util::Status;

Server::Session::~Session() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Result<std::unique_ptr<Server>> Server::start(ServerConfig config) {
  if (config.unix_path.empty() && config.tcp_port < 0) {
    return Error{Error::Code::kInvalid, "server: no listener configured"};
  }
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
    // Each request runs to completion and is answered before the next frame
    // is parsed: responses keep request order, and a request pipelined
    // behind a write sees that write.
    while (auto payload = reader.poll()) {
      auto request = wire::Request::parse(*payload);
      if (!request.ok()) {
        // Well-framed but unparseable: answer (id 0 — we could not read one)
        // and keep the connection.
        protocol_errors_.fetch_add(1);
        send_response(*session, wire::Response::failure(0, request.error()));
        continue;
      }
      handle(*session, request.value());
    }
    if (reader.broken()) {
      // Framing violations are connection-fatal: slam the connection shut so
      // the peer sees EOF.
      protocol_errors_.fetch_add(1);
      ::shutdown(session->fd, SHUT_RDWR);
      break;
    }
  }
  // Deregister; the fd closes with the last shared_ptr.  This thread's
  // handle goes to the finished list for accept_main to join, unless stop()
  // has already taken it.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    std::erase(sessions_, session);
    if (auto self = reader_threads_.extract(session->id))
      finished_readers_.push_back(std::move(self.mapped()));
  }
  active_sessions_.fetch_sub(1);
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
  auto parsed = op::parse_server_op(request);
  if (!parsed.ok()) return wire::Response::failure(request.id, parsed.error());
  auto answer = [&](const char* key, Json value) {
    JsonObject result;
    result.set(key, std::move(value));
    return wire::Response::success(request.id, Json(std::move(result)));
  };
  return std::visit(
      op::Overloaded{
          [&](const op::Ping&) { return answer("pong", true); },
          [&](const op::Projects&) {
            util::JsonArray names;
            std::lock_guard<std::mutex> lock(shards_mu_);
            for (const auto& [name, shard] : shards_) names.emplace_back(name);
            return answer("projects", Json(std::move(names)));
          },
          [&](const op::Stats&) { return wire::Response::success(request.id, stats_json()); },
          [&](const op::Shutdown&) {
            request_stop();
            return answer("stopping", true);
          },
          [&](const op::Open& opening) { return handle_open(request.id, opening); },
          [&](const op::Close& closing) {
            std::shared_ptr<ProjectShard> shard;
            {
              std::lock_guard<std::mutex> lock(shards_mu_);
              auto it = shards_.find(closing.name);
              if (it == shards_.end()) {
                return wire::Response::failure(
                    request.id, Error{Error::Code::kNotFound,
                                      "no open project '" + closing.name + "'"});
              }
              shard = std::move(it->second);
              shards_.erase(it);
            }
            // In-flight requests still hold a reference; they finish against
            // the detached shard.  The final commit+snapshot happens here.
            Status status = shard->shutdown();
            if (!status.ok()) return wire::Response::failure(request.id, status.error());
            return answer("closed", closing.name);
          }},
      parsed.value());
}

wire::Response Server::handle_open(std::uint64_t id, const op::Open& opening) {
  // Reserve the name under shards_mu_, then build or recover the shard
  // outside it: every request looks its shard up under that mutex, and none
  // should wait behind another project's recovery.
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    if (shards_.count(opening.name) != 0)
      return wire::Response::failure(
          id, Error{Error::Code::kConflict, "project '" + opening.name + "' already open"});
    if (!opening_.insert(opening.name).second)
      return wire::Response::failure(
          id, Error{Error::Code::kConflict,
                    "project '" + opening.name + "' is being opened"});
  }
  auto shard = std::visit(
      op::Overloaded{
          [&](const gen::Scenario& scenario) {
            return ProjectShard::create(opening.name, scenario, config_.shard);
          },
          [&](const op::Recover&) { return ProjectShard::recover(opening.name, config_.shard); }},
      opening.source);
  std::lock_guard<std::mutex> lock(shards_mu_);
  opening_.erase(opening.name);
  if (!shard.ok()) return wire::Response::failure(id, shard.error());
  JsonObject result;
  result.set("project", opening.name);
  result.set("snapshot", shard.value()->snapshot_path());
  shards_.emplace(opening.name, std::shared_ptr<ProjectShard>(std::move(shard).take()));
  return wire::Response::success(id, Json(std::move(result)));
}

void Server::send_response(Session& session, const wire::Response& response) {
  // Send failures just mean the peer vanished; the reader notices EOF.
  [[maybe_unused]] auto status = net::send_all(session.fd, response.encode());
}

Json Server::stats_json() {
  JsonObject server;
  server.set("srv_requests", Json(static_cast<std::int64_t>(requests_total_.load())));
  server.set("srv_sessions_total",
             Json(static_cast<std::int64_t>(sessions_total_.load())));
  server.set("srv_active_sessions",
             Json(static_cast<std::int64_t>(active_sessions_.load())));
  server.set("srv_protocol_errors",
             Json(static_cast<std::int64_t>(protocol_errors_.load())));

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
  // EOF after parsing whatever already arrived, and the write side stays
  // open, so every request already parsed is still run and answered.  A
  // reader answers its requests itself: once it is joined they are done.
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

  // 3. Per shard: final group commit (fsynced) + clean snapshot.
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    for (auto& [name, shard] : shards_) {
      [[maybe_unused]] Status status = shard->shutdown();
    }
    shards_.clear();
  }

  // 4. Now responses are all written; dropping the last references closes
  // the sockets (~Session).
  sessions.clear();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.clear();
  }
}

}  // namespace herc::srv
