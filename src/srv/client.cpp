#include "srv/client.hpp"

#include <unistd.h>

#include <utility>

namespace herc::srv {

using util::Error;
using util::Json;
using util::JsonObject;
using util::Result;

Result<std::unique_ptr<Client>> Client::connect(const std::string& address) {
  auto parsed = net::parse_address(address);
  if (!parsed.ok()) return parsed.error();
  auto fd = net::connect_to(parsed.value());
  if (!fd.ok()) return fd.error();
  return std::unique_ptr<Client>(new Client(fd.value()));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::uint64_t> Client::send(const std::string& project,
                                   const std::string& op, JsonObject args) {
  wire::Request request;
  request.id = next_id_++;
  request.project = project;
  request.op = op;
  request.args = std::move(args);
  auto status = net::send_all(fd_, request.encode());
  if (!status.ok()) return status.error();
  return request.id;
}

Result<wire::Response> Client::recv_any() {
  std::string chunk;
  for (;;) {
    if (auto payload = reader_.poll()) {
      auto response = wire::Response::parse(*payload);
      if (!response.ok()) return response.error();
      return std::move(response).take();
    }
    if (reader_.broken()) {
      return Error{Error::Code::kParse, "client: " + reader_.error()};
    }
    chunk.clear();
    auto n = net::recv_some(fd_, chunk);
    if (!n.ok()) return n.error();
    if (n.value() == 0) {
      return Error{Error::Code::kUnbound, "client: server closed connection"};
    }
    reader_.feed(chunk);
  }
}

Result<wire::Response> Client::call(const std::string& project,
                                    const std::string& op, JsonObject args) {
  auto id = send(project, op, std::move(args));
  if (!id.ok()) return id.error();
  // The server answers a connection's requests in order, so the next
  // response is this request's unless an earlier one was never collected.
  auto response = recv_any();
  if (response.ok() && response.value().id != id.value()) {
    return Error{Error::Code::kParse,
                 "client: response id " + std::to_string(response.value().id) +
                     " does not answer request id " + std::to_string(id.value())};
  }
  return response;
}

Result<Json> Client::invoke(const std::string& project, const std::string& op,
                            JsonObject args) {
  auto response = call(project, op, std::move(args));
  if (!response.ok()) return response.error();
  if (!response.value().ok) return response.value().error;
  return std::move(response.value().result);
}

}  // namespace herc::srv
