#pragma once
// Small blocking client for the herc::srv wire protocol, shared by the CLI
// (`herc remote ...`), the load driver and the tests.  One Client owns one
// connection; it is NOT thread-safe — the load driver gives each simulated
// designer its own Client, which is also how real sessions behave.
//
// call() is the simple RPC form (send, then wait for the matching id).
// send()/recv_any() expose pipelining: queue several requests, then collect
// responses as the server finishes them (in request order).

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "srv/net.hpp"
#include "srv/wire.hpp"

namespace herc::srv {

class Client {
 public:
  /// Connects to "unix:/path" or "tcp:host:port".
  [[nodiscard]] static util::Result<std::unique_ptr<Client>> connect(
      const std::string& address);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request and blocks until ITS response arrives; responses for
  /// other outstanding ids are stashed for recv().  Assigns the id.
  [[nodiscard]] util::Result<wire::Response> call(const std::string& project,
                                                 const std::string& op,
                                                 util::JsonObject args = {});

  /// Fire-and-collect-later: sends, returns the assigned id immediately.
  [[nodiscard]] util::Result<std::uint64_t> send(const std::string& project,
                                                 const std::string& op,
                                                 util::JsonObject args = {});

  /// Next response in arrival order (stashed ones first).
  [[nodiscard]] util::Result<wire::Response> recv_any();

  /// Response for a specific id (reads until it shows up).
  [[nodiscard]] util::Result<wire::Response> recv(std::uint64_t id);

  /// call() + unwrap: a transport error OR an ok=false response both come
  /// back as the error; otherwise the result document.
  [[nodiscard]] util::Result<util::Json> invoke(const std::string& project,
                                                const std::string& op,
                                                util::JsonObject args = {});

 private:
  explicit Client(int fd) : fd_(fd) {}

  [[nodiscard]] util::Result<wire::Response> read_response();

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  wire::FrameReader reader_;
  std::map<std::uint64_t, wire::Response> stashed_;
};

}  // namespace herc::srv
