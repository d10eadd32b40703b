#pragma once
// Small blocking client for the herc::srv wire protocol, shared by the CLI
// (`herc remote ...`), the load driver and the tests.  One Client owns one
// connection; it is NOT thread-safe — the load driver gives each simulated
// designer its own Client, which is also how real sessions behave.
//
// call() is the simple RPC form: send, then read the next response, which
// must carry the request's id.  send()/recv_any() expose pipelining: queue
// several requests, then collect their responses, which the server returns
// in request order.  A call() behind a sent request whose response was not
// collected reads that response and is refused with kParse.

#include <cstdint>
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

  /// Sends one request and reads the next response.  Assigns the id; a
  /// response with another id is refused with kParse, naming both ids.
  [[nodiscard]] util::Result<wire::Response> call(const std::string& project,
                                                 const std::string& op,
                                                 util::JsonObject args = {});

  /// Fire-and-collect-later: sends, returns the assigned id immediately.
  [[nodiscard]] util::Result<std::uint64_t> send(const std::string& project,
                                                 const std::string& op,
                                                 util::JsonObject args = {});

  /// The next response.
  [[nodiscard]] util::Result<wire::Response> recv_any();

  /// call() + unwrap: a transport error OR an ok=false response both come
  /// back as the error; otherwise the result document.
  [[nodiscard]] util::Result<util::Json> invoke(const std::string& project,
                                                const std::string& op,
                                                util::JsonObject args = {});

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  wire::FrameReader reader_;
};

}  // namespace herc::srv
