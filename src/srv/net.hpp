#pragma once
// Thin POSIX socket helpers shared by the server, the client library and the
// load driver.  Addresses are spelled as strings so tools and the CLI can
// pass them through unchanged:
//
//   unix:/path/to/socket     unix-domain stream socket
//   tcp:HOST:PORT            IPv4 TCP (HOST may be a name or dotted quad)
//
// All functions return plain file descriptors; ownership is the caller's
// (the server wraps them in RAII sessions).  Sockets are blocking; the
// server uses poll() for accept wakeup and relies on close() from another
// thread to break a blocked read at shutdown.

#include <cstdint>
#include <string>

#include "util/result.hpp"

namespace herc::srv::net {

/// A parsed listen/connect address.
struct Address {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  ///< unix socket path
  std::string host;  ///< tcp host
  int port = 0;      ///< tcp port (0 = ephemeral when listening)

  [[nodiscard]] std::string str() const;
};

/// Parses "unix:..." / "tcp:host:port"; kParse on anything else.
[[nodiscard]] util::Result<Address> parse_address(const std::string& text);

/// Listening socket (backlog applied).  For tcp with port 0 the kernel picks
/// a free port; bound_port() reports it.
[[nodiscard]] util::Result<int> listen_on(const Address& address, int backlog = 64);

/// The local port of a bound TCP socket (getsockname).
[[nodiscard]] util::Result<int> bound_port(int fd);

/// Blocking connect.
[[nodiscard]] util::Result<int> connect_to(const Address& address);

/// Writes all of `data` (loops over partial writes, retries EINTR).
[[nodiscard]] util::Status send_all(int fd, std::string_view data);

/// Reads what has arrived, up to 64 KiB, and appends it to `out`.  Returns
/// the byte count; 0 = clean EOF.  kInvalid on socket errors.
[[nodiscard]] util::Result<std::size_t> recv_some(int fd, std::string& out);

}  // namespace herc::srv::net
