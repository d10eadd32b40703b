#include "srv/net.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace herc::srv::net {

namespace {

util::Error sys_error(const std::string& what) {
  return util::invalid(what + ": " + std::strerror(errno));
}

}  // namespace

std::string Address::str() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

util::Result<Address> parse_address(const std::string& text) {
  Address a;
  if (text.rfind("unix:", 0) == 0) {
    a.kind = Address::Kind::kUnix;
    a.path = text.substr(5);
    if (a.path.empty()) return util::parse_error("address: empty unix path");
    if (a.path.size() >= sizeof(sockaddr_un{}.sun_path))
      return util::parse_error("address: unix path too long");
    return a;
  }
  if (text.rfind("tcp:", 0) == 0) {
    a.kind = Address::Kind::kTcp;
    std::string rest = text.substr(4);
    std::size_t colon = rest.find_last_of(':');
    if (colon == std::string::npos || colon + 1 == rest.size())
      return util::parse_error("address: expected tcp:host:port");
    a.host = rest.substr(0, colon);
    if (a.host.empty()) a.host = "127.0.0.1";
    try {
      a.port = std::stoi(rest.substr(colon + 1));
    } catch (const std::exception&) {
      return util::parse_error("address: bad tcp port");
    }
    if (a.port < 0 || a.port > 65535)
      return util::parse_error("address: tcp port out of range");
    return a;
  }
  return util::parse_error("address: expected unix:<path> or tcp:<host>:<port>");
}

util::Result<int> listen_on(const Address& address, int backlog) {
  if (address.kind == Address::Kind::kUnix) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return sys_error("socket(unix)");
    // A previous server instance's socket file would make bind fail.
    ::unlink(address.path.c_str());
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, address.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      auto err = sys_error("bind(" + address.path + ")");
      ::close(fd);
      return err;
    }
    if (::listen(fd, backlog) != 0) {
      auto err = sys_error("listen(" + address.path + ")");
      ::close(fd);
      return err;
    }
    return fd;
  }

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return sys_error("socket(tcp)");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(address.port));
  sa.sin_addr.s_addr =
      address.host.empty() || address.host == "0.0.0.0"
          ? INADDR_ANY
          : inet_addr(address.host == "localhost" ? "127.0.0.1"
                                                  : address.host.c_str());
  if (sa.sin_addr.s_addr == INADDR_NONE)
    return util::invalid("listen: cannot resolve host '" + address.host + "'");
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    auto err = sys_error("bind(tcp:" + std::to_string(address.port) + ")");
    ::close(fd);
    return err;
  }
  if (::listen(fd, backlog) != 0) {
    auto err = sys_error("listen(tcp)");
    ::close(fd);
    return err;
  }
  return fd;
}

util::Result<int> bound_port(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0)
    return sys_error("getsockname");
  return static_cast<int>(ntohs(sa.sin_port));
}

util::Result<int> connect_to(const Address& address) {
  if (address.kind == Address::Kind::kUnix) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return sys_error("socket(unix)");
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, address.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      auto err = sys_error("connect(" + address.path + ")");
      ::close(fd);
      return err;
    }
    return fd;
  }

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(address.port);
  const char* host = address.host.empty() ? "127.0.0.1" : address.host.c_str();
  if (::getaddrinfo(host, port.c_str(), &hints, &res) != 0 || res == nullptr)
    return util::invalid("connect: cannot resolve '" + address.host + "'");
  int fd = ::socket(res->ai_family, res->ai_socktype | SOCK_CLOEXEC,
                    res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    return sys_error("socket(tcp)");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0) {
    auto err = sys_error("connect(" + address.str() + ")");
    ::close(fd);
    return err;
  }
  return fd;
}

util::Status send_all(int fd, std::string_view data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return sys_error("send");
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return util::Status::ok_status();
}

util::Result<std::size_t> recv_some(int fd, std::string& out) {
  char chunk[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return sys_error("recv");
    }
    out.append(chunk, static_cast<std::size_t>(n));
    return static_cast<std::size_t>(n);
  }
}

}  // namespace herc::srv::net
