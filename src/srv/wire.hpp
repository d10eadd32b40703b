#pragma once
// herc::srv wire protocol: framed JSON requests/responses.
//
// A connection carries a sequence of frames in each direction.  One frame is
//
//   '#' <decimal byte length of payload> '\n' <payload bytes> '\n'
//
// where the payload is one compact JSON object.  The explicit length makes
// framing independent of payload content (newlines inside JSON strings
// cannot split a frame) and lets a reader reject oversized or garbage input
// before buffering it; the trailing newline is a cheap integrity check and
// keeps captured streams greppable.
//
// Requests:  {"id": N, "project": "p", "op": "execute", "args": {...}}
//   `id` is chosen by the client and echoed verbatim in the response, so
//   clients may pipeline requests and match responses by id.  The server
//   answers one connection's requests in the order it received them.
//   `project` is empty for server-level ops (ping/open/projects/stats/...).
//   The ops and their args are listed in srv/op.hpp.
// Responses: {"id": N, "ok": true,  "result": {...}}
//          | {"id": N, "ok": false, "error": {"code": "...", "message": "..."}}
//
// Framing errors (bad header, oversize, torn trailer, non-JSON payload) are
// unrecoverable for the connection: the reader latches broken() and the
// server closes the socket.  Malformed but well-framed requests (missing
// fields or wrong types, in the request document or in an op's args, and
// unknown ops) get an error RESPONSE instead — the connection survives.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/json.hpp"
#include "util/result.hpp"

namespace herc::srv::wire {

/// Upper bound on one frame's payload; a header announcing more is a
/// protocol violation (protects the server from absurd allocations).
inline constexpr std::size_t kMaxFrameBytes = 8u * 1024 * 1024;

/// Wraps a payload in the frame header/trailer.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Incremental frame decoder: feed() arbitrary byte chunks, poll() complete
/// payloads.  Any framing violation latches broken(); poll() then always
/// returns nullopt and the connection must be dropped.
class FrameReader {
 public:
  void feed(std::string_view bytes);

  /// Next complete payload, or nullopt if more bytes are needed (or the
  /// stream is broken).
  [[nodiscard]] std::optional<std::string> poll();

  [[nodiscard]] bool broken() const { return broken_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Bytes buffered but not yet consumed (diagnostics).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  void fail(std::string why);

  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_, compacted lazily
  bool broken_ = false;
  std::string error_;
};

/// One client request.
struct Request {
  std::uint64_t id = 0;
  std::string project;    ///< empty for server-level ops
  std::string op;
  util::JsonObject args;  ///< op-specific payload; may be empty

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static util::Result<Request> from_json(const util::Json& json);
  /// Frame-encoded compact JSON, ready to write to a socket.
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static util::Result<Request> parse(std::string_view payload);
};

/// One server response.
struct Response {
  std::uint64_t id = 0;
  bool ok = true;
  util::Json result;  ///< object; meaningful when ok
  util::Error error;  ///< meaningful when !ok

  [[nodiscard]] static Response success(std::uint64_t id, util::Json result);
  [[nodiscard]] static Response failure(std::uint64_t id, util::Error error);

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static util::Result<Response> from_json(const util::Json& json);
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static util::Result<Response> parse(std::string_view payload);
};

/// Stable wire names for error codes ("parse", "not_found", ...).
[[nodiscard]] const char* error_code_name(util::Error::Code code);
[[nodiscard]] util::Error::Code error_code_from_name(std::string_view name);

}  // namespace herc::srv::wire
