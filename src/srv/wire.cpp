#include "srv/wire.hpp"

namespace herc::srv::wire {

using util::Json;
using util::JsonObject;

std::string encode_frame(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 16);
  out.push_back('#');
  out += std::to_string(payload.size());
  out.push_back('\n');
  out.append(payload);
  out.push_back('\n');
  return out;
}

void FrameReader::fail(std::string why) {
  broken_ = true;
  error_ = std::move(why);
  buf_.clear();
  pos_ = 0;
}

void FrameReader::feed(std::string_view bytes) {
  if (broken_) return;
  // Compact the consumed prefix before growing, keeping feed() amortized
  // linear regardless of chunking.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes);
}

std::optional<std::string> FrameReader::poll() {
  if (broken_) return std::nullopt;
  std::string_view view(buf_);
  view.remove_prefix(pos_);
  if (view.empty()) return std::nullopt;

  if (view[0] != '#') {
    fail("frame header must start with '#'");
    return std::nullopt;
  }
  std::size_t nl = view.find('\n');
  if (nl == std::string_view::npos) {
    if (view.size() > 32) fail("frame header too long");  // "#<len>" is short
    return std::nullopt;
  }
  std::string_view digits = view.substr(1, nl - 1);
  if (digits.empty() || digits.size() > 8) {
    fail("frame length malformed");
    return std::nullopt;
  }
  std::size_t len = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      fail("frame length malformed");
      return std::nullopt;
    }
    len = len * 10 + static_cast<std::size_t>(c - '0');
  }
  if (len > kMaxFrameBytes) {
    fail("frame exceeds " + std::to_string(kMaxFrameBytes) + " bytes");
    return std::nullopt;
  }
  // Header + payload + trailing newline must all be present.
  if (view.size() < nl + 1 + len + 1) return std::nullopt;
  if (view[nl + 1 + len] != '\n') {
    fail("frame trailer missing");
    return std::nullopt;
  }
  std::string payload(view.substr(nl + 1, len));
  pos_ += nl + 1 + len + 1;
  return payload;
}

// --- requests ----------------------------------------------------------------

Json Request::to_json() const {
  JsonObject o;
  o.set("id", static_cast<std::int64_t>(id));
  o.set("project", project);
  o.set("op", op);
  o.set("args", Json(args));
  return Json(std::move(o));
}

util::Result<Request> Request::from_json(const Json& json) {
  if (!json.is_object()) return util::parse_error("request: not a JSON object");
  const JsonObject& o = json.as_object();
  Request r;
  if (!o.contains("id") || !o.at("id").is_int())
    return util::parse_error("request: missing integer 'id'");
  r.id = static_cast<std::uint64_t>(o.at("id").as_int());
  if (!o.contains("op") || !o.at("op").is_string())
    return util::parse_error("request: missing string 'op'");
  r.op = o.at("op").as_string();
  if (o.contains("project")) {
    if (!o.at("project").is_string())
      return util::parse_error("request: 'project' must be a string");
    r.project = o.at("project").as_string();
  }
  if (o.contains("args")) {
    if (!o.at("args").is_object())
      return util::parse_error("request: 'args' must be an object");
    r.args = o.at("args").as_object();
  }
  return r;
}

std::string Request::encode() const { return encode_frame(to_json().dump(-1)); }

util::Result<Request> Request::parse(std::string_view payload) {
  auto parsed = Json::parse(payload);
  if (!parsed.ok())
    return util::parse_error("request: " + parsed.error().message);
  return from_json(parsed.value());
}

// --- responses ---------------------------------------------------------------

Response Response::success(std::uint64_t id, Json result) {
  Response r;
  r.id = id;
  r.ok = true;
  r.result = std::move(result);
  return r;
}

Response Response::failure(std::uint64_t id, util::Error error) {
  Response r;
  r.id = id;
  r.ok = false;
  r.error = std::move(error);
  return r;
}

Json Response::to_json() const {
  JsonObject o;
  o.set("id", static_cast<std::int64_t>(id));
  o.set("ok", ok);
  if (ok) {
    o.set("result", result);
  } else {
    JsonObject e;
    e.set("code", error_code_name(error.code));
    e.set("message", error.message);
    o.set("error", Json(std::move(e)));
  }
  return Json(std::move(o));
}

util::Result<Response> Response::from_json(const Json& json) {
  if (!json.is_object()) return util::parse_error("response: not a JSON object");
  const JsonObject& o = json.as_object();
  Response r;
  if (!o.contains("id") || !o.at("id").is_int())
    return util::parse_error("response: missing integer 'id'");
  r.id = static_cast<std::uint64_t>(o.at("id").as_int());
  if (!o.contains("ok") || !o.at("ok").is_bool())
    return util::parse_error("response: missing bool 'ok'");
  r.ok = o.at("ok").as_bool();
  if (r.ok) {
    if (o.contains("result")) r.result = o.at("result");
  } else {
    if (!o.contains("error") || !o.at("error").is_object())
      return util::parse_error("response: failure without 'error' object");
    const JsonObject& e = o.at("error").as_object();
    if (!e.contains("code") || !e.at("code").is_string() ||
        !e.contains("message") || !e.at("message").is_string())
      return util::parse_error("response: 'error' needs string code and message");
    r.error.code = error_code_from_name(e.at("code").as_string());
    r.error.message = e.at("message").as_string();
  }
  return r;
}

std::string Response::encode() const { return encode_frame(to_json().dump(-1)); }

util::Result<Response> Response::parse(std::string_view payload) {
  auto parsed = Json::parse(payload);
  if (!parsed.ok())
    return util::parse_error("response: " + parsed.error().message);
  return from_json(parsed.value());
}

// --- error codes -------------------------------------------------------------

const char* error_code_name(util::Error::Code code) {
  using Code = util::Error::Code;
  switch (code) {
    case Code::kParse: return "parse";
    case Code::kNotFound: return "not_found";
    case Code::kInvalid: return "invalid";
    case Code::kUnbound: return "unbound";
    case Code::kConflict: return "conflict";
    case Code::kUnsupported: return "unsupported";
    case Code::kIoError: return "io_error";
  }
  return "invalid";
}

util::Error::Code error_code_from_name(std::string_view name) {
  using Code = util::Error::Code;
  if (name == "parse") return Code::kParse;
  if (name == "not_found") return Code::kNotFound;
  if (name == "unbound") return Code::kUnbound;
  if (name == "conflict") return Code::kConflict;
  if (name == "unsupported") return Code::kUnsupported;
  if (name == "io_error") return Code::kIoError;
  return Code::kInvalid;
}

}  // namespace herc::srv::wire
