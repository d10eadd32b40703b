// Wire protocol tests: frame round trips, incremental decoding, a corpus of
// malformed/truncated frames (all must latch broken() without crashing),
// request/response document round trips, and the op vocabulary's parse:
// defaults, required fields and wrong JSON types.

#include "srv/wire.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <variant>

#include "srv/op.hpp"

namespace herc::srv::wire {
namespace {

using util::Error;
using util::Json;
using util::JsonObject;

TEST(Frame, RoundTripSingle) {
  std::string frame = encode_frame("{\"id\":1}");
  EXPECT_EQ(frame, "#8\n{\"id\":1}\n");

  FrameReader reader;
  reader.feed(frame);
  auto payload = reader.poll();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"id\":1}");
  EXPECT_FALSE(reader.poll().has_value());
  EXPECT_FALSE(reader.broken());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Frame, RoundTripMany) {
  std::string stream;
  for (int i = 0; i < 50; ++i) {
    stream += encode_frame("payload-" + std::to_string(i));
  }
  FrameReader reader;
  reader.feed(stream);
  for (int i = 0; i < 50; ++i) {
    auto payload = reader.poll();
    ASSERT_TRUE(payload.has_value()) << i;
    EXPECT_EQ(*payload, "payload-" + std::to_string(i));
  }
  EXPECT_FALSE(reader.poll().has_value());
}

TEST(Frame, ByteAtATime) {
  std::string frame = encode_frame("{\"op\":\"x\",\"nl\":\"a\\nb\"}");
  FrameReader reader;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    reader.feed(frame.substr(i, 1));
    EXPECT_FALSE(reader.poll().has_value()) << "complete too early at " << i;
  }
  reader.feed(frame.substr(frame.size() - 1));
  auto payload = reader.poll();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"op\":\"x\",\"nl\":\"a\\nb\"}");
}

TEST(Frame, PayloadMayContainNewlinesAndHashes) {
  std::string payload = "line1\n#2\nline3\n#999\n";
  FrameReader reader;
  reader.feed(encode_frame(payload) + encode_frame("tail"));
  auto first = reader.poll();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, payload);
  auto second = reader.poll();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "tail");
}

TEST(Frame, EmptyPayload) {
  FrameReader reader;
  reader.feed(encode_frame(""));
  auto payload = reader.poll();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "");
}

// Every entry must latch broken() — no crash, no payload, and the reader
// refuses further work.
TEST(Frame, MalformedCorpus) {
  const char* corpus[] = {
      "x5\nhello\n",        // missing '#'
      "#\nhello\n",         // no digits
      "#5x\nhello\n",       // non-digit in length
      "#-5\nhello\n",       // negative
      "#999999999\nx\n",    // over kMaxFrameBytes
      "#123456789012\nx\n", // over 8 digits
      "#5\nhelloX",         // wrong trailer byte
      "hello",              // garbage, no header at all
  };
  for (const char* bytes : corpus) {
    FrameReader reader;
    reader.feed(bytes);
    // Drain; a malformed stream must never yield a payload after the break.
    while (reader.poll().has_value()) {
    }
    EXPECT_TRUE(reader.broken()) << "corpus entry not rejected: " << bytes;
    EXPECT_FALSE(reader.poll().has_value());
    EXPECT_FALSE(reader.error().empty());
  }
}

TEST(Frame, HeaderWithoutNewlineEventuallyRejected) {
  FrameReader reader;
  reader.feed("#11111111111111111111111111111111111111");  // way past max header
  EXPECT_FALSE(reader.poll().has_value());
  EXPECT_TRUE(reader.broken());
}

TEST(Frame, TruncatedIsPendingNotBroken) {
  FrameReader reader;
  reader.feed("#10\nhalf");  // frame promised 10 bytes, only 4 arrived
  EXPECT_FALSE(reader.poll().has_value());
  EXPECT_FALSE(reader.broken());  // more bytes may still arrive
  reader.feed("-done!");  // completes the 10 payload bytes
  EXPECT_FALSE(reader.poll().has_value());  // trailer still missing
  reader.feed("\n");
  auto payload = reader.poll();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "half-done!");
}

TEST(Frame, BrokenReaderStaysBroken) {
  FrameReader reader;
  reader.feed("garbage");
  EXPECT_FALSE(reader.poll().has_value());
  ASSERT_TRUE(reader.broken());
  reader.feed(encode_frame("valid"));  // too late: the stream is poisoned
  EXPECT_FALSE(reader.poll().has_value());
}

TEST(Request, RoundTrip) {
  Request request;
  request.id = 42;
  request.project = "chip";
  request.op = "execute";
  request.args.set("designer", "pat");
  request.args.set("minutes", Json(30));

  auto parsed = Request::parse(request.to_json().dump(-1));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().id, 42u);
  EXPECT_EQ(parsed.value().project, "chip");
  EXPECT_EQ(parsed.value().op, "execute");
  EXPECT_EQ(parsed.value().args.at("designer").as_string(), "pat");
  EXPECT_EQ(parsed.value().args.at("minutes").as_int(), 30);
}

TEST(Request, EncodeIsFramed) {
  Request request;
  request.id = 7;
  request.op = "ping";
  FrameReader reader;
  reader.feed(request.encode());
  auto payload = reader.poll();
  ASSERT_TRUE(payload.has_value());
  auto parsed = Request::parse(*payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().id, 7u);
  EXPECT_EQ(parsed.value().op, "ping");
}

TEST(Request, MalformedDocuments) {
  // Well-framed garbage: parse() fails but nothing crashes.
  EXPECT_FALSE(Request::parse("{not json").ok());
  EXPECT_FALSE(Request::parse("[1,2,3]").ok());          // not an object
  EXPECT_FALSE(Request::parse("{\"id\":1}").ok());       // missing op
  EXPECT_FALSE(Request::parse("{\"op\":5,\"id\":1}").ok());  // op wrong type
  EXPECT_FALSE(Request::parse("{\"op\":\"x\",\"id\":\"y\"}").ok());  // id wrong type
}

TEST(Response, SuccessRoundTrip) {
  JsonObject result;
  result.set("runs", Json(3));
  auto response = Response::success(9, Json(std::move(result)));
  auto parsed = Response::parse(response.to_json().dump(-1));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().ok);
  EXPECT_EQ(parsed.value().id, 9u);
  EXPECT_EQ(parsed.value().result.as_object().at("runs").as_int(), 3);
}

TEST(Response, FailureRoundTrip) {
  auto response = Response::failure(
      11, Error{Error::Code::kNotFound, "no such task"});
  auto parsed = Response::parse(response.encode().substr(0));
  // encode() is framed; parse the payload via a reader instead.
  FrameReader reader;
  reader.feed(response.encode());
  auto payload = reader.poll();
  ASSERT_TRUE(payload.has_value());
  parsed = Response::parse(*payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().ok);
  EXPECT_EQ(parsed.value().id, 11u);
  EXPECT_EQ(parsed.value().error.code, Error::Code::kNotFound);
  EXPECT_EQ(parsed.value().error.message, "no such task");
}

TEST(Response, ErrorCodeNames) {
  // Codes survive the wire: code -> name -> code is the identity.
  for (auto code : {Error::Code::kParse, Error::Code::kNotFound,
                    Error::Code::kInvalid, Error::Code::kUnbound,
                    Error::Code::kConflict, Error::Code::kUnsupported,
                    Error::Code::kIoError}) {
    EXPECT_EQ(error_code_from_name(error_code_name(code)), code);
  }
}

Request request_for(std::string project, std::string op, JsonObject args = {}) {
  Request request;
  request.id = 1;
  request.project = std::move(project);
  request.op = std::move(op);
  request.args = std::move(args);
  return request;
}

/// Parses as a project op (non-empty project) or a server op; the refusal,
/// if any.
std::optional<Error> parse_error_of(const Request& request) {
  if (request.project.empty()) {
    auto parsed = op::parse_server_op(request);
    if (!parsed.ok()) return parsed.error();
  } else {
    auto parsed = op::parse_project_op(request);
    if (!parsed.ok()) return parsed.error();
  }
  return std::nullopt;
}

template <class T, class Lane>
T project_op(const std::string& name, JsonObject args = {}) {
  auto parsed = op::parse_project_op(request_for("p", name, std::move(args)));
  EXPECT_TRUE(parsed.ok()) << name << ": " << parsed.error().str();
  return std::get<T>(std::get<Lane>(parsed.value()));
}

// Every op name: a bare request parses, or is refused naming the one field
// the op cannot do without.
TEST(Op, EveryBareRequestParsesOrNamesItsRequiredField) {
  struct Case {
    const char* project;
    const char* op;
    const char* required;  ///< nullptr: the bare request parses
  };
  const Case cases[] = {
      {"p", "query", "statement"}, {"p", "explain", "statement"},
      {"p", "status", nullptr},    {"p", "gantt", nullptr},
      {"p", "plan", nullptr},      {"p", "replan", nullptr},
      {"p", "execute", nullptr},   {"p", "run", "activity"},
      {"p", "link", "activity"},   {"p", "advance", "minutes"},
      {"p", "save", nullptr},      {"p", "stats", nullptr},
      {"", "ping", nullptr},       {"", "projects", nullptr},
      {"", "stats", nullptr},      {"", "shutdown", nullptr},
      {"", "open", "name"},        {"", "close", "name"},
  };
  for (const auto& c : cases) {
    auto error = parse_error_of(request_for(c.project, c.op));
    if (c.required == nullptr) {
      EXPECT_FALSE(error.has_value()) << c.op << ": " << error->str();
      continue;
    }
    ASSERT_TRUE(error.has_value()) << c.op;
    EXPECT_EQ(error->code, Error::Code::kInvalid);
    EXPECT_EQ(error->message, std::string(c.op) + ": missing '" + c.required + "'");
  }
}

TEST(Op, BareRequestsGetTheDocumentedDefaults) {
  auto report = project_op<op::Report, op::ReadOp>("gantt");
  EXPECT_EQ(report.task, "job");
  EXPECT_TRUE(report.gantt);
  EXPECT_FALSE((project_op<op::Report, op::ReadOp>("status").gantt));

  auto plan = project_op<op::Plan, op::WriteOp>("replan");
  EXPECT_EQ(plan.task, "job");
  EXPECT_EQ(plan.name, "plan");
  EXPECT_EQ(plan.strategy, sched::EstimateStrategy::kIntuition);
  EXPECT_TRUE(plan.replan);
  EXPECT_FALSE((project_op<op::Plan, op::WriteOp>("plan").replan));

  auto execute = project_op<op::Execute, op::WriteOp>("execute");
  EXPECT_EQ(execute.task, "job");
  EXPECT_EQ(execute.designer, "designer");
  EXPECT_FALSE(execute.concurrent);

  JsonObject activity;
  activity.set("activity", "A");
  auto run = project_op<op::Run, op::WriteOp>("run", activity);
  EXPECT_EQ(run.task, "job");
  EXPECT_EQ(run.activity, "A");
  EXPECT_EQ(run.designer, "designer");
  auto link = project_op<op::Link, op::WriteOp>("link", activity);
  EXPECT_EQ(link.task, "job");
  EXPECT_EQ(link.activity, "A");

  JsonObject statement;
  statement.set("statement", "select plans");
  EXPECT_FALSE((project_op<op::Query, op::ReadOp>("query", statement).explain));
  EXPECT_TRUE((project_op<op::Query, op::ReadOp>("explain", statement).explain));

  // open {name, scenario_seed} generates from the spec's own defaults.
  JsonObject open;
  open.set("name", "chip");
  open.set("scenario_seed", 7);
  auto parsed = op::parse_server_op(request_for("", "open", open));
  ASSERT_TRUE(parsed.ok()) << parsed.error().str();
  const auto& scenario = std::get<gen::Scenario>(std::get<op::Open>(parsed.value()).source);
  EXPECT_EQ(gen::scenario_to_json(scenario).dump(),
            gen::scenario_to_json(gen::generate(gen::ScenarioSpec{.seed = 7})).dump());
}

// Each typed field, given one wrong JSON type, is refused with kInvalid
// naming the op and the key.  (`scenario` is a document that
// gen::scenario_from_json checks itself.)
TEST(Op, EveryTypedFieldRefusesAWrongJsonType) {
  struct Case {
    const char* project;
    const char* op;
    const char* key;
    Json wrong;
  };
  const Case cases[] = {
      {"p", "query", "statement", Json(7)},  {"p", "explain", "statement", Json(true)},
      {"p", "status", "task", Json(5)},      {"p", "gantt", "task", Json(5)},
      {"p", "plan", "task", Json(5)},        {"p", "plan", "name", Json(3)},
      {"p", "plan", "strategy", Json(1)},    {"p", "replan", "task", Json(5)},
      {"p", "replan", "name", Json(false)},  {"p", "replan", "strategy", Json(2.5)},
      {"p", "execute", "task", Json(5)},     {"p", "execute", "designer", Json(7)},
      {"p", "execute", "mode", Json(true)},  {"p", "run", "task", Json(5)},
      {"p", "run", "activity", Json(3)},     {"p", "run", "designer", Json(2)},
      {"p", "link", "task", Json(5)},        {"p", "link", "activity", Json(false)},
      {"p", "advance", "minutes", Json("30")},
      {"", "open", "name", Json(4)},         {"", "open", "scenario_seed", Json("1")},
      {"", "open", "shape", Json(7)},        {"", "open", "size", Json("3")},
      {"", "open", "recover", Json("yes")},
      {"", "close", "name", Json(1)},
  };
  for (const auto& c : cases) {
    // Every other field the op needs is present and well-typed.
    JsonObject args;
    if (std::string(c.op) == "query" || std::string(c.op) == "explain")
      args.set("statement", "select plans");
    if (std::string(c.op) == "run" || std::string(c.op) == "link") args.set("activity", "A");
    if (std::string(c.op) == "open" || std::string(c.op) == "close") args.set("name", "x");
    if (std::string(c.key) == "shape" || std::string(c.key) == "size")
      args.set("scenario_seed", 1);
    args.set(c.key, c.wrong);
    auto error = parse_error_of(request_for(c.project, c.op, args));
    ASSERT_TRUE(error.has_value()) << c.op << "." << c.key;
    EXPECT_EQ(error->code, Error::Code::kInvalid) << error->str();
    EXPECT_EQ(error->message.rfind(std::string(c.op) + ": '" + c.key + "' must be ", 0), 0u)
        << error->message;
  }
}

TEST(Op, ValuesOutsideTheirDomainAreRefused) {
  auto refused = [](const char* project, const char* op, const char* key, Json value) {
    JsonObject args;
    args.set("name", "x");
    args.set("scenario_seed", 1);
    args.set(key, std::move(value));
    auto error = parse_error_of(request_for(project, op, args));
    return error.has_value() ? error->code : std::optional<Error::Code>();
  };
  EXPECT_EQ(refused("p", "execute", "mode", "parallel"), Error::Code::kInvalid);
  EXPECT_EQ(refused("p", "advance", "minutes", -1), Error::Code::kInvalid);
  EXPECT_EQ(refused("p", "plan", "strategy", "bogus"), Error::Code::kInvalid);
  EXPECT_EQ(refused("", "open", "size", -1), Error::Code::kInvalid);
  EXPECT_EQ(refused("", "open", "shape", "bogus"), Error::Code::kParse);
  EXPECT_EQ(refused("", "open", "recover", false), std::nullopt);  // seed wins
  // Without a scenario or `recover: true` there is nothing to open.
  JsonObject unsourced;
  unsourced.set("name", "x");
  unsourced.set("schema", "schema x { data a; tool t; rule A: a <- t(); }");
  auto unopened = parse_error_of(request_for("", "open", unsourced));
  ASSERT_TRUE(unopened.has_value());
  EXPECT_EQ(unopened->code, Error::Code::kInvalid);
  EXPECT_EQ(unopened->message,
            "open: args need one of scenario / scenario_seed / recover: true");
  EXPECT_EQ(refused("p", "frobnicate", "x", 1), Error::Code::kInvalid);
  EXPECT_EQ(refused("", "frobnicate", "x", 1), Error::Code::kInvalid);
  // An empty `strategy` keeps the default; keys an op does not read are
  // ignored.
  EXPECT_EQ(refused("p", "plan", "strategy", ""), std::nullopt);
  EXPECT_EQ(refused("p", "save", "minutes", "x"), std::nullopt);
}

}  // namespace
}  // namespace herc::srv::wire
