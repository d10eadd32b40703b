// Wire protocol tests: frame round trips, incremental decoding, a corpus of
// malformed/truncated frames (all must latch broken() without crashing), and
// request/response document round trips.

#include "srv/wire.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace herc::srv::wire
