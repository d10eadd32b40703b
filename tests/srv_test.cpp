// Server front-end tests: lifecycle over unix and tcp listeners, the
// server-level ops, multi-client concurrency against distinct and shared
// projects, pipelining, protocol-error isolation, the gen request-stream
// driver, and the group-commit flush accounting the load driver reports.

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gen/gen.hpp"
#include "srv/client.hpp"
#include "srv/load.hpp"
#include "srv/server.hpp"

namespace herc::srv {
namespace {

using util::Json;
using util::JsonObject;

/// Fresh scratch directory + unix socket path per test, removed on teardown.
struct TempServerDir {
  explicit TempServerDir(const std::string& tag)
      : dir(std::filesystem::temp_directory_path() /
            ("herc_srv_test_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~TempServerDir() { std::filesystem::remove_all(dir); }

  [[nodiscard]] std::string sock() const { return (dir / "srv.sock").string(); }
  [[nodiscard]] std::string path() const { return dir.string(); }

  std::filesystem::path dir;
};

ServerConfig base_config(const TempServerDir& tmp) {
  ServerConfig config;
  config.unix_path = tmp.sock();
  config.shard.dir = tmp.path();
  config.workers = 4;
  return config;
}

JsonObject open_args(const std::string& name, std::uint64_t seed) {
  JsonObject args;
  args.set("name", name);
  args.set("scenario_seed", Json(static_cast<std::int64_t>(seed)));
  args.set("shape", "layered");
  args.set("size", Json(2));
  return args;
}

TEST(Server, StartStopUnixAndTcp) {
  TempServerDir tmp("startstop");
  ServerConfig config = base_config(tmp);
  config.tcp_port = 0;  // kernel-assigned
  auto server = Server::start(std::move(config));
  ASSERT_TRUE(server.ok()) << server.error().str();
  EXPECT_GT(server.value()->tcp_port(), 0);

  // Both listeners answer ping.
  for (const std::string& addr :
       {server.value()->unix_address(), server.value()->tcp_address()}) {
    auto client = Client::connect(addr);
    ASSERT_TRUE(client.ok()) << addr << ": " << client.error().str();
    auto pong = client.value()->invoke("", "ping");
    ASSERT_TRUE(pong.ok()) << pong.error().str();
    EXPECT_TRUE(pong.value().as_object().at("pong").as_bool());
  }

  server.value()->stop();
  // Idempotent; the socket file is gone.
  server.value()->stop();
  EXPECT_FALSE(std::filesystem::exists(tmp.sock()));
}

TEST(Server, RequiresAListener) {
  ServerConfig config;  // neither unix nor tcp
  auto server = Server::start(std::move(config));
  EXPECT_FALSE(server.ok());
}

TEST(Server, OpenExecuteStatsClose) {
  TempServerDir tmp("basic");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok()) << server.error().str();
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());

  auto opened = client.value()->invoke("", "open", open_args("chip", 7));
  ASSERT_TRUE(opened.ok()) << opened.error().str();
  EXPECT_TRUE(std::filesystem::exists(
      opened.value().as_object().at("snapshot").as_string()));

  // Re-opening the same name conflicts.
  auto dup = client.value()->call("", "open", open_args("chip", 7));
  ASSERT_TRUE(dup.ok());
  ASSERT_FALSE(dup.value().ok);
  EXPECT_EQ(dup.value().error.code, util::Error::Code::kConflict);

  JsonObject exec_args;
  exec_args.set("designer", "pat");
  auto executed = client.value()->invoke("chip", "execute", std::move(exec_args));
  ASSERT_TRUE(executed.ok()) << executed.error().str();
  const std::int64_t runs = executed.value().as_object().at("runs").as_int();
  EXPECT_GT(runs, 0);

  // Reads work (status needs a plan first) and stats reflects the executes.
  ASSERT_TRUE(client.value()->invoke("chip", "plan").ok());
  auto status = client.value()->invoke("chip", "status");
  ASSERT_TRUE(status.ok()) << status.error().str();
  auto stats = client.value()->invoke("", "stats");
  ASSERT_TRUE(stats.ok());
  const JsonObject& doc = stats.value().as_object();
  EXPECT_EQ(doc.at("totals").as_object().at("shards").as_int(), 1);
  const JsonObject& shard = doc.at("shards").as_array().at(0).as_object();
  EXPECT_EQ(shard.at("project").as_string(), "chip");
  EXPECT_EQ(shard.at("runs_executed").as_int(), runs);
  EXPECT_GE(shard.at("srv_requests").as_int(), 2);

  auto closed = client.value()->invoke("", "close", open_args("chip", 7));
  ASSERT_TRUE(closed.ok()) << closed.error().str();
  auto gone = client.value()->call("chip", "status");
  ASSERT_TRUE(gone.ok());
  ASSERT_FALSE(gone.value().ok);
  EXPECT_EQ(gone.value().error.code, util::Error::Code::kNotFound);
  server.value()->stop();
}

TEST(Server, UnknownOpsAndProjectsGetErrorResponses) {
  TempServerDir tmp("errors");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());

  auto response = client.value()->call("nosuch", "status");
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().ok);
  EXPECT_EQ(response.value().error.code, util::Error::Code::kNotFound);

  response = client.value()->call("", "frobnicate");
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().ok);

  // The connection survived both errors.
  auto pong = client.value()->invoke("", "ping");
  EXPECT_TRUE(pong.ok());
  server.value()->stop();
}

TEST(Server, OverflowingSchemaEstimateIsRefusedNotFatal) {
  TempServerDir tmp("estimate");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());

  JsonObject args;
  args.set("name", "big");
  args.set("schema",
           "schema x { data a; tool t; rule A: a <- t() [est 99999999999999999999d]; }");
  auto opened = client.value()->call("", "open", std::move(args));
  ASSERT_TRUE(opened.ok()) << opened.error().str();
  ASSERT_FALSE(opened.value().ok);
  EXPECT_EQ(opened.value().error.code, util::Error::Code::kParse);

  auto pong = client.value()->invoke("", "ping");
  EXPECT_TRUE(pong.ok());
  server.value()->stop();
}

TEST(Server, AdvancePastTheLastRenderedDayIsRefused) {
  TempServerDir tmp("advance");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->invoke("", "open", open_args("chip", 7)).ok());
  ASSERT_TRUE(client.value()->invoke("chip", "plan").ok());

  auto advance = [&](std::int64_t minutes) {
    JsonObject args;
    args.set("minutes", Json(minutes));
    return client.value()->call("chip", "advance", std::move(args));
  };
  auto before = advance(0);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before.value().ok);
  const std::int64_t clock =
      before.value().result.as_object().at("clock_minutes").as_int();

  for (std::int64_t minutes : {std::int64_t{4611686018427387904},
                               std::numeric_limits<std::int64_t>::max()}) {
    auto refused = advance(minutes);
    ASSERT_TRUE(refused.ok()) << refused.error().str();
    ASSERT_FALSE(refused.value().ok) << minutes;
    EXPECT_EQ(refused.value().error.code, util::Error::Code::kInvalid);
  }

  auto status = client.value()->invoke("chip", "status");
  ASSERT_TRUE(status.ok()) << status.error().str();
  auto after = advance(0);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after.value().ok);
  EXPECT_EQ(after.value().result.as_object().at("clock_minutes").as_int(), clock);
  server.value()->stop();
}

TEST(Server, PipelinedResponsesMatchById) {
  TempServerDir tmp("pipeline");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->invoke("", "open", open_args("p", 3)).ok());

  // Queue several requests, then collect in reverse id order.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    JsonObject args;
    args.set("designer", "d" + std::to_string(i));
    auto id = client.value()->send("p", "execute", std::move(args));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    auto response = client.value()->recv(*it);
    ASSERT_TRUE(response.ok()) << response.error().str();
    EXPECT_EQ(response.value().id, *it);
    EXPECT_TRUE(response.value().ok);
  }
  server.value()->stop();
}

TEST(Server, MalformedFrameDropsOnlyThatConnection) {
  TempServerDir tmp("malformed");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());

  {
    auto bad = net::connect_to(
        net::parse_address(server.value()->unix_address()).value());
    ASSERT_TRUE(bad.ok());
    ASSERT_TRUE(net::send_all(bad.value(), "this is not a frame\n").ok());
    // The server closes the connection: read sees EOF.
    std::string sink;
    auto n = net::recv_some(bad.value(), sink);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 0u);
    ::close(bad.value());
  }

  // A well-framed but non-JSON payload gets an error response, connection kept.
  {
    auto odd = net::connect_to(
        net::parse_address(server.value()->unix_address()).value());
    ASSERT_TRUE(odd.ok());
    ASSERT_TRUE(net::send_all(odd.value(), wire::encode_frame("{broken")).ok());
    wire::FrameReader reader;
    std::string chunk;
    std::optional<std::string> payload;
    while (!payload) {
      chunk.clear();
      auto n = net::recv_some(odd.value(), chunk);
      ASSERT_TRUE(n.ok());
      ASSERT_GT(n.value(), 0u);
      reader.feed(chunk);
      payload = reader.poll();
    }
    auto response = wire::Response::parse(*payload);
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response.value().ok);
    ::close(odd.value());
  }

  // Fresh clients still work.
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->invoke("", "ping").ok());
  server.value()->stop();
}

TEST(Server, ConcurrentClientsDistinctProjects) {
  TempServerDir tmp("distinct");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());

  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::connect(server.value()->unix_address());
      if (!client.ok()) {
        failures[c] = 100;
        return;
      }
      std::string project = "proj" + std::to_string(c);
      if (!client.value()
               ->invoke("", "open", open_args(project, 10 + c))
               .ok()) {
        failures[c] = 101;
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        JsonObject args;
        args.set("designer", "d" + std::to_string(c));
        if (!client.value()->invoke(project, "execute", std::move(args)).ok()) {
          ++failures[c];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], 0) << "client " << c;

  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());
  auto stats = client.value()->invoke("", "stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(
      stats.value().as_object().at("totals").as_object().at("shards").as_int(),
      kClients);
  server.value()->stop();
}

TEST(Server, ConcurrentClientsSharedProject) {
  TempServerDir tmp("shared");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  {
    auto client = Client::connect(server.value()->unix_address());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value()->invoke("", "open", open_args("shared", 5)).ok());
  }

  constexpr int kClients = 4;
  constexpr int kRequests = 6;
  std::vector<std::thread> threads;
  std::vector<std::int64_t> runs(kClients, 0);
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::connect(server.value()->unix_address());
      if (!client.ok()) {
        failures[c] = 100;
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        JsonObject args;
        args.set("designer", "d" + std::to_string(c));
        auto result = client.value()->invoke("shared", "execute", std::move(args));
        if (!result.ok()) {
          ++failures[c];
        } else {
          runs[c] += result.value().as_object().at("runs").as_int();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::int64_t total_runs = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
    total_runs += runs[c];
  }

  // The shard serialized everything: its counters equal the sum of what the
  // clients were told (the stats op is the cross-check the load driver uses).
  ProjectShard* shard = server.value()->find_shard("shared");
  ASSERT_NE(shard, nullptr);
  const Json stats_doc = shard->stats_json();
  const JsonObject& stats = stats_doc.as_object();
  EXPECT_EQ(stats.at("runs_executed").as_int(), total_runs);
  EXPECT_EQ(stats.at("run_count").as_int(), total_runs);
  EXPECT_EQ(stats.at("journal_lines").as_int(), total_runs);
  // Group commit batched: strictly fewer physical flushes than lines.
  ASSERT_TRUE(stats.contains("group_commit"));
  const JsonObject& gc = stats.at("group_commit").as_object();
  EXPECT_EQ(gc.at("lines").as_int(), total_runs);
  EXPECT_LT(gc.at("srv_group_commits").as_int(), total_runs);
  EXPECT_GE(gc.at("srv_commit_batch_max").as_int(), 1);
  server.value()->stop();
}

TEST(Server, GenRequestStreamDrivesAProject) {
  TempServerDir tmp("stream");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->invoke("", "open", open_args("gen", 11)).ok());

  gen::RequestStreamSpec spec;
  spec.seed = 42;
  spec.count = 60;
  spec.designers = 3;
  auto stream = gen::request_stream(spec);
  ASSERT_EQ(stream.size(), spec.count);

  // Determinism: the same spec yields the same ops.
  auto again = gen::request_stream(spec);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].op, again[i].op) << i;
  }

  // Streams open with a plan so the status reads are valid.
  EXPECT_EQ(stream.front().op, "plan");

  int executes = 0, reads = 0, advances = 0, plans = 0;
  for (auto& request : stream) {
    if (request.op == "execute") ++executes;
    if (request.op == "status" || request.op == "stats") ++reads;
    if (request.op == "advance") ++advances;
    if (request.op == "plan") ++plans;
    auto response = client.value()->invoke("gen", request.op, request.args);
    ASSERT_TRUE(response.ok())
        << request.op << ": " << response.error().str();
  }
  EXPECT_GT(executes, 0);
  EXPECT_GT(reads, 0);
  EXPECT_EQ(executes + reads + advances + plans, static_cast<int>(spec.count));
  server.value()->stop();
}

TEST(Server, ShutdownOpRequestsStop) {
  TempServerDir tmp("shutdown");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());
  auto response = client.value()->invoke("", "shutdown");
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(server.value()->stop_requested());
  // The fd handed to pollers is readable now.
  EXPECT_GE(server.value()->stop_event_fd(), 0);
  server.value()->stop();
}

TEST(Server, LoadDriverClosedLoop) {
  TempServerDir tmp("load");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());

  LoadOptions options;
  options.address = server.value()->unix_address();
  options.projects = 2;
  options.designers = 2;
  options.duration = std::chrono::milliseconds(300);
  options.read_every = 4;
  auto report = run_load(options);
  ASSERT_TRUE(report.ok()) << report.error().str();
  EXPECT_EQ(report.value().errors, 0u);
  EXPECT_GT(report.value().requests, 0u);
  EXPECT_GT(report.value().runs, 0u);
  EXPECT_GT(report.value().runs_per_sec, 0.0);
  EXPECT_GT(report.value().p99_us, 0);
  EXPECT_GE(report.value().p99_us, report.value().p50_us);
  // Flush accounting came from the stats op and shows batching.
  EXPECT_GT(report.value().journal_lines, 0);
  EXPECT_GT(report.value().group_commits, 0);
  EXPECT_LT(report.value().group_commits, report.value().journal_lines);

  // Cross-check the driver's counters against the server's own.
  std::int64_t stats_runs = 0;
  auto stats = server.value()->stats_json();
  for (const auto& shard : stats.as_object().at("shards").as_array()) {
    stats_runs += shard.as_object().at("runs_executed").as_int();
  }
  EXPECT_EQ(stats_runs, static_cast<std::int64_t>(report.value().runs));
  server.value()->stop();
}

TEST(Server, ReadMixLaneCountersMatchDriver) {
  TempServerDir tmp("readmix");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());

  LoadOptions options;
  options.address = server.value()->unix_address();
  options.projects = 1;
  options.designers = 4;  // 3 dedicated readers + 1 paced writer
  options.read_mix = 90;
  options.rate_per_designer = 20.0;
  options.duration = std::chrono::milliseconds(400);
  auto report = run_load(options);
  ASSERT_TRUE(report.ok()) << report.error().str();
  EXPECT_EQ(report.value().errors, 0u);
  EXPECT_GT(report.value().reads, 0u);
  EXPECT_GT(report.value().writes, 0u);

  // The shard's lane counters partition srv_requests exactly, and the read
  // lane must have carried at least the driver's reads (the driver's setup
  // requests — open/plan/warmup/stats — all ride the write lane).
  auto stats = server.value()->stats_json();
  const auto& shard =
      stats.as_object().at("shards").as_array().at(0).as_object();
  const util::JsonObject& sn = shard.at("snapshots").as_object();
  const std::int64_t read_lane = sn.at("read_lane_requests").as_int();
  const std::int64_t write_lane = sn.at("write_lane_requests").as_int();
  EXPECT_EQ(read_lane + write_lane, shard.at("srv_requests").as_int());
  EXPECT_GE(read_lane, static_cast<std::int64_t>(report.value().reads));
  EXPECT_GE(write_lane, static_cast<std::int64_t>(report.value().writes));

  // Snapshot health: epochs were published (one per mutation), and with no
  // reader in flight anymore nothing stays pinned beyond the newest view.
  EXPECT_GT(sn.at("epoch").as_int(), 1);
  EXPECT_GE(sn.at("published").as_int(), sn.at("epoch").as_int());
  EXPECT_EQ(sn.at("live").as_int(), 1);
  EXPECT_EQ(sn.at("retired_unreclaimed").as_int(), 0);
  server.value()->stop();
}

TEST(Server, OverloadSheddingBoundsTheQueue) {
  TempServerDir tmp("shed");
  ServerConfig config = base_config(tmp);
  config.workers = 1;
  config.max_queue_depth = 1;  // in-flight + 1 queued; everything else sheds
  auto server = Server::start(std::move(config));
  ASSERT_TRUE(server.ok()) << server.error().str();

  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->invoke("", "open", open_args("chip", 3)).ok());

  // Pipeline a burst far past the queue bound: the reader answers the
  // overflow with a retryable `overloaded` error, the worker pool never
  // sees it, and every request still gets exactly one response.
  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) {
    JsonObject args;
    args.set("designer", "pat");
    ASSERT_TRUE(client.value()->send("chip", "execute", std::move(args)).ok());
  }
  int succeeded = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto response = client.value()->recv_any();
    ASSERT_TRUE(response.ok()) << response.error().str();
    if (response.value().ok) {
      ++succeeded;
    } else {
      EXPECT_EQ(response.value().error.code, util::Error::Code::kOverloaded);
      EXPECT_TRUE(response.value().error.retryable());
      ++shed;
    }
  }
  EXPECT_EQ(succeeded + shed, kBurst);
  EXPECT_GT(succeeded, 0);
  ASSERT_GT(shed, 0) << "burst never outran a depth-1 queue";

  // A shed request retried after the storm goes through.
  JsonObject args;
  args.set("designer", "pat");
  EXPECT_TRUE(client.value()->invoke("chip", "execute", std::move(args)).ok());

  // The stats op reports the shed count and the configured bound.
  auto stats = server.value()->stats_json();
  const JsonObject& srv = stats.as_object().at("server").as_object();
  EXPECT_EQ(srv.at("srv_requests_shed").as_int(), shed);
  EXPECT_EQ(srv.at("srv_queue_limit").as_int(), 1);
  EXPECT_EQ(stats.as_object().at("totals").as_object().at("shards_read_only").as_int(), 0);
  server.value()->stop();
}

// Reads run on their session's reader thread, so a full write queue never
// sheds them: with one worker and a depth-1 queue, connection A's pipelined
// execute burst overflows while connection B's reads all succeed, and the
// shed counter counts only A's executes.
TEST(Server, ReadsAreNeverShed) {
  TempServerDir tmp("readshed");
  ServerConfig config = base_config(tmp);
  config.workers = 1;
  config.max_queue_depth = 1;
  auto server = Server::start(std::move(config));
  ASSERT_TRUE(server.ok()) << server.error().str();

  auto writer = Client::connect(server.value()->unix_address());
  auto reader = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(writer.value()->invoke("", "open", open_args("chip", 3)).ok());
  ASSERT_TRUE(writer.value()->invoke("chip", "plan").ok());

  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) {
    JsonObject args;
    args.set("designer", "pat");
    ASSERT_TRUE(writer.value()->send("chip", "execute", std::move(args)).ok());
  }
  JsonObject query;
  query.set("statement", std::string("select runs"));
  int reads = 0;
  for (int round = 0; round < 20; ++round) {
    for (const std::string op : {"status", "gantt", "query"}) {
      auto response =
          reader.value()->call("chip", op, op == "query" ? query : JsonObject{});
      ASSERT_TRUE(response.ok()) << response.error().str();
      EXPECT_TRUE(response.value().ok) << op << ": " << response.value().error.str();
      ++reads;
    }
  }

  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto response = writer.value()->recv_any();
    ASSERT_TRUE(response.ok()) << response.error().str();
    if (!response.value().ok) {
      EXPECT_EQ(response.value().error.code, util::Error::Code::kOverloaded);
      ++shed;
    }
  }
  ASSERT_GT(shed, 0) << "burst never outran a depth-1 queue";

  auto stats = server.value()->stats_json();
  const JsonObject& srv = stats.as_object().at("server").as_object();
  EXPECT_EQ(srv.at("srv_requests_shed").as_int(), shed);
  const JsonObject& shard =
      stats.as_object().at("shards").as_array().at(0).as_object();
  EXPECT_EQ(shard.at("snapshots").as_object().at("read_lane_requests").as_int(),
            reads);
  server.value()->stop();
}

TEST(Server, OpenArrivalLoadDriver) {
  TempServerDir tmp("openload");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());

  LoadOptions options;
  options.address = server.value()->unix_address();
  options.projects = 1;
  options.designers = 2;
  options.duration = std::chrono::milliseconds(300);
  options.arrival = LoadOptions::Arrival::kOpen;
  options.rate_per_designer = 50.0;
  auto report = run_load(options);
  ASSERT_TRUE(report.ok()) << report.error().str();
  EXPECT_EQ(report.value().errors, 0u);
  EXPECT_GT(report.value().requests, 0u);
  // ~50/s * 2 designers * 0.3s ≈ 30 arrivals; the schedule caps the offered
  // load well below what a closed loop would issue.
  EXPECT_LT(report.value().requests, 60u);
  server.value()->stop();
}

}  // namespace
}  // namespace herc::srv
