// Server front-end tests: lifecycle over unix and tcp listeners, the
// server-level ops, multi-client concurrency against distinct and shared
// projects, pipelining, protocol-error isolation, the gen request-stream
// driver, and the group-commit flush accounting the load driver reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "gen/gen.hpp"
#include "hercules/persist.hpp"
#include "srv/client.hpp"
#include "srv/load.hpp"
#include "srv/server.hpp"
#include "util/fsio.hpp"

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

JsonObject designer_args(const std::string& designer) {
  JsonObject args;
  args.set("designer", designer);
  return args;
}

JsonObject statement_args(const std::string& statement) {
  JsonObject args;
  args.set("statement", statement);
  return args;
}

/// The value of a one-cell `select count from ...` response: the line after
/// the header and its rule.
std::int64_t rendered_count(const wire::Response& response) {
  const std::string& text = response.result.as_object().at("text").as_string();
  const auto rule_end = text.find('\n', text.find('\n') + 1);
  return std::stoll(text.substr(rule_end + 1));
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

// A recovered snapshot's schema goes through the DSL parser: an estimate
// that overflows is refused with `parse`, and the server keeps serving.
TEST(Server, OverflowingSchemaEstimateIsRefusedNotFatal) {
  TempServerDir tmp("estimate");
  auto made = hercules::WorkflowManager::create(
      "schema x { data a; tool t; rule A: a <- t() [est 1d]; }");
  ASSERT_TRUE(made.ok()) << made.error().str();
  auto snapshot = Json::parse(hercules::save_to_json(*made.value()));
  ASSERT_TRUE(snapshot.ok());
  snapshot.value().as_object().set(
      "schema_dsl",
      "schema x { data a; tool t; rule A: a <- t() [est 99999999999999999999d]; }");
  ASSERT_TRUE(util::write_file(tmp.path() + "/big.snapshot.json",
                               hercules::append_snapshot_footer(snapshot.value().dump()))
                  .ok());

  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());
  JsonObject args;
  args.set("name", "big");
  args.set("recover", true);
  auto opened = client.value()->call("", "open", std::move(args));
  ASSERT_TRUE(opened.ok()) << opened.error().str();
  ASSERT_FALSE(opened.value().ok);
  EXPECT_EQ(opened.value().error.code, util::Error::Code::kParse)
      << opened.value().error.str();

  auto pong = client.value()->invoke("", "ping");
  EXPECT_TRUE(pong.ok());
  server.value()->stop();
}

// `open` takes a scenario or recovers.  Any other source, such as the
// schema DSL the server once built projects from, is refused with
// `invalid` naming the accepted sources, and writes no file.
TEST(Server, OpenWithoutAScenarioOrRecoverIsRefused) {
  TempServerDir tmp("nosource");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());

  JsonObject args;
  args.set("name", "dsl");
  args.set("schema", "schema x { data a; tool t; rule A: a <- t(); }");
  auto opened = client.value()->call("", "open", std::move(args));
  ASSERT_TRUE(opened.ok()) << opened.error().str();
  ASSERT_FALSE(opened.value().ok);
  EXPECT_EQ(opened.value().error.code, util::Error::Code::kInvalid);
  EXPECT_EQ(opened.value().error.message,
            "open: args need one of scenario / scenario_seed / recover: true");
  EXPECT_EQ(server.value()->find_shard("dsl"), nullptr);
  server.value()->stop();
  // Only the listener's socket was ever in the directory, and stop()
  // removed it.
  EXPECT_TRUE(std::filesystem::is_empty(tmp.dir));
}

// WorkCalendar rejects a day of zero minutes.  An `open` carrying one is
// answered with an error, and the server keeps serving.
TEST(Server, OpenWithAnInvalidCalendarIsRefusedNotFatal) {
  TempServerDir tmp("calendar");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());

  gen::ScenarioSpec spec;
  spec.seed = 7;
  spec.size = 2;
  Json scenario = gen::scenario_to_json(gen::generate(spec));
  scenario.as_object().set("minutes_per_day", 0);
  JsonObject args;
  args.set("name", "nodays");
  args.set("scenario", std::move(scenario));
  auto opened = client.value()->call("", "open", std::move(args));
  ASSERT_TRUE(opened.ok()) << opened.error().str();
  ASSERT_FALSE(opened.value().ok);
  EXPECT_EQ(opened.value().error.code, util::Error::Code::kInvalid);

  auto pong = client.value()->invoke("", "ping");
  EXPECT_TRUE(pong.ok());
  server.value()->stop();
}

// A TCP host that does not parse fails Server::start, and closes the socket
// opened for it.
TEST(Server, UnparsableTcpHostLeaksNoDescriptor) {
  auto open_descriptors = [] {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  ServerConfig config;
  config.tcp_port = 0;
  config.tcp_host = "no.such.host";
  const std::size_t before = open_descriptors();
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(Server::start(config).ok());
  EXPECT_EQ(open_descriptors(), before);
}

// runs_executed counts the runs executed through this shard: none right
// after a recovery, whatever the recovered project holds.
// `open` builds or recovers its shard outside the registry mutex.  A
// recovery held inside its snapshot read (a FIFO nobody has written yet)
// must not stall a request to another open project, a second `open` of the
// reserved name is a conflict, and the first lands once the snapshot
// arrives.
TEST(Server, OpenDoesNotStallOtherProjects) {
  TempServerDir tmp("openstall");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  const std::string address = server.value()->unix_address();
  auto client = Client::connect(address);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->invoke("", "open", open_args("live", 3)).ok());
  ASSERT_TRUE(client.value()->invoke("", "open", open_args("slow", 4)).ok());
  JsonObject closing;
  closing.set("name", "slow");
  ASSERT_TRUE(client.value()->invoke("", "close", std::move(closing)).ok());

  const std::string snapshot = tmp.path() + "/slow.snapshot.json";
  auto saved = util::read_file(snapshot);
  ASSERT_TRUE(saved.ok()) << saved.error().str();
  std::filesystem::remove(snapshot);
  ASSERT_EQ(::mkfifo(snapshot.c_str(), 0600), 0) << std::strerror(errno);

  auto reopened = std::async(std::launch::async, [&] {
    auto opener = Client::connect(address);
    if (!opener.ok()) return opener.error().str();
    JsonObject args;
    args.set("name", "slow");
    args.set("recover", true);
    auto opened = opener.value()->invoke("", "open", std::move(args));
    return opened.ok() ? std::string() : opened.error().str();
  });

  // A writer can open the FIFO only once the server has it open for
  // reading: from then on the server is inside the recovery.
  int fd = -1;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((fd = ::open(snapshot.c_str(), O_WRONLY | O_NONBLOCK)) < 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(fd, 0) << "the server never opened the snapshot";

  auto other = std::async(std::launch::async, [&]() -> std::string {
    auto reader = Client::connect(address);
    if (!reader.ok()) return reader.error().str();
    auto stats = reader.value()->invoke("live", "stats");
    if (!stats.ok()) return "stats: " + stats.error().str();
    JsonObject again;
    again.set("name", "slow");
    again.set("recover", true);
    auto second = reader.value()->call("", "open", std::move(again));
    if (!second.ok()) return second.error().str();
    if (second.value().ok || second.value().error.code != util::Error::Code::kConflict)
      return "a second open of a reserved name was not a conflict";
    return "";
  });
  const bool answered_during_recovery =
      other.wait_for(std::chrono::seconds(5)) == std::future_status::ready;

  // Release the recovery whatever happened, so nothing is left blocked.
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  const std::string& bytes = saved.value();
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n <= 0) break;
    written += static_cast<std::size_t>(n);
  }
  ::close(fd);

  EXPECT_TRUE(answered_during_recovery)
      << "a stats request to another project waited for the recovery";
  EXPECT_EQ(other.get(), "");
  EXPECT_EQ(written, bytes.size());
  EXPECT_EQ(reopened.get(), "");
  auto executed = client.value()->invoke("slow", "execute", designer_args("pat"));
  EXPECT_TRUE(executed.ok()) << executed.error().str();
  server.value()->stop();
}

TEST(Server, RunsExecutedExcludesRecoveredRuns) {
  TempServerDir tmp("recovered");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->invoke("", "open", open_args("chip", 7)).ok());
  std::int64_t recovered_runs = 0;
  for (int i = 0; i < 3; ++i) {
    auto executed = client.value()->invoke("chip", "execute", designer_args("pat"));
    ASSERT_TRUE(executed.ok()) << executed.error().str();
    recovered_runs += executed.value().as_object().at("runs").as_int();
  }
  ASSERT_TRUE(client.value()->invoke("", "close", open_args("chip", 7)).ok());

  JsonObject recover;
  recover.set("name", "chip");
  recover.set("recover", true);
  ASSERT_TRUE(client.value()->invoke("", "open", std::move(recover)).ok());
  auto shard_stats = [&] {
    auto stats = server.value()->stats_json();
    return Json(stats.as_object().at("shards").as_array().at(0));
  };
  Json stats = shard_stats();
  EXPECT_EQ(stats.as_object().at("runs_executed").as_int(), 0);
  EXPECT_EQ(stats.as_object().at("run_count").as_int(), recovered_runs);

  auto executed = client.value()->invoke("chip", "execute", designer_args("pat"));
  ASSERT_TRUE(executed.ok()) << executed.error().str();
  stats = shard_stats();
  EXPECT_EQ(stats.as_object().at("runs_executed").as_int(),
            executed.value().as_object().at("runs").as_int());
  server.value()->stop();
}

// A shard has no event subscriber, so executes and reads build no events.
TEST(ProjectShard, ExecuteAndColdQueryPublishNoEvents) {
  TempServerDir tmp("bus");
  ShardOptions options;
  options.dir = tmp.path();
  gen::ScenarioSpec spec;
  spec.seed = 7;
  spec.size = 2;
  auto shard = ProjectShard::create("p", gen::generate(spec), options);
  ASSERT_TRUE(shard.ok()) << shard.error().str();

  wire::Request request;
  request.id = 1;
  request.project = "p";
  request.op = "execute";
  ASSERT_TRUE(shard.value()->apply(request).ok);
  request.id = 2;
  request.op = "query";
  request.args = statement_args("select runs where designer = \"designer\"");
  auto queried = shard.value()->apply(request);
  ASSERT_TRUE(queried.ok) << queried.error.str();
  EXPECT_EQ(shard.value()->manager_for_test().bus().published(), 0u);
}

// An argument of the wrong JSON type is refused, not replaced by the
// default: no run is recorded under designer "designer", no status is
// reported for task "job", and no project opens.
TEST(Server, IllTypedArgsAreRefusedNotDefaulted) {
  TempServerDir tmp("typed");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok()) << server.error().str();
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->invoke("", "open", open_args("chip", 7)).ok());
  ASSERT_TRUE(client.value()->invoke("chip", "plan").ok());

  auto refused = [&](const std::string& project, const std::string& op,
                     JsonObject args, const std::string& key) {
    auto response = client.value()->call(project, op, std::move(args));
    ASSERT_TRUE(response.ok()) << response.error().str();
    EXPECT_FALSE(response.value().ok) << op << " " << key;
    EXPECT_EQ(response.value().error.code, util::Error::Code::kInvalid);
    EXPECT_EQ(response.value().error.message.rfind(op + ": '" + key + "'", 0), 0u)
        << response.value().error.message;
  };
  JsonObject args;
  args.set("designer", 7);
  refused("chip", "execute", args, "designer");
  args = {};
  args.set("task", 5);
  refused("chip", "status", args, "task");
  args = {};
  args.set("mode", true);
  refused("chip", "execute", args, "mode");
  args = open_args("shaped", 7);
  args.set("shape", 7);
  refused("", "open", args, "shape");
  args = open_args("sized", 7);
  args.set("size", -1);
  refused("", "open", args, "size");

  auto stats = client.value()->invoke("chip", "stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().as_object().at("runs_executed").as_int(), 0);
  auto projects = client.value()->invoke("", "projects");
  ASSERT_TRUE(projects.ok());
  EXPECT_EQ(projects.value().as_object().at("projects").as_array().size(), 1u);
  server.value()->stop();
}

// A request that does not parse is answered before either lane: it moves no
// lane counter, and a read-only or crashed shard still calls it invalid.
TEST(ProjectShard, ParseFailuresTouchNeitherLane) {
  TempServerDir tmp("lanes");
  ShardOptions options;
  options.dir = tmp.path();
  gen::ScenarioSpec spec;
  spec.seed = 7;
  spec.size = 2;
  auto shard = ProjectShard::create("p", gen::generate(spec), options);
  ASSERT_TRUE(shard.ok()) << shard.error().str();
  auto apply = [&](const std::string& op, JsonObject args = {}) {
    wire::Request request;
    request.id = 1;
    request.project = "p";
    request.op = op;
    request.args = std::move(args);
    return shard.value()->apply(request);
  };
  JsonObject ill_typed;
  ill_typed.set("task", 5);
  EXPECT_EQ(apply("frobnicate").error.code, util::Error::Code::kInvalid);
  EXPECT_EQ(apply("execute", ill_typed).error.code, util::Error::Code::kInvalid);
  EXPECT_EQ(apply("status", ill_typed).error.code, util::Error::Code::kInvalid);
  EXPECT_EQ(apply("query").error.code, util::Error::Code::kInvalid);
  auto stats = apply("stats");
  ASSERT_TRUE(stats.ok) << stats.error.str();
  const JsonObject& doc = stats.result.as_object();
  const JsonObject& lanes = doc.at("snapshots").as_object();
  EXPECT_EQ(lanes.at("read_lane_requests").as_int(), 0);
  EXPECT_EQ(lanes.at("write_lane_requests").as_int(), 1);  // the stats itself
  EXPECT_EQ(doc.at("srv_requests").as_int(), 1);

  // Read-only after its directory went away.
  ASSERT_TRUE(apply("plan").ok);
  std::filesystem::remove_all(tmp.dir);
  EXPECT_EQ(apply("execute").error.code, util::Error::Code::kIoError);
  ASSERT_TRUE(shard.value()->read_only());
  EXPECT_EQ(apply("frobnicate").error.code, util::Error::Code::kInvalid);
  EXPECT_EQ(apply("execute", ill_typed).error.code, util::Error::Code::kInvalid);
  EXPECT_EQ(apply("execute").error.code, util::Error::Code::kIoError);

  shard.value()->simulate_crash();
  EXPECT_EQ(apply("frobnicate").error.code, util::Error::Code::kInvalid);
  EXPECT_EQ(apply("status", ill_typed).error.code, util::Error::Code::kInvalid);
  EXPECT_EQ(apply("status").error.code, util::Error::Code::kUnsupported);
  EXPECT_EQ(apply("stats").error.code, util::Error::Code::kUnsupported);
}

// A project's name names its files, so `open` refuses a name that would
// place them outside the data directory or that no request could reach.
TEST(Server, OpenRefusesNamesThatLeaveTheDataDirectory) {
  TempServerDir tmp("names");
  const auto data = tmp.dir / "data";
  std::filesystem::create_directories(data);
  ServerConfig config = base_config(tmp);
  config.shard.dir = data.string();
  auto server = Server::start(std::move(config));
  ASSERT_TRUE(server.ok()) << server.error().str();
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());

  for (const std::string& name : {std::string("../escape"), std::string(), std::string("."),
                                  std::string(".."), std::string("a/b"),
                                  std::string("/tmp/abs"), std::string("a\0b", 3)}) {
    auto response = client.value()->call("", "open", open_args(name, 1));
    ASSERT_TRUE(response.ok()) << response.error().str();
    EXPECT_FALSE(response.value().ok) << name;
    EXPECT_EQ(response.value().error.code, util::Error::Code::kInvalid) << name;
  }
  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(tmp.dir))
    entries.push_back(entry.path().filename().string());
  std::sort(entries.begin(), entries.end());
  EXPECT_EQ(entries, (std::vector<std::string>{"data", "srv.sock"}));
  EXPECT_TRUE(std::filesystem::is_empty(data));

  // The names the tree uses stay valid, and so do dotted ones.
  for (const char* name : {"chip", "load0", "flow0", "dash", "demo", "replan", "a.b", "..x"}) {
    EXPECT_TRUE(client.value()->invoke("", "open", open_args(name, 1)).ok()) << name;
  }
  server.value()->stop();
}

// Frames larger than one 64 KiB receive cross the socket in both directions:
// a query whose statement and whose rendered rows (100 executes' runs) each
// exceed it.
TEST(Server, FramesLargerThanOneReceiveCrossTheSocket) {
  TempServerDir tmp("large");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->invoke("", "open", open_args("chip", 3)).ok());
  for (int i = 0; i < 100; ++i)
    ASSERT_TRUE(client.value()->invoke("chip", "execute", designer_args("pat")).ok());

  const std::string statement =
      "select runs where designer != \"" + std::string(100 * 1024, 'x') + "\"";
  auto queried = client.value()->invoke("chip", "query", statement_args(statement));
  ASSERT_TRUE(queried.ok()) << queried.error().str();
  EXPECT_GT(queried.value().as_object().at("text").as_string().size(), 64u * 1024);
  EXPECT_TRUE(client.value()->invoke("", "ping").ok());
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

  // Queue several requests: they come back in the order they were sent.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = client.value()->send("p", "execute", designer_args("d" + std::to_string(i)));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (std::uint64_t id : ids) {
    auto response = client.value()->recv_any();
    ASSERT_TRUE(response.ok()) << response.error().str();
    EXPECT_EQ(response.value().id, id);
    EXPECT_TRUE(response.value().ok);
  }

  server.value()->stop();
}

// Responses come back in request order, so a call() sent behind a request
// whose response was never collected reads that response.  It is refused,
// naming both ids, instead of being taken for the call's answer.
TEST(Server, CallBehindAnUncollectedSendIsRefused) {
  TempServerDir tmp("uncollected");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok());
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());

  auto sent = client.value()->send("", "ping");
  ASSERT_TRUE(sent.ok());
  auto called = client.value()->call("", "projects");
  ASSERT_FALSE(called.ok());
  EXPECT_EQ(called.error().code, util::Error::Code::kParse);
  EXPECT_EQ(called.error().message,
            "client: response id " + std::to_string(sent.value()) +
                " does not answer request id " + std::to_string(sent.value() + 1));
  // The call's own response is still the next one on the connection.
  auto late = client.value()->recv_any();
  ASSERT_TRUE(late.ok()) << late.error().str();
  EXPECT_EQ(late.value().id, sent.value() + 1);
  EXPECT_TRUE(late.value().result.as_object().contains("projects"));
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

/// Lines in this process's memory map.  A thread that ended but was never
/// joined keeps its stack mapped, so unjoined threads show up here.
std::size_t mapped_regions() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// Each connection gets a reader thread.  Once its connection closes, the
// server joins it at the next accept instead of holding it until stop(), so
// a long-lived server that sees many short connections keeps no per-
// connection stack or mapping.  Connections are opened one at a time.
TEST(Server, ClosedConnectionsLeaveNoReaderThreadBehind) {
  TempServerDir tmp("readers");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok()) << server.error().str();
  auto ping_once = [&] {
    auto client = Client::connect(server.value()->unix_address());
    ASSERT_TRUE(client.ok()) << client.error().str();
    EXPECT_TRUE(client.value()->invoke("", "ping").ok());
  };
  auto wait_until_no_sessions = [&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.value()->active_sessions() != 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.value()->active_sessions(), 0u);
  };

  ping_once();  // the first reader, worker and client allocations settle
  wait_until_no_sessions();
  const std::size_t before = mapped_regions();
  for (int i = 0; i < 300; ++i) ping_once();
  wait_until_no_sessions();
  ping_once();  // this accept joins every reader that has ended
  EXPECT_LT(mapped_regions(), before + 100);
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
  // The writer is paced: 20/s * 0.4 s is at most 8 arrivals, far below what
  // a closed loop would issue.
  EXPECT_LT(report.value().writes, 16u);

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

// Every request runs on its connection's thread, so a write burst pipelined
// on one connection never holds up another connection's reads: connection
// A's 64 executes and connection B's 60 reads all succeed, and the read lane
// counts exactly B's reads.
TEST(Server, ReadsAnswerDuringAnotherConnectionsWriteBurst) {
  TempServerDir tmp("burst");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok()) << server.error().str();

  auto writer = Client::connect(server.value()->unix_address());
  auto reader = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(writer.value()->invoke("", "open", open_args("chip", 3)).ok());
  ASSERT_TRUE(writer.value()->invoke("chip", "plan").ok());

  constexpr int kBurst = 64;
  for (int i = 0; i < kBurst; ++i)
    ASSERT_TRUE(writer.value()->send("chip", "execute", designer_args("pat")).ok());
  int reads = 0;
  for (int round = 0; round < 20; ++round) {
    for (const std::string op : {"status", "gantt", "query"}) {
      auto response = reader.value()->call(
          "chip", op, op == "query" ? statement_args("select runs") : JsonObject{});
      ASSERT_TRUE(response.ok()) << response.error().str();
      EXPECT_TRUE(response.value().ok) << op << ": " << response.value().error.str();
      ++reads;
    }
  }
  for (int i = 0; i < kBurst; ++i) {
    auto response = writer.value()->recv_any();
    ASSERT_TRUE(response.ok()) << response.error().str();
    EXPECT_TRUE(response.value().ok) << response.value().error.str();
  }

  auto stats = server.value()->stats_json();
  const JsonObject& shard =
      stats.as_object().at("shards").as_array().at(0).as_object();
  EXPECT_EQ(shard.at("snapshots").as_object().at("read_lane_requests").as_int(),
            reads);
  server.value()->stop();
}

// One connection pipelines execute, count, execute, count, ... without
// waiting for any response.  The server answers each request before it
// parses the next, so every count includes the execute sent before it.
TEST(Server, PipelinedReadSeesTheWriteBeforeIt) {
  TempServerDir tmp("ordered");
  auto server = Server::start(base_config(tmp));
  ASSERT_TRUE(server.ok()) << server.error().str();
  auto client = Client::connect(server.value()->unix_address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->invoke("", "open", open_args("chip", 3)).ok());

  constexpr int kRounds = 20;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kRounds; ++i) {
    auto executed = client.value()->send("chip", "execute", designer_args("pat"));
    auto counted =
        client.value()->send("chip", "query", statement_args("select count from runs"));
    ASSERT_TRUE(executed.ok() && counted.ok());
    ids.push_back(executed.value());
    ids.push_back(counted.value());
  }
  std::int64_t runs = 0;
  for (int i = 0; i < kRounds; ++i) {
    auto executed = client.value()->recv_any();
    ASSERT_TRUE(executed.ok()) << executed.error().str();
    ASSERT_EQ(executed.value().id, ids[2 * i]) << "round " << i;
    ASSERT_TRUE(executed.value().ok) << executed.value().error.str();
    runs += executed.value().result.as_object().at("runs").as_int();
    auto counted = client.value()->recv_any();
    ASSERT_TRUE(counted.ok()) << counted.error().str();
    ASSERT_EQ(counted.value().id, ids[2 * i + 1]) << "round " << i;
    ASSERT_TRUE(counted.value().ok) << counted.value().error.str();
    EXPECT_EQ(rendered_count(counted.value()), runs) << "round " << i;
  }
  server.value()->stop();
}

}  // namespace
}  // namespace herc::srv
