// P-srv: what the server front-end costs.
//
// The artifact tables drive the closed-loop load driver (herc::srv::run_load)
// against an in-process server: throughput, tail latency and how many
// group-commit flushes covered the journal lines, then read throughput on
// one hot project as the number of readers grows.
//
// The timed benchmarks then isolate the layers: pure framing/parsing cost,
// a ping round trip (wire + reader thread, no project work), and a full
// execute round trip (everything including the flow engine and the journal).

#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "bench_main.hpp"
#include "srv/client.hpp"
#include "srv/load.hpp"
#include "srv/server.hpp"
#include "srv/wire.hpp"

using namespace herc;

namespace {

namespace fs = std::filesystem;

/// In-process server on a unix socket under a private temp dir.
struct ServerFixture {
  ServerFixture() {
    dir = fs::temp_directory_path() /
          ("herc_bench_srv." + std::to_string(::getpid()) + "." +
           std::to_string(counter++));
    fs::create_directories(dir);
    srv::ServerConfig config;
    config.unix_path = (dir / "srv.sock").string();
    config.shard.dir = dir.string();
    server = srv::Server::start(config).take();
  }
  ~ServerFixture() {
    server->stop();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  /// Opens one generated project and returns a connected client.
  std::unique_ptr<srv::Client> client_with_project(const std::string& name) {
    auto client = srv::Client::connect(server->unix_address()).take();
    util::JsonObject args;
    args.set("name", name);
    args.set("scenario_seed", util::Json(std::int64_t{7}));
    args.set("shape", "layered");
    args.set("size", util::Json(std::int64_t{2}));
    client->invoke("", "open", std::move(args)).value();
    client->invoke(name, "plan").value();
    return client;
  }

  static int counter;
  fs::path dir;
  std::unique_ptr<srv::Server> server;
};

int ServerFixture::counter = 0;

srv::LoadReport drive() {
  ServerFixture fixture;
  srv::LoadOptions options;
  options.address = fixture.server->unix_address();
  options.projects = 2;
  options.designers = 2;
  options.duration = std::chrono::milliseconds(500);
  options.read_every = 4;
  return srv::run_load(options).take();
}

/// Read-heavy drive for the MVCC sweep: ONE hot project, `readers` manager
/// threads polling it closed-loop plus one paced writer executing flows.
/// `--read-mix 90` with readers+1 designers dedicates exactly `readers`
/// threads to the read rotation for every sweep point used here.
srv::LoadReport drive_read_mix(int readers) {
  ServerFixture fixture;
  srv::LoadOptions options;
  options.address = fixture.server->unix_address();
  options.projects = 1;
  options.designers = readers + 1;
  options.read_mix = 90;
  options.rate_per_designer = 10.0;  // paced writer (see LoadOptions)
  options.warmup_executes = 40;      // mid-flight project
  options.duration = std::chrono::milliseconds(1000);
  return srv::run_load(options).take();
}

void print_read_mix_artifact() {
  std::cout << "P-srv-mvcc: snapshot reads on one hot project "
               "(N readers + 1 paced writer, 1s)\n\n";
  std::cout << "  readers   reads/s   write p99 us\n";
  for (int readers : {1, 2, 4, 8}) {
    auto report = drive_read_mix(readers);
    std::printf("  %7d   %7.0f   %12lld\n", readers, report.reads_per_sec,
                static_cast<long long>(report.write_p99_us));
  }
  std::cout << "\n  (readers never take the shard mutex: repeat reads are "
               "served from the\n   pinned epoch's memo)\n\n";
}

void print_artifact() {
  std::cout << "P-srv: server front-end under closed-loop load "
               "(2 projects x 2 designers, 500ms)\n\n";
  std::cout << "    runs/s     p50us  p99us  lines    flushes\n";
  auto report = drive();
  std::printf("  %8.0f  %6lld %6lld  %7lld  %7lld\n", report.runs_per_sec,
              static_cast<long long>(report.p50_us),
              static_cast<long long>(report.p99_us),
              static_cast<long long>(report.journal_lines),
              static_cast<long long>(report.group_commits));
  std::cout << "\n  (group commit covers many journal lines with one "
               "flush)\n\n";
  print_read_mix_artifact();
}

// Pure protocol cost: frame-encode a request and parse it back, no sockets.
void BM_WireEncodeParse(benchmark::State& state) {
  srv::wire::Request request;
  request.id = 42;
  request.project = "load0";
  request.op = "execute";
  request.args.set("designer", "designer1");
  for (auto _ : state) {
    std::string bytes = request.encode();
    srv::wire::FrameReader reader;
    reader.feed(bytes);
    auto payload = reader.poll();
    benchmark::DoNotOptimize(
        srv::wire::Request::parse(*payload).value().id);
  }
}
BENCHMARK(BM_WireEncodeParse);

// Wire + reader-thread round trip with no project work behind it.
void BM_PingRoundTrip(benchmark::State& state) {
  ServerFixture fixture;
  auto client = srv::Client::connect(fixture.server->unix_address()).take();
  for (auto _ : state)
    benchmark::DoNotOptimize(client->invoke("", "ping").value().is_object());
}
BENCHMARK(BM_PingRoundTrip);

// Full stack: one flow execution per iteration, journal group-committed.
// A lone client has nothing to batch with, so its own request thread
// writes each execute's lines as one batch right after the op; batches
// grow only under concurrent load (see the artifact table and herc_load).
void BM_ExecuteRoundTrip(benchmark::State& state) {
  ServerFixture fixture;
  auto client = fixture.client_with_project("bench");
  for (auto _ : state) {
    util::JsonObject args;
    args.set("designer", "alice");
    benchmark::DoNotOptimize(
        client->invoke("bench", "execute", std::move(args)).value().is_object());
  }
}
BENCHMARK(BM_ExecuteRoundTrip);

// A status read against a planned project: the read mix's cheap path.
void BM_StatusRoundTrip(benchmark::State& state) {
  ServerFixture fixture;
  auto client = fixture.client_with_project("bench");
  for (auto _ : state)
    benchmark::DoNotOptimize(
        client->invoke("bench", "status").value().is_object());
}
BENCHMARK(BM_StatusRoundTrip);

// A query round trip through the snapshot read lane: no shard mutex, the
// second and later iterations are served from the pinned epoch's memo.
void BM_QueryRoundTripSnapshot(benchmark::State& state) {
  ServerFixture fixture;
  auto client = fixture.client_with_project("bench");
  for (auto _ : state) {
    util::JsonObject args;
    args.set("statement", std::string("select schedule where critical = true"));
    benchmark::DoNotOptimize(
        client->invoke("bench", "query", std::move(args)).value().is_object());
  }
}
BENCHMARK(BM_QueryRoundTripSnapshot);

}  // namespace

HERC_BENCH_MAIN(print_artifact)
