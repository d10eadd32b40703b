// Durability tests for the server shards: group commit batching (one ticket
// per mutation), fsync-backed durable mode, the kill-mid-commit model
// (simulate_crash drops everything unflushed), byte-identical recovery after
// executes mixed with schedule ops, the WAL prefix sweep (every truncation
// point must recover cleanly), and what the committer may write after a
// failed flush.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/gen.hpp"
#include "hercules/group_commit.hpp"
#include "hercules/journal.hpp"
#include "hercules/persist.hpp"
#include "srv/shard.hpp"
#include "util/faultfs.hpp"
#include "util/fsio.hpp"

namespace herc::srv {
namespace {

using hercules::GroupCommitter;
using util::Json;
using util::JsonObject;

struct TempDir {
  explicit TempDir(const std::string& tag)
      : dir(std::filesystem::temp_directory_path() /
            ("herc_srv_rec_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~TempDir() { std::filesystem::remove_all(dir); }
  std::filesystem::path dir;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

gen::Scenario small_scenario(std::uint64_t seed) {
  gen::ScenarioSpec spec;
  spec.seed = seed;
  spec.shape = gen::Shape::kLayered;
  spec.size = 2;
  return gen::generate(spec);
}

wire::Request execute_request(std::uint64_t id, const std::string& designer) {
  wire::Request request;
  request.id = id;
  request.project = "p";
  request.op = "execute";
  request.args.set("designer", designer);
  return request;
}

ShardOptions options_in(const TempDir& tmp, bool durable = false) {
  ShardOptions options;
  options.dir = tmp.dir.string();
  options.durable = durable;
  return options;
}

TEST(SrvRecovery, CrashLosesNothingAcknowledged) {
  TempDir tmp("ack");
  auto shard = ProjectShard::create("p", small_scenario(1), options_in(tmp));
  ASSERT_TRUE(shard.ok()) << shard.error().str();

  std::int64_t acked_runs = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto response = shard.value()->apply(execute_request(i, "pat"));
    ASSERT_TRUE(response.ok) << response.error.str();
    acked_runs += response.result.as_object().at("runs").as_int();
  }
  // Capture the exact state every acknowledged mutation built, then crash:
  // queued-but-unflushed journal lines vanish, no snapshot is taken.
  std::string expected =
      hercules::save_to_json(shard.value()->manager_for_test());
  shard.value()->simulate_crash();
  auto dead = shard.value()->apply(execute_request(99, "pat"));
  EXPECT_FALSE(dead.ok);  // a crashed shard refuses everything

  auto recovered = ProjectShard::recover("p", 120, options_in(tmp));
  ASSERT_TRUE(recovered.ok()) << recovered.error().str();
  // Everything acknowledged is back, byte for byte.
  EXPECT_EQ(hercules::save_to_json(recovered.value()->manager_for_test()),
            expected);
  const Json stats = recovered.value()->stats_json();
  EXPECT_EQ(stats.as_object().at("run_count").as_int(), acked_runs);
}

TEST(SrvRecovery, RecoveryIsDeterministic) {
  TempDir tmp("det");
  auto shard = ProjectShard::create("p", small_scenario(2), options_in(tmp));
  ASSERT_TRUE(shard.ok());
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(shard.value()->apply(execute_request(i, "alice")).ok);
  }
  shard.value()->simulate_crash();

  // Two recoveries from the same on-disk bytes agree byte-identically.
  // recover() re-snapshots, so run them against copies of the files.
  TempDir copy_a("det_a");
  TempDir copy_b("det_b");
  for (auto* copy : {&copy_a, &copy_b}) {
    std::filesystem::copy(tmp.dir, copy->dir,
                          std::filesystem::copy_options::overwrite_existing |
                              std::filesystem::copy_options::recursive);
  }
  auto a = ProjectShard::recover("p", 120, options_in(copy_a));
  auto b = ProjectShard::recover("p", 120, options_in(copy_b));
  ASSERT_TRUE(a.ok()) << a.error().str();
  ASSERT_TRUE(b.ok()) << b.error().str();
  EXPECT_EQ(hercules::save_to_json(a.value()->manager_for_test()),
            hercules::save_to_json(b.value()->manager_for_test()));
}

TEST(SrvRecovery, KillMidLoadUnderConcurrency) {
  TempDir tmp("kill");
  auto shard = ProjectShard::create("p", small_scenario(3), options_in(tmp));
  ASSERT_TRUE(shard.ok());

  std::atomic<std::int64_t> acked_runs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0;; ++i) {
        auto response = shard.value()->apply(
            execute_request(i, "d" + std::to_string(t)));
        if (!response.ok) return;  // the crash hit
        acked_runs.fetch_add(response.result.as_object().at("runs").as_int());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  shard.value()->simulate_crash();
  for (auto& thread : threads) thread.join();

  auto recovered = ProjectShard::recover("p", 120, options_in(tmp));
  ASSERT_TRUE(recovered.ok()) << recovered.error().str();
  // acked => recovered.  (The WAL may hold MORE: lines flushed but not yet
  // acknowledged at the kill are legitimately replayed.)
  const Json stats = recovered.value()->stats_json();
  EXPECT_GE(stats.as_object().at("run_count").as_int(), acked_runs.load());
  EXPECT_GT(acked_runs.load(), 0);
}

TEST(SrvRecovery, WalPrefixSweepAlwaysRecovers) {
  TempDir tmp("sweep");
  auto shard = ProjectShard::create("p", small_scenario(4), options_in(tmp));
  ASSERT_TRUE(shard.ok());
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(shard.value()->apply(execute_request(i, "pat")).ok);
  }
  shard.value()->simulate_crash();

  const std::string snapshot = slurp(shard.value()->snapshot_path());
  const std::string wal = slurp(shard.value()->wal_path());
  ASSERT_FALSE(wal.empty());

  // A kill may tear the WAL at ANY byte.  Every prefix must recover, and the
  // recovered run count must grow monotonically with the prefix.
  std::int64_t previous_runs = -1;
  const std::size_t step = wal.size() / 200 + 1;
  for (std::size_t cut = 0; cut <= wal.size(); cut += step) {
    auto manager =
        hercules::recover_from_json(snapshot, std::string_view(wal).substr(0, cut));
    ASSERT_TRUE(manager.ok()) << "cut at " << cut << ": "
                              << manager.error().str();
    auto runs = static_cast<std::int64_t>(manager.value()->db().run_count());
    EXPECT_GE(runs, previous_runs) << "cut at " << cut;
    previous_runs = runs;
  }
}

// The only shard test that crashes after schedule ops (plan, replan, link,
// advance: snapshotted through before the ack) mixed with journaled
// executes and runs: recovery rebuilds the acknowledged state byte for byte.
TEST(SrvRecovery, MixedRequestStreamRecoversByteIdentically) {
  TempDir tmp("mixed");
  auto shard = ProjectShard::create("p", small_scenario(5), options_in(tmp));
  ASSERT_TRUE(shard.ok());

  gen::RequestStreamSpec spec;
  spec.seed = 9;
  spec.count = 30;
  spec.designers = 2;
  std::uint64_t id = 0;
  for (const auto& generated : gen::request_stream(spec)) {
    wire::Request request;
    request.id = ++id;
    request.project = "p";
    request.op = generated.op;
    request.args = generated.args;
    auto response = shard.value()->apply(request);
    ASSERT_TRUE(response.ok) << generated.op << ": " << response.error.str();
  }

  // Group commit covered the journal lines with fewer flushes.
  auto stats = shard.value()->committer().stats();
  EXPECT_GT(stats.lines, 0u);
  EXPECT_LT(stats.flushes, stats.lines);

  const std::string expected =
      hercules::save_to_json(shard.value()->manager_for_test());
  shard.value()->simulate_crash();
  auto recovered = ProjectShard::recover("p", 120, options_in(tmp));
  ASSERT_TRUE(recovered.ok()) << recovered.error().str();
  EXPECT_EQ(hercules::save_to_json(recovered.value()->manager_for_test()),
            expected);
}

TEST(SrvRecovery, GroupCommitFlushesFewerThanLines) {
  TempDir tmp("fewer");
  auto shard = ProjectShard::create("p", small_scenario(6), options_in(tmp));
  ASSERT_TRUE(shard.ok());
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(shard.value()->apply(execute_request(i, "pat")).ok);
  }
  auto stats = shard.value()->committer().stats();
  EXPECT_GT(stats.lines, 0u);
  EXPECT_GT(stats.flushes, 0u);
  // One execute journals a whole flow of runs; the committer batches them.
  EXPECT_LT(stats.flushes, stats.lines);
  EXPECT_GE(stats.batch_max, 2u);
}

// Every line one mutation appends rides one ticket, so its lines share a
// flush whatever the timing: 50 mutations of 3 lines each take at most 50
// flushes.  An empty mutation gets no ticket, an append outside a mutation
// gets its own, and the file holds every line in append order.
TEST(SrvRecovery, MutationLinesShareOneTicket) {
  TempDir tmp("mutation");
  const std::string path = (tmp.dir / "p.wal").string();
  auto opened = GroupCommitter::open(path, {});
  ASSERT_TRUE(opened.ok()) << opened.error().str();
  auto committer = std::move(opened).take();

  std::string expected;
  for (std::uint64_t m = 1; m <= 50; ++m) {
    committer->begin_mutation();
    for (int i = 0; i < 3; ++i) {
      const std::string line = std::to_string(m) + " " + std::to_string(i);
      ASSERT_TRUE(committer->append(line).ok());
      expected += line + "\n";
    }
    auto ticket = committer->end_mutation();
    ASSERT_TRUE(ticket.ok()) << ticket.error().str();
    EXPECT_EQ(ticket.value(), m);
  }
  committer->begin_mutation();
  auto empty = committer->end_mutation();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value(), 0u);
  ASSERT_TRUE(committer->append("bare").ok());
  expected += "bare\n";
  EXPECT_EQ(committer->last_enqueued(), 51u);

  ASSERT_TRUE(committer->wait_durable(51).ok());
  auto stats = committer->stats();
  EXPECT_EQ(stats.lines, 151u);
  EXPECT_EQ(stats.lines_flushed, 151u);
  EXPECT_LE(stats.flushes, 51u);
  EXPECT_GE(stats.batch_max, 3u);
  EXPECT_EQ(slurp(path), expected);
}

// The shard's write lane without a project: 4 threads x 250 mutations of 3
// lines, each mutation under one mutex as under the shard lock, and each
// thread waiting for its ticket outside it, so writes are handed from thread
// to thread in whatever order the scheduler picks.  Every line lands once,
// each mutation's lines stay together, and each thread's mutations land in
// the order it made them.
TEST(SrvRecovery, ConcurrentMutationsLandOnceAndInOrder) {
  TempDir tmp("waiters");
  const std::string path = (tmp.dir / "p.wal").string();
  auto opened = GroupCommitter::open(path, {});
  ASSERT_TRUE(opened.ok()) << opened.error().str();
  auto committer = std::move(opened).take();

  constexpr int kThreads = 4;
  constexpr int kMutations = 250;
  constexpr int kLines = 3;
  std::mutex shard_lock;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int m = 0; m < kMutations; ++m) {
        util::Result<std::uint64_t> ticket = std::uint64_t{0};
        {
          std::lock_guard<std::mutex> lock(shard_lock);
          committer->begin_mutation();
          for (int i = 0; i < kLines; ++i) {
            const std::string line = std::to_string(t) + " " +
                                     std::to_string(m) + " " + std::to_string(i);
            if (!committer->append(line).ok()) failures.fetch_add(1);
          }
          ticket = committer->end_mutation();
        }
        if (!ticket.ok() || ticket.value() == 0 ||
            !committer->wait_durable(ticket.value()).ok())
          failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  std::vector<int> next_mutation(kThreads, 0);
  int landed = 0;
  int prev_t = -1, prev_m = -1, prev_i = kLines - 1;
  std::string first_fault;
  std::istringstream lines(slurp(path));
  for (int t, m, i; lines >> t >> m >> i; ++landed) {
    const bool in_order =
        t >= 0 && t < kThreads && i >= 0 && i < kLines &&
        (i == 0 ? prev_i == kLines - 1 && m == next_mutation[t]
                : t == prev_t && m == prev_m && i == prev_i + 1);
    if (!in_order && first_fault.empty())
      first_fault = "line " + std::to_string(landed) + ": " +
                    std::to_string(t) + " " + std::to_string(m) + " " +
                    std::to_string(i);
    if (in_order && i == 0) ++next_mutation[t];
    prev_t = t, prev_m = m, prev_i = i;
  }
  EXPECT_EQ(first_fault, "");
  EXPECT_EQ(landed, kThreads * kMutations * kLines);
  EXPECT_EQ(prev_i, kLines - 1);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(next_mutation[t], kMutations);
  auto stats = committer->stats();
  EXPECT_EQ(stats.lines_flushed, static_cast<std::uint64_t>(landed));
  EXPECT_LE(stats.flushes, static_cast<std::uint64_t>(kThreads * kMutations));
}

// The group committer writes on the thread that waits for durability, so a
// shard starts no thread of its own.
TEST(SrvRecovery, OpeningShardsStartsNoThread) {
  auto threads = [] {
    std::size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  TempDir tmp("threads");
  const std::size_t before = threads();
  std::vector<std::unique_ptr<ProjectShard>> shards;
  for (int i = 0; i < 4; ++i) {
    auto shard = ProjectShard::create("p" + std::to_string(i),
                                      small_scenario(20 + i), options_in(tmp));
    ASSERT_TRUE(shard.ok()) << shard.error().str();
    shards.push_back(std::move(shard).take());
  }
  EXPECT_EQ(threads(), before);
}

TEST(SrvRecovery, DurableModeSyncsAndSurvivesShutdown) {
  TempDir tmp("durable");
  auto shard = ProjectShard::create("p", small_scenario(7),
                                    options_in(tmp, /*durable=*/true));
  ASSERT_TRUE(shard.ok()) << shard.error().str();
  std::int64_t runs = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto response = shard.value()->apply(execute_request(i, "pat"));
    ASSERT_TRUE(response.ok);
    runs += response.result.as_object().at("runs").as_int();
  }
  // Durable mode fsyncs every batch.
  auto stats = shard.value()->committer().stats();
  EXPECT_GT(stats.synced, 0u);
  EXPECT_EQ(stats.synced, stats.flushes);

  std::string expected = hercules::save_to_json(shard.value()->manager_for_test());
  ASSERT_TRUE(shard.value()->shutdown().ok());
  shard.value().reset();

  auto recovered =
      ProjectShard::recover("p", 120, options_in(tmp, /*durable=*/true));
  ASSERT_TRUE(recovered.ok()) << recovered.error().str();
  EXPECT_EQ(hercules::save_to_json(recovered.value()->manager_for_test()),
            expected);
  const Json stats2 = recovered.value()->stats_json();
  EXPECT_EQ(stats2.as_object().at("run_count").as_int(), runs);
}

// Once a flush fails, nothing queued behind it may reach the file: recovery
// replays records strictly in order, so a batch written after a lost one
// leaves a WAL it refuses, and its waiters could be acknowledged for lines
// that never landed.  Two appenders race each other's writes while the
// k-th IO (the first is the open) fails; each one's lines on disk must be a
// gap-free prefix of what it appended.
TEST(SrvRecovery, GroupCommitWritesNothingAfterAFailedFlush) {
  TempDir tmp("hole");
  const std::string path = (tmp.dir / "p.wal").string();
  constexpr int kLinesPerAppender = 4000;
  int trials_with_hole = 0;
  for (std::uint64_t k = 2; k <= 31; ++k) {
    {
      util::FsFaultPlan plan;
      plan.path_filter = tmp.dir.string();
      plan.eio_on = {k};
      util::ScopedFaultFs faults(1, plan);
      auto opened = GroupCommitter::open(path, {});
      ASSERT_TRUE(opened.ok()) << opened.error().str();
      auto committer = std::move(opened).take();
      std::vector<std::thread> appenders;
      for (int t = 0; t < 2; ++t) {
        appenders.emplace_back([&committer, t] {
          for (int i = 0; i < kLinesPerAppender; ++i)
            if (!committer->append(std::to_string(t) + " " + std::to_string(i))
                     .ok())
              return;
        });
      }
      for (auto& appender : appenders) appender.join();
      (void)committer->sync_now();
    }
    std::map<int, int> next;  // appender -> the line number expected next
    bool hole = false;
    std::istringstream lines(slurp(path));
    for (int t, i; lines >> t >> i;) {
      if (i != next[t]) hole = true;
      next[t] = i + 1;
    }
    if (hole) ++trials_with_hole;
  }
  EXPECT_EQ(trials_with_hole, 0);
}

// A request that lands after another request's flush failed, but before
// that request latched the shard read-only, finds a committer that refuses
// its journal lines.  Nothing of it reached the WAL, so it must not be
// acknowledged.
TEST(SrvRecovery, MutationAfterAFailedFlushIsNotAcknowledged) {
  TempDir tmp("refused");
  auto shard = ProjectShard::create("p", small_scenario(8), options_in(tmp));
  ASSERT_TRUE(shard.ok()) << shard.error().str();
  {
    util::FsFaultPlan plan;
    plan.path_filter = shard.value()->wal_path();
    plan.eio_on = {1};
    util::ScopedFaultFs faults(1, plan);
    GroupCommitter& committer = shard.value()->committer();
    committer.begin_mutation();
    ASSERT_TRUE(committer.append("another request's line").ok());
    auto ticket = committer.end_mutation();
    ASSERT_TRUE(ticket.ok()) << ticket.error().str();
    ASSERT_FALSE(committer.wait_durable(ticket.value()).ok());
  }
  auto response = shard.value()->apply(execute_request(1, "pat"));
  EXPECT_FALSE(response.ok);
  EXPECT_TRUE(response.error.retryable()) << response.error.str();
  EXPECT_TRUE(shard.value()->read_only());
}

// A real open() failure is a storage fault like an injected one.  With the
// shard's directory gone, `save` cannot write its snapshot: it fails
// retryable and latches the shard read-only, so the next execute is refused
// rather than acknowledged into a WAL that no directory holds any more.
TEST(SrvRecovery, SaveIntoARemovedDirectoryDegradesTheShard) {
  TempDir tmp("removed");
  auto shard = ProjectShard::create("p", small_scenario(9), options_in(tmp));
  ASSERT_TRUE(shard.ok()) << shard.error().str();
  ASSERT_TRUE(shard.value()->apply(execute_request(1, "pat")).ok);
  std::filesystem::remove_all(tmp.dir);

  wire::Request save;
  save.id = 2;
  save.project = "p";
  save.op = "save";
  auto saved = shard.value()->apply(save);
  EXPECT_FALSE(saved.ok);
  EXPECT_TRUE(saved.error.retryable()) << saved.error.str();
  EXPECT_TRUE(shard.value()->read_only());
  auto refused = shard.value()->apply(execute_request(3, "pat"));
  EXPECT_FALSE(refused.ok);
  EXPECT_TRUE(refused.error.retryable()) << refused.error.str();
}

// Removing the shard's directory unlinks its WAL, yet write() into the open
// descriptor still succeeds.  The committer's link check fails that batch,
// so the execute is not acknowledged into a file recovery can no longer
// find, and the shard latches read-only while reads and `stats` answer.
TEST(SrvRecovery, ExecuteAfterTheDirectoryIsRemovedIsNotAcknowledged) {
  TempDir tmp("unlinked");
  auto shard = ProjectShard::create("p", small_scenario(10), options_in(tmp));
  ASSERT_TRUE(shard.ok()) << shard.error().str();
  auto request = [](std::uint64_t id, const std::string& op) {
    wire::Request r;
    r.id = id;
    r.project = "p";
    r.op = op;
    return r;
  };
  ASSERT_TRUE(shard.value()->apply(request(1, "plan")).ok);
  ASSERT_TRUE(shard.value()->apply(execute_request(2, "pat")).ok);
  std::filesystem::remove_all(tmp.dir);

  auto refused = shard.value()->apply(execute_request(3, "pat"));
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error.code, util::Error::Code::kIoError);
  EXPECT_TRUE(refused.error.retryable()) << refused.error.str();
  EXPECT_TRUE(shard.value()->read_only());
  EXPECT_TRUE(shard.value()->apply(request(4, "stats")).ok);
  auto read = shard.value()->apply(request(5, "status"));
  EXPECT_TRUE(read.ok) << read.error.str();
}

// Satellite (a): the fsio primitives underneath the durability contract.
TEST(SrvRecovery, DurableAtomicWriteAndAppendFile) {
  TempDir tmp("fsio");
  const std::string path = (tmp.dir / "atomic.json").string();
  ASSERT_TRUE(util::write_file_atomic(path, "{\"v\":1}", /*durable=*/true).ok());
  EXPECT_EQ(slurp(path), "{\"v\":1}");
  // Overwrite is atomic too — and no temp file lingers.
  ASSERT_TRUE(util::write_file_atomic(path, "{\"v\":2}", /*durable=*/true).ok());
  EXPECT_EQ(slurp(path), "{\"v\":2}");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  util::AppendFile file;
  const std::string log = (tmp.dir / "a.log").string();
  ASSERT_TRUE(file.open_trunc(log).ok());
  ASSERT_TRUE(file.append("one\n").ok());
  ASSERT_TRUE(file.sync().ok());
  ASSERT_TRUE(file.append("two\n").ok());
  file.close();
  EXPECT_EQ(slurp(log), "one\ntwo\n");
  EXPECT_TRUE(util::sync_parent_dir(log).ok());
}

}  // namespace
}  // namespace herc::srv
