// Epoch-reclamation edge cases for snapshot reads (hercules::ReadView):
//
//   - a reader pinning the oldest epoch while the writer publishes many more
//     keeps memory bounded (exactly pinned + newest alive, everything between
//     reclaimed) and keeps reading its own epoch's bytes;
//   - a view pinned before the clock advances stays at its snapshot instant
//     (renders are byte-stable) while the manager moves on;
//   - recovery rebuilds into a fresh epoch sequence: the recovered shard's
//     first published view is epoch 1, with no retired epochs carried over;
//   - the per-epoch response memo computes a cold key once however many
//     readers race on it, and never makes a reader of one key wait for
//     another key's computation;
//   - the memo is the read path's only result cache: a new epoch runs the
//     query engine again even for a table that did not change.

#include <gtest/gtest.h>

#include <filesystem>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "gen/gen.hpp"
#include "srv/shard.hpp"

namespace herc::hercules {
namespace {

using test::make_circuit_manager;

/// One failed run attributed to `designer`; bumps only the runs table.
void append_failed_run(WorkflowManager& m, const std::string& designer) {
  meta::Run run;
  run.activity = "Create";
  run.tool_binding = "ned-2.1";
  run.designer = designer;
  run.status = meta::RunStatus::kFailed;
  run.started_at = m.clock().now();
  run.finished_at = m.clock().now();
  (void)m.db().record_run(std::move(run));
}

TEST(SnapshotReclamation, PinnedOldestEpochBoundsLiveViews) {
  auto m = make_circuit_manager();
  ASSERT_TRUE(m->plan_task("adder", {.anchor = m->clock().now()}).ok());

  // Pin the oldest epoch, render through it once, remember the bytes.
  std::shared_ptr<const ReadView> pinned = m->read_view();
  const std::uint64_t pinned_epoch = pinned->epoch();
  auto before = pinned->query("select runs");
  ASSERT_TRUE(before.ok()) << before.error().str();

  // Heavy writes: every append changes the database, so every read_view()
  // call publishes a new epoch.  The intermediate views have no reader and
  // must be reclaimed as they are superseded.
  std::uint64_t last_epoch = pinned_epoch;
  for (int i = 0; i < 50; ++i) {
    append_failed_run(*m, "pinner");
    auto v = m->read_view();
    EXPECT_GT(v->epoch(), last_epoch);
    last_epoch = v->epoch();
  }
  EXPECT_EQ(m->snapshots_published(), pinned_epoch + 50);

  // Bounded memory: only the pinned epoch and the manager's newest cache
  // survive; the 49 epochs in between are gone.
  EXPECT_EQ(m->snapshots_live(), 2);

  // The pinned epoch still replays its own bytes, not the new state.
  auto after = pinned->query("select runs");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value(), after.value());
  auto fresh = m->read_view()->query("select runs");
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh.value(), before.value());

  // Dropping the pin reclaims it: only the cache remains.
  pinned.reset();
  EXPECT_EQ(m->snapshots_live(), 1);
}

TEST(SnapshotReclamation, ViewPinnedBeforeAdvanceStaysAtItsInstant) {
  auto m = make_circuit_manager();
  ASSERT_TRUE(m->plan_task("adder", {.anchor = m->clock().now()}).ok());

  std::shared_ptr<const ReadView> pinned = m->read_view();
  const auto pinned_now = pinned->now();
  auto status_before = pinned->status_report("adder");
  ASSERT_TRUE(status_before.ok()) << status_before.error().str();

  // The project moves: the clock advances mid-flight and work lands.
  m->clock().advance(cal::WorkDuration::hours(30));
  append_failed_run(*m, "late");

  // The pinned view renders from its snapshot instant — byte-stable even
  // though "now" (and the status table's progress math) has moved on.
  EXPECT_EQ(pinned->now().minutes_since_epoch(),
            pinned_now.minutes_since_epoch());
  auto status_pinned = pinned->status_report("adder");
  ASSERT_TRUE(status_pinned.ok());
  EXPECT_EQ(status_before.value(), status_pinned.value());

  // A freshly published view sees the later instant and a new epoch.
  auto fresh = m->read_view();
  EXPECT_GT(fresh->epoch(), pinned->epoch());
  EXPECT_GT(fresh->now().minutes_since_epoch(),
            pinned_now.minutes_since_epoch());
  auto status_fresh = fresh->status_report("adder");
  ASSERT_TRUE(status_fresh.ok());
  EXPECT_NE(status_fresh.value(), status_before.value());
}

TEST(SnapshotReclamation, RecoveryRebuildsIntoFreshEpochSequence) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("herc_snapshot_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  gen::ScenarioSpec spec;
  spec.seed = 11;
  spec.shape = gen::Shape::kLayered;
  spec.size = 2;
  srv::ShardOptions options;
  options.dir = dir.string();

  auto shard = srv::ProjectShard::create("p", gen::generate(spec), options);
  ASSERT_TRUE(shard.ok()) << shard.error().str();

  // Drive the epoch counter well past 1.
  for (std::uint64_t id = 1; id <= 5; ++id) {
    srv::wire::Request request;
    request.id = id;
    request.project = "p";
    request.op = "execute";
    request.args.set("designer", "alice");
    (void)shard.value()->apply(request);
  }
  srv::wire::Request stats;
  stats.id = 99;
  stats.project = "p";
  stats.op = "stats";
  auto reply = shard.value()->apply(stats);
  ASSERT_TRUE(reply.ok);
  const util::JsonObject& sn =
      reply.result.as_object().at("snapshots").as_object();
  EXPECT_GT(sn.at("epoch").as_int(), 1);

  shard.value()->simulate_crash();
  auto recovered = srv::ProjectShard::recover("p", 120, options);
  ASSERT_TRUE(recovered.ok()) << recovered.error().str();

  // The recovered manager starts a fresh epoch sequence: exactly one view
  // published (the factory's), nothing retired from the old incarnation.
  auto reply2 = recovered.value()->apply(stats);
  ASSERT_TRUE(reply2.ok);
  const util::JsonObject& sn2 =
      reply2.result.as_object().at("snapshots").as_object();
  EXPECT_EQ(sn2.at("epoch").as_int(), 1);
  EXPECT_EQ(sn2.at("published").as_int(), 1);
  EXPECT_EQ(sn2.at("live").as_int(), 1);
  EXPECT_EQ(sn2.at("retired_unreclaimed").as_int(), 0);

  // And the fresh epoch serves the read lane.
  srv::wire::Request query;
  query.id = 100;
  query.project = "p";
  query.op = "query";
  query.args.set("statement", std::string("select runs"));
  auto answer = recovered.value()->apply(query);
  EXPECT_TRUE(answer.ok);

  std::filesystem::remove_all(dir);
}

TEST(ReadViewMemo, RacingReadersOfAColdKeyComputeItOnce) {
  auto m = make_circuit_manager();
  ASSERT_TRUE(m->plan_task("adder", {.anchor = m->clock().now()}).ok());
  append_failed_run(*m, "racer");
  std::shared_ptr<const ReadView> view = m->read_view();  // nothing memoized

  // Every engine execute counts one cache hit or one miss, so the sum
  // counts how often the memo ran its compute.
  auto executes = [&m] {
    const query::EngineStats stats = m->query_engine().stats();
    return stats.cache_hits + stats.cache_misses;
  };
  const std::uint64_t before = executes();

  constexpr int kReaders = 8;
  std::latch start(kReaders);
  std::vector<std::string> answers(kReaders);
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      start.arrive_and_wait();
      auto answer = view->query("select runs");
      answers[i] = answer.ok() ? answer.value() : answer.error().str();
    });
  }
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(executes() - before, 1u);
  for (const std::string& answer : answers) EXPECT_EQ(answer, answers[0]);
  EXPECT_NE(answers[0].find("racer"), std::string::npos) << answers[0];
}

TEST(ReadViewMemo, EachEpochRunsTheEngineOnceAndRepeatsRunItNever) {
  auto m = make_circuit_manager();
  ASSERT_TRUE(m->plan_task("adder", {.anchor = m->clock().now()}).ok());
  auto executions = [&m] { return m->query_engine().stats().cache_misses; };
  // (engine executions, bytes) of one `select plans` through `view`.
  auto query_plans = [&](const ReadView& view) {
    const std::uint64_t before = executions();
    auto answer = view.query("select plans");
    EXPECT_TRUE(answer.ok());
    return std::make_pair(executions() - before, answer.ok() ? answer.value() : "");
  };

  std::shared_ptr<const ReadView> first = m->read_view();
  const auto [cold, plans] = query_plans(*first);
  EXPECT_EQ(cold, 1u);
  EXPECT_EQ(query_plans(*first), std::make_pair(std::uint64_t{0}, plans));

  // A run append publishes a new epoch and leaves the plans table as it was;
  // with no cache across epochs, the new epoch executes the statement again.
  append_failed_run(*m, "writer");
  std::shared_ptr<const ReadView> second = m->read_view();
  ASSERT_GT(second->epoch(), first->epoch());
  EXPECT_EQ(query_plans(*second), std::make_pair(std::uint64_t{1}, plans));
  EXPECT_EQ(query_plans(*second), std::make_pair(std::uint64_t{0}, plans));
  EXPECT_EQ(m->query_engine().stats().cache_hits, 0u);
}

TEST(ReadViewMemo, ColdComputeOfOneKeyDoesNotBlockAnotherKey) {
  ResponseMemo memo;
  std::latch computing(1);
  std::latch release(1);
  std::thread slow([&] {
    auto answer = memo.get("status\nslow", [&]() -> util::Result<std::string> {
      computing.count_down();
      release.wait();
      return std::string("slow");
    });
    EXPECT_EQ(answer.value(), "slow");
  });
  computing.wait();
  // The slow key's compute is parked until `release`.  A memo that computed
  // under its mutex would never return from this call.
  auto fast = memo.get("status\nfast",
                       []() -> util::Result<std::string> { return std::string("fast"); });
  release.count_down();
  slow.join();
  EXPECT_EQ(fast.value(), "fast");

  // Both keys stay memoized: a second get never computes.
  auto never = []() -> util::Result<std::string> {
    ADD_FAILURE() << "memoized key computed again";
    return std::string();
  };
  EXPECT_EQ(memo.get("status\nslow", never).value(), "slow");
  EXPECT_EQ(memo.get("status\nfast", never).value(), "fast");
}

}  // namespace
}  // namespace herc::hercules
