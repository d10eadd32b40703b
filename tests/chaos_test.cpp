// Chaos-harness tests: a small but complete fault sweep — every IO point of
// the workload crossed with every fault kind, plus probabilistic trials —
// must hold the durability contract (acknowledged => recovered
// byte-identically, recovery deterministic, degraded shards read-only but
// alive) with zero violations on the shard's group-committed WAL.  The CI
// chaos job runs the same sweep at a larger scale through tools/herc_chaos.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "srv/chaos.hpp"

namespace herc::srv {
namespace {

ChaosOptions small_sweep(const std::string& tag) {
  ChaosOptions options;
  options.dir = (std::filesystem::temp_directory_path() /
                 ("herc_chaos_test_" + tag + "_" + std::to_string(::getpid())))
                    .string();
  options.seed = 7;
  options.ops = 4;
  options.save_every = 2;
  options.flow_size = 2;
  options.max_points = 10;  // keep the (points x kinds) grid test-sized
  options.random_trials = 3;
  options.fail_prob = 0.08;
  return options;
}

TEST(Chaos, SweepHoldsTheDurabilityContract) {
  auto report = run_chaos(small_sweep("sweep"));
  ASSERT_TRUE(report.ok()) << report.error().str();
  EXPECT_TRUE(report.value().ok()) << report.value().summary();

  // The sweep actually exercised the machinery: the workload has IO points,
  // every (point, kind) pair plus the probabilistic trials ran, faults were
  // injected, and at least one of them latched a shard read-only.
  EXPECT_GT(report.value().io_points, 0u);
  EXPECT_EQ(report.value().trials, 10u * 5u + 3u);
  EXPECT_GT(report.value().faults_injected, 0u);
  EXPECT_GT(report.value().read_only_trials, 0u);
  EXPECT_GT(report.value().recoveries, 0u);
  EXPECT_GT(report.value().acked_ops, 0u);
  // The scratch tree is cleaned up.
  EXPECT_FALSE(std::filesystem::exists(small_sweep("sweep").dir));
}

TEST(Chaos, ReportSerializesItsCounters) {
  ChaosReport report;
  report.io_points = 12;
  report.trials = 3;
  report.violations.push_back("example violation");
  const util::Json json = report.to_json();
  const auto& doc = json.as_object();
  EXPECT_EQ(doc.at("io_points").as_int(), 12);
  EXPECT_EQ(doc.at("trials").as_int(), 3);
  EXPECT_EQ(doc.at("violations").as_array().size(), 1u);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("example violation"), std::string::npos);
}

}  // namespace
}  // namespace herc::srv
