// Fuzz-harness tests: sampled scenarios pass all seven oracle families, each
// planted mutation is caught by exactly the family built to catch it (a
// harness whose oracles cannot fail tests nothing), and the reference CPM
// really is an independent check.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "gen/fuzz.hpp"

namespace herc::gen {
namespace {

std::string describe(const std::vector<OracleFailure>& failures) {
  std::ostringstream os;
  for (const auto& f : failures)
    os << "[" << oracle_name(f.family) << "] " << f.check << ": " << f.detail << "\n";
  return os.str();
}

TEST(Fuzz, SampledScenariosPassAllOracles) {
  util::Rng rng(2026);
  for (int i = 0; i < 20; ++i) {
    Scenario s = sample_scenario(rng);
    auto failures = run_scenario(s);
    EXPECT_TRUE(failures.empty())
        << "scenario " << i << " (spec seed " << s.spec.seed << "):\n"
        << describe(failures) << scenario_to_json(s).dump();
  }
}

// One fixed, fault-free scenario per mutation: fault-free so the run
// completes and the strict (non-lenient) oracle paths are exercised.
Scenario mutation_victim() {
  return generate({.seed = 31, .shape = Shape::kRandom, .size = 8, .inputs = 2});
}

struct MutationCase {
  Mutation mutation;
  unsigned family;
};

class MutationCatch : public ::testing::TestWithParam<MutationCase> {};

TEST_P(MutationCatch, PlantedBugIsCaughtByItsFamily) {
  auto [mutation, family] = GetParam();
  Scenario s = mutation_victim();
  // Sanity: clean run first; the bug must come from the mutation alone.
  ASSERT_TRUE(run_scenario(s).empty());
  auto failures = run_scenario(s, {.mutation = mutation});
  ASSERT_FALSE(failures.empty()) << "mutation " << mutation_name(mutation)
                                 << " was not caught";
  bool family_tripped = false;
  for (const auto& f : failures) family_tripped |= f.family == family;
  EXPECT_TRUE(family_tripped) << "wrong family caught it:\n" << describe(failures);
}

INSTANTIATE_TEST_SUITE_P(
    AllMutations, MutationCatch,
    ::testing::Values(MutationCase{Mutation::kMirrorDropRun, kOracleMirror},
                      MutationCase{Mutation::kCpmOffByOne, kOracleCpm},
                      MutationCase{Mutation::kRecoveryDropLine, kOracleRecovery},
                      MutationCase{Mutation::kRiskSeedSkew, kOracleRisk},
                      MutationCase{Mutation::kMetamorphicScale, kOracleMetamorphic},
                      MutationCase{Mutation::kQueryStaleView, kOracleQuery},
                      MutationCase{Mutation::kAdapterDropFiring, kOracleAdapter}),
    [](const auto& info) {
      std::string name = mutation_name(info.param.mutation);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Fuzz, OracleMaskRestrictsChecking) {
  Scenario s = mutation_victim();
  // The CPM bug is invisible when only the mirror family runs.
  EXPECT_TRUE(run_scenario(s, {.oracles = kOracleMirror,
                               .mutation = Mutation::kCpmOffByOne})
                  .empty());
  EXPECT_FALSE(run_scenario(s, {.oracles = kOracleCpm,
                                .mutation = Mutation::kCpmOffByOne})
                   .empty());
}

TEST(Fuzz, FuzzLoopSmoke) {
  FuzzOptions options;
  options.seed = 99;
  options.max_scenarios = 10;
  std::size_t progress_calls = 0;
  options.on_progress = [&](std::size_t) { ++progress_calls; };
  auto report = fuzz(options);
  EXPECT_EQ(report.scenarios, 10u);
  EXPECT_EQ(progress_calls, 10u);
  EXPECT_TRUE(report.failures.empty()) << describe(report.failures);
  EXPECT_FALSE(report.failing.has_value());
}

TEST(Fuzz, FuzzLoopStopsAndShrinksOnFailure) {
  FuzzOptions options;
  options.seed = 7;
  options.max_scenarios = 3;
  options.mutation = Mutation::kCpmOffByOne;  // every scenario fails
  auto report = fuzz(options);
  EXPECT_EQ(report.scenarios, 1u);  // stops at the first failure
  ASSERT_FALSE(report.failures.empty());
  ASSERT_TRUE(report.failing.has_value());
  ASSERT_TRUE(report.shrunk.has_value());
  EXPECT_LE(report.shrunk->graph.rules.size(), report.failing->graph.rules.size());
}

TEST(ReferenceCpm, AgreesOnChainAndDetectsCycles) {
  auto ref = reference_cpm(chain_cpm_network(10));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().makespan, 600);
  // Every chain activity is critical.  (The reference deliberately skips
  // critical-path reconstruction; the harness compares paths only between
  // compute_cpm and CpmSolver.)
  EXPECT_EQ(std::count(ref.value().critical.begin(), ref.value().critical.end(), true),
            10);

  std::vector<sched::CpmActivity> cyclic(2);
  cyclic[0].duration = 10;
  cyclic[0].preds = {1};
  cyclic[1].duration = 10;
  cyclic[1].preds = {0};
  EXPECT_FALSE(reference_cpm(cyclic).ok());
}

TEST(ReferenceCpm, MatchesComputeCpmOnRandomDags) {
  util::Rng rng(555);
  for (int i = 0; i < 10; ++i) {
    auto acts = random_cpm_dag(rng, 30, 0.1);
    auto ref = reference_cpm(acts);
    auto full = sched::compute_cpm(acts);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(ref.value().makespan, full.value().makespan);
    EXPECT_EQ(ref.value().early_start, full.value().early_start);
    EXPECT_EQ(ref.value().total_slack, full.value().total_slack);
    EXPECT_EQ(ref.value().critical, full.value().critical);
  }
}

}  // namespace
}  // namespace herc::gen
