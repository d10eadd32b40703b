// herc::gen generator tests: determinism (same spec -> byte-identical DSL
// and corpus JSON), golden equality with the legacy workload strings the
// benches were baselined on, bound clamping, and the structural promise that
// every generated scenario parses into a runnable, acyclic flow.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gen/gen.hpp"
#include "util/rng.hpp"

namespace herc::gen {
namespace {

TEST(GenLegacy, ChainSchemaGolden) {
  EXPECT_EQ(chain_schema(2),
            "schema chain {\n"
            "  data d0, d1, d2;\n"
            "  tool t;\n"
            "  rule A1: d1 <- t(d0);\n"
            "  rule A2: d2 <- t(d1);\n"
            "}\n");
}

TEST(GenLegacy, FaninSchemaGolden) {
  EXPECT_EQ(fanin_schema(2),
            "schema fanin {\n"
            "  data out, s0, s1;\n"
            "  tool t;\n"
            "  rule Make0: s0 <- t();\n"
            "  rule Make1: s1 <- t();\n"
            "  rule Merge: out <- t(s0, s1);\n"
            "}\n");
}

TEST(GenLegacy, LayeredSchemaGolden) {
  EXPECT_EQ(layered_schema(1, 2),
            "schema layered {\n"
            "  data root, d0_0, d0_1, d1_0, d1_1;\n"
            "  tool t;\n"
            "  rule A1_0: d1_0 <- t(d0_0, d0_1);\n"
            "  rule A1_1: d1_1 <- t(d0_1, d0_0);\n"
            "  rule Join: root <- t(d1_0, d1_1);\n"
            "}\n");
}

TEST(GenLegacy, RandomGraphAlwaysParsesAndTargetsLastType) {
  for (std::uint64_t seed : {1u, 7u, 42u, 1995u}) {
    util::Rng rng(seed);
    auto graph = random_graph(rng, 2, 8);
    EXPECT_EQ(graph.target, "d9");
    auto m = hercules::WorkflowManager::create(render_schema(graph));
    ASSERT_TRUE(m.ok()) << m.error().message;
  }
}

TEST(Gen, SameSpecIsByteIdentical) {
  ScenarioSpec spec{.seed = 77,
                    .shape = Shape::kRandom,
                    .size = 10,
                    .inputs = 3,
                    .fault_seed = 5,
                    .fail_prob = 0.2};
  Scenario a = generate(spec), b = generate(spec);
  EXPECT_EQ(a.dsl(), b.dsl());
  EXPECT_EQ(scenario_to_json(a).dump(), scenario_to_json(b).dump());
}

// Mega-graphs are forward-indexed, so they are acyclic at any scale, and
// the same spec draws the same network.
TEST(GenMega, NetworksAreDeterministicAndForwardIndexed) {
  for (auto shape : {Shape::kLayered, Shape::kRandom}) {
    MegaGraphSpec spec{.seed = 21, .shape = shape, .activities = 1200, .width = 37,
                       .release_p = 0.15};
    auto acts = mega_cpm_network(spec);
    auto again = mega_cpm_network(spec);
    ASSERT_EQ(acts.size(), spec.activities);
    ASSERT_EQ(again.size(), spec.activities);
    for (std::size_t i = 0; i < acts.size(); ++i) {
      EXPECT_EQ(acts[i].duration, again[i].duration);
      EXPECT_EQ(acts[i].release, again[i].release);
      EXPECT_EQ(acts[i].preds, again[i].preds);
      for (std::size_t p : acts[i].preds) EXPECT_LT(p, i);
    }
  }
}

TEST(Gen, DistinctSeedsVaryDurations) {
  Scenario a = generate({.seed = 1, .shape = Shape::kRandom, .size = 12});
  Scenario b = generate({.seed = 2, .shape = Shape::kRandom, .size = 12});
  EXPECT_NE(scenario_to_json(a).dump(), scenario_to_json(b).dump());
}

TEST(Gen, EverySpecInGridParsesBindsAndIsAcyclic) {
  for (Shape shape : {Shape::kChain, Shape::kFanin, Shape::kLayered, Shape::kRandom}) {
    for (std::size_t size : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      for (std::uint64_t seed : {3u, 9u}) {
        Scenario s = generate({.seed = seed, .shape = shape, .size = size});
        auto m = make_manager(s);
        ASSERT_TRUE(m.ok()) << shape_name(shape) << "/" << size << ": "
                            << m.error().message;
        // Acyclicity: the scenario's activity network must admit a CPM solve.
        auto cpm = sched::compute_cpm(cpm_network(s));
        ASSERT_TRUE(cpm.ok()) << shape_name(shape) << "/" << size;
        EXPECT_GT(cpm.value().makespan, 0);
      }
    }
  }
}

TEST(Gen, FactsMatchTheGraph) {
  Scenario s = generate({.seed = 4, .shape = Shape::kLayered, .size = 2, .width = 3});
  StructuralFacts f = facts(s);
  EXPECT_EQ(f.n_rules, s.graph.rules.size());
  EXPECT_EQ(f.n_data_types, s.graph.data_types.size());
  EXPECT_EQ(f.n_primary_inputs, s.graph.primary_inputs().size());
  EXPECT_EQ(f.target, s.graph.target);
  // The target must actually be produced by some rule.
  bool produced = false;
  for (const auto& r : s.graph.rules) produced |= r.output == f.target;
  EXPECT_TRUE(produced);
}

TEST(Gen, BoundsAreClamped) {
  Scenario tiny = generate({.seed = 5, .shape = Shape::kChain, .size = 0});
  EXPECT_GE(tiny.graph.rules.size(), 1u);
  Scenario huge = generate({.seed = 5, .shape = Shape::kChain, .size = 1000});
  EXPECT_LE(huge.graph.rules.size(), 64u);
  Scenario wide = generate({.seed = 5, .shape = Shape::kRandom, .size = 8,
                            .inputs = 100});
  EXPECT_LE(wide.graph.primary_inputs().size(), 8u);
  // Estimates land inside the (sane-clamped) configured range.
  Scenario s = generate({.seed = 6, .shape = Shape::kRandom, .size = 10,
                         .tool_minutes_lo = 50, .tool_minutes_hi = 60,
                         .est_minutes_lo = 100, .est_minutes_hi = 110});
  EXPECT_GE(s.tool_minutes, 50);
  EXPECT_LE(s.tool_minutes, 60);
  for (const auto& r : s.graph.rules) {
    EXPECT_GE(r.est_minutes, 100);
    EXPECT_LE(r.est_minutes, 110);
  }
}

TEST(Gen, JsonRoundTripIsByteIdentical) {
  for (Shape shape : {Shape::kChain, Shape::kRandom}) {
    Scenario s = generate({.seed = 13,
                           .shape = shape,
                           .size = 6,
                           .resources = 2,
                           .fault_seed = 99,
                           .fail_prob = 0.25,
                           .latency_factor = 1.5,
                           .mode = ExecMode::kConcurrent,
                           .policy = exec::FailurePolicy::kRetryThenAbort,
                           .max_attempts = 3,
                           .timeout_minutes = 120});
    auto j = scenario_to_json(s);
    auto back = scenario_from_json(j);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(scenario_to_json(back.value()).dump(), j.dump());
  }
}

TEST(GenAdversarial, ZeroAdversityKeepsThePlanEmpty) {
  Scenario s = generate({.seed = 14, .shape = Shape::kRandom, .size = 8});
  EXPECT_TRUE(s.adversarial.empty());
}

TEST(GenAdversarial, PlanIsSeededDeterministicAndBounded) {
  ScenarioSpec spec{.seed = 15, .shape = Shape::kRandom, .size = 10,
                    .inputs = 3, .adversity = 1.0};
  Scenario a = generate(spec), b = generate(spec);
  EXPECT_FALSE(a.adversarial.empty());
  EXPECT_EQ(scenario_to_json(a).dump(), scenario_to_json(b).dump());
  // Every index stays resolvable against the generated graph.
  const auto n_rules = static_cast<int>(a.graph.rules.size());
  const auto n_primary = a.graph.primary_inputs().size();
  EXPECT_TRUE(std::is_sorted(a.adversarial.replans.begin(),
                             a.adversarial.replans.end()));
  for (int k : a.adversarial.replans) {
    EXPECT_GE(k, 1);
    EXPECT_LE(k, n_rules);
  }
  for (const auto& e : a.adversarial.edits) {
    EXPECT_LT(e.rule, a.graph.rules.size());
    EXPECT_EQ(e.designer.rfind("designer", 0), 0u);
  }
  for (std::size_t i : a.adversarial.input_revisions) EXPECT_LT(i, n_primary);
}

TEST(GenAdversarial, PlanRoundTripsThroughJsonByteIdentically) {
  Scenario s = generate({.seed = 16, .shape = Shape::kLayered, .size = 3,
                         .width = 3, .adversity = 0.7});
  ASSERT_FALSE(s.adversarial.empty());
  auto j = scenario_to_json(s);
  auto back = scenario_from_json(j);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(scenario_to_json(back.value()).dump(), j.dump());
  EXPECT_EQ(back.value().adversarial.replans, s.adversarial.replans);
  EXPECT_EQ(back.value().adversarial.input_revisions, s.adversarial.input_revisions);
  ASSERT_EQ(back.value().adversarial.edits.size(), s.adversarial.edits.size());
  for (std::size_t i = 0; i < s.adversarial.edits.size(); ++i) {
    EXPECT_EQ(back.value().adversarial.edits[i].rule, s.adversarial.edits[i].rule);
    EXPECT_EQ(back.value().adversarial.edits[i].designer,
              s.adversarial.edits[i].designer);
  }
}

TEST(GenHeavyTail, DrawsStayInsideTheClampAndEscapeTheUniformRange) {
  // Heavy-tailed draws are clamped into [1, 64 * est_minutes_hi]; with a
  // fat enough tail and enough activities, some draw must land beyond the
  // uniform hi bound — that's the whole point of the family.
  for (DurationDist dist : {DurationDist::kLognormal, DurationDist::kPareto}) {
    Scenario s = generate({.seed = 17, .shape = Shape::kRandom, .size = 64,
                           .inputs = 4, .duration_dist = dist,
                           .dist_sigma = 2.0, .dist_alpha = 0.8});
    std::int64_t above_hi = 0;
    for (const auto& r : s.graph.rules) {
      EXPECT_GE(r.est_minutes, 1);
      EXPECT_LE(r.est_minutes, 64 * s.spec.est_minutes_hi);
      if (r.est_minutes > s.spec.est_minutes_hi) ++above_hi;
    }
    EXPECT_GT(above_hi, 0) << duration_dist_name(dist);
  }
}

TEST(GenHeavyTail, MedianStaysNearTheConfiguredRange) {
  // The tail is heavy but the bulk is not: at least half the lognormal
  // draws stay within the uniform window's order of magnitude.
  Scenario s = generate({.seed = 18, .shape = Shape::kRandom, .size = 64,
                         .inputs = 4,
                         .duration_dist = DurationDist::kLognormal,
                         .dist_sigma = 1.0});
  std::vector<std::int64_t> mins;
  for (const auto& r : s.graph.rules) mins.push_back(r.est_minutes);
  std::sort(mins.begin(), mins.end());
  std::int64_t median = mins[mins.size() / 2];
  EXPECT_LE(median, 4 * s.spec.est_minutes_hi);
  EXPECT_GE(median, s.spec.est_minutes_lo / 4);
}

TEST(GenHeavyTail, DistributionNamesRoundTrip) {
  for (DurationDist d : {DurationDist::kUniform, DurationDist::kLognormal,
                         DurationDist::kPareto}) {
    auto parsed = parse_duration_dist(duration_dist_name(d));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), d);
  }
  EXPECT_FALSE(parse_duration_dist("cauchy").ok());
}

TEST(GenBursty, ZeroProbabilityKeepsTheHistoricalStreamShape) {
  RequestStreamSpec smooth{.seed = 21, .count = 60};
  RequestStreamSpec with_knobs = smooth;
  with_knobs.burst_len_lo = 2;  // knobs are inert while burst_prob == 0
  with_knobs.burst_len_hi = 3;
  auto a = request_stream(smooth);
  auto b = request_stream(with_knobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].op, b[i].op);
}

TEST(GenBursty, BurstsLandBackToBackAcrossTheDesignerPool) {
  RequestStreamSpec spec{.seed = 22, .count = 120, .designers = 3};
  spec.burst_prob = 0.5;
  spec.burst_len_lo = 4;
  spec.burst_len_hi = 6;
  auto stream = request_stream(spec);
  EXPECT_LE(stream.size(), spec.count);
  // Deterministic under the same seed.
  auto again = request_stream(spec);
  ASSERT_EQ(stream.size(), again.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].op, again[i].op);
    if (stream[i].args.contains("designer")) {
      EXPECT_EQ(stream[i].args.at("designer").as_string(),
                again[i].args.at("designer").as_string());
    }
  }
  // Find a burst: >= burst_len_lo consecutive executes cycling designer0,
  // designer1, designer2 in order.
  bool found_burst = false;
  std::size_t run = 0;
  for (const auto& r : stream) {
    if (r.op == "execute" &&
        r.args.at("designer").as_string() ==
            "designer" + std::to_string(run % 3)) {
      if (++run >= 4) found_burst = true;
    } else {
      run = 0;
    }
  }
  EXPECT_TRUE(found_burst) << "no round-robin execute storm in 120 requests";
}

TEST(Gen, FaultSeedMaterializesWildcardInjector) {
  Scenario clean = generate({.seed = 8, .shape = Shape::kChain, .size = 4});
  EXPECT_TRUE(clean.faults.tools.empty());
  Scenario faulty = generate({.seed = 8, .shape = Shape::kChain, .size = 4,
                              .fault_seed = 81, .fail_prob = 0.3});
  ASSERT_EQ(faulty.faults.tools.count("*"), 1u);
  EXPECT_DOUBLE_EQ(faulty.faults.tools.at("*").fail_prob, 0.3);
}

}  // namespace
}  // namespace herc::gen
