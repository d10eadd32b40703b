#pragma once
// herc::gen — the unified, seeded scenario generator.
//
// Every synthetic flow in the repository comes from here: the benchmark
// workload shapes (chain / fanin / layered), the property tests' random
// acyclic schemas, the CPM kernel's random activity networks, and the fuzz
// harness's end-to-end scenarios.  One ScenarioSpec — seed, shape, size,
// duration distributions, fault plan, execution mode — deterministically
// produces one Scenario: an explicit flow graph, the schema DSL rendered
// from it, per-activity estimates, and everything needed to build a
// ready-to-run WorkflowManager.  The same spec yields a byte-identical
// scenario on every platform (all randomness flows through util::Rng).
//
// A Scenario is *materialized*: it carries the graph and durations
// explicitly rather than re-deriving them from the spec, so the fuzz
// shrinker can delta-debug it (drop rules, shrink durations, drop faults)
// and the result still serializes to a self-contained corpus file
// (scenario_to_json / scenario_from_json) that replays forever.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cpm.hpp"
#include "exec/executor.hpp"
#include "exec/fault.hpp"
#include "hercules/workflow_manager.hpp"
#include "util/json.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace herc::gen {

// --- flow graphs -------------------------------------------------------------

/// One construction rule of a generated flow.  The estimate rides along so
/// shrinking a rule away removes its duration with it.
struct GenRule {
  std::string name;                ///< activity name, unique in the graph
  std::string output;              ///< data type produced
  std::vector<std::string> inputs; ///< data types consumed (may be empty)
  std::int64_t est_minutes = 240;  ///< designer intuition estimate
};

/// An explicit acyclic flow: data types in declaration order plus rules.
/// All generated schemas use a single tool type "t" (instance "t1"), which
/// matches every workload the benches and tests historically used.
struct FlowGraph {
  std::string schema_name = "scenario";
  std::vector<std::string> data_types;  ///< DSL declaration order
  std::vector<GenRule> rules;           ///< DSL declaration order
  std::string target;                   ///< data type the task tree extracts

  /// Data types no rule produces — bound as "<type>.in" by make_manager.
  [[nodiscard]] std::vector<std::string> primary_inputs() const;
};

/// Renders the graph in the schema DSL accepted by schema::parse_schema.
/// Byte-stable: the same graph always renders to the same text, and the
/// legacy shapes below render exactly the strings the seed benchmarks used
/// (so BENCH_BASELINE.json keeps measuring identical workloads).
[[nodiscard]] std::string render_schema(const FlowGraph& graph);

// --- scenario specification --------------------------------------------------

enum class Shape { kChain, kFanin, kLayered, kRandom };
[[nodiscard]] const char* shape_name(Shape s);
[[nodiscard]] util::Result<Shape> parse_shape(const std::string& name);

enum class ExecMode { kSerial, kConcurrent };
[[nodiscard]] const char* exec_mode_name(ExecMode m);

/// Distribution family for the per-activity estimate draws.  kUniform is
/// the historical inclusive-range draw (identical seeds keep producing
/// identical scenarios); the heavy-tailed families model production
/// workloads where a few activities dominate the makespan.
enum class DurationDist { kUniform, kLognormal, kPareto };
[[nodiscard]] const char* duration_dist_name(DurationDist d);
[[nodiscard]] util::Result<DurationDist> parse_duration_dist(const std::string& name);

/// Production-shaped events layered over a scenario's execution by the
/// adversarial driver in the fuzz harness: mid-flight replans, conflicting
/// multi-designer edits after the base execution, and primary-input
/// revisions that force selective re-execution.  Indices are resolved
/// modulo the current graph, so shrinking rules away never invalidates a
/// plan.
struct AdversarialPlan {
  /// Replan the task after the k-th completed activity (1-based).
  std::vector<int> replans;
  struct Edit {
    std::size_t rule = 0;  ///< rule index (mod rules.size())
    std::string designer;  ///< conflicting designer re-running it
  };
  std::vector<Edit> edits;
  /// Primary inputs (mod primary_inputs().size()) re-imported as new
  /// versions before the edit wave — the stale-propagation trigger.
  std::vector<std::size_t> input_revisions;

  [[nodiscard]] bool empty() const {
    return replans.empty() && edits.empty() && input_revisions.empty();
  }
};

/// Seeded recipe for one scenario.  `size` is the shape's primary scale:
/// chain length, fanin width, layered layer count, or random rule count.
struct ScenarioSpec {
  std::uint64_t seed = 1;
  Shape shape = Shape::kRandom;
  std::size_t size = 8;
  std::size_t width = 4;    ///< layered shapes only: activities per layer
  std::size_t inputs = 2;   ///< random shapes only: primary input count
  int resources = 1;        ///< people registered as r0..rN-1

  // Duration distributions (uniform work minutes, inclusive).
  std::int64_t tool_minutes_lo = 30, tool_minutes_hi = 600;
  std::int64_t est_minutes_lo = 60, est_minutes_hi = 960;
  std::int64_t minutes_per_day = 480;

  // Heavy-tail shape for the estimate draws.  kLognormal draws
  // exp(N(ln(geometric mid of lo..hi), sigma)); kPareto draws
  // lo / U^(1/alpha).  Both clamp into [1, 64 * est_minutes_hi].
  DurationDist duration_dist = DurationDist::kUniform;
  double dist_sigma = 1.0;  ///< lognormal shape parameter
  double dist_alpha = 1.3;  ///< pareto tail index (lower = heavier tail)

  /// 0 = no adversarial plan; (0, 1] scales how many replans, conflicting
  /// edits and input revisions generate() draws into Scenario::adversarial.
  double adversity = 0.0;

  // Fault plan knobs (materialized into Scenario::faults).
  std::uint64_t fault_seed = 0;  ///< 0 = no injector installed
  double fail_prob = 0.0;        ///< wildcard injected failure probability
  int fail_on = 0;               ///< if > 0: this invocation index always fails
  double latency_factor = 1.0;   ///< wildcard duration multiplier

  // Execution semantics.
  ExecMode mode = ExecMode::kSerial;
  exec::FailurePolicy policy = exec::FailurePolicy::kAbort;
  int max_attempts = 1;
  std::int64_t timeout_minutes = 0;  ///< per-attempt budget; 0 = unlimited
  std::int64_t backoff_minutes = 0;  ///< work time before each retry
};

/// A fully materialized scenario: spec provenance + explicit graph +
/// durations + faults + execution knobs.  Self-contained and serializable.
struct Scenario {
  ScenarioSpec spec;  ///< provenance; stale after shrinking (graph wins)
  FlowGraph graph;
  std::int64_t minutes_per_day = 480;
  std::int64_t tool_minutes = 120;      ///< nominal run time of tool "t1"
  std::int64_t fallback_minutes = 240;  ///< estimator fallback
  int resources = 1;
  std::uint64_t fault_seed = 0;
  exec::FaultPlan faults;
  ExecMode mode = ExecMode::kSerial;
  exec::FailurePolicy policy = exec::FailurePolicy::kAbort;
  int max_attempts = 1;
  std::int64_t timeout_minutes = 0;
  std::int64_t backoff_minutes = 0;
  AdversarialPlan adversarial;

  [[nodiscard]] std::string dsl() const { return render_schema(graph); }
};

/// Structural facts generation promises about a scenario; gen_test checks
/// them, the fuzz harness re-checks them against the parsed schema.
struct StructuralFacts {
  std::size_t n_rules = 0;
  std::size_t n_data_types = 0;
  std::size_t n_primary_inputs = 0;
  std::string target;
};
[[nodiscard]] StructuralFacts facts(const Scenario& scenario);

/// Deterministically expands a spec into a scenario.  Sizes are clamped to
/// sane bounds (>= 1 activity, <= 64 per dimension); the clamped values are
/// reflected in the returned scenario's spec.
[[nodiscard]] Scenario generate(const ScenarioSpec& spec);

/// Builds a ready-to-run manager: schema parsed, tool "t1" registered with
/// the scenario's nominal, resources added, task "job" extracted for the
/// target, every leaf bound (data leaves to "<type>.in"), per-activity
/// intuition estimates plus fallback set, execution options applied, and
/// the fault injector installed when fault_seed != 0.
[[nodiscard]] util::Result<std::unique_ptr<hercules::WorkflowManager>> make_manager(
    const Scenario& scenario);

/// The scenario's activity network for the CPM oracles: one activity per
/// rule (graph order), finish-to-start edges from producing rules, durations
/// from the estimates.
[[nodiscard]] std::vector<sched::CpmActivity> cpm_network(const Scenario& scenario);

// --- serialization -----------------------------------------------------------

/// Self-contained corpus form.  scenario_to_json(from_json(j)) reproduces
/// `j`'s dump byte-identically (round-trip tested).
[[nodiscard]] util::Json scenario_to_json(const Scenario& scenario);
[[nodiscard]] util::Result<Scenario> scenario_from_json(const util::Json& json);

// --- server request streams --------------------------------------------------
//
// Seeded op sequences for driving one hosted project over the herc::srv wire
// protocol.  Kept abstract (op name + args document) so gen does not depend
// on the wire layer; srv tests and the load driver wrap them in frames.

/// One abstract project request.
struct GenRequest {
  std::string op;         ///< "execute" | "status" | "stats" | "advance"
  util::JsonObject args;  ///< op-specific payload (designer, minutes, ...)
};

/// Recipe for a request mix: mostly mutations (execute), a read share
/// (status/stats alternating) and an occasional clock advance.  Fractions
/// are clamped so they sum to at most 1; the remainder is executes.
struct RequestStreamSpec {
  std::uint64_t seed = 1;
  std::size_t count = 100;
  int designers = 4;             ///< designer0..designerN-1 round-robin pool
  double read_fraction = 0.2;
  double advance_fraction = 0.05;
  std::int64_t advance_minutes_lo = 30;
  std::int64_t advance_minutes_hi = 480;
};

/// Deterministically expands the spec: identical specs yield identical
/// streams on every platform.
[[nodiscard]] std::vector<GenRequest> request_stream(const RequestStreamSpec& spec);

// --- legacy workload shapes --------------------------------------------------
//
// Exact replacements for the generators that used to live in
// bench/workloads.hpp and tests/property_test.cpp.  The schema strings are
// byte-identical to the seed versions: identical seeds (and sizes) produce
// identical workloads, keeping BENCH_BASELINE.json comparable.

/// Serial chain: d0 -> A1 -> d1 -> ... -> dn.
[[nodiscard]] std::string chain_schema(std::size_t n);
[[nodiscard]] FlowGraph chain_graph(std::size_t n);

/// `width` independent producers feeding one merge activity.
[[nodiscard]] std::string fanin_schema(std::size_t width);
[[nodiscard]] FlowGraph fanin_graph(std::size_t width);

/// `layers` x `width` activities; (l, w) consumes (l-1, w) and
/// (l-1, (w+1) % width); a final Join merges the last layer.
[[nodiscard]] std::string layered_schema(std::size_t layers, std::size_t width);
[[nodiscard]] FlowGraph layered_graph(std::size_t layers, std::size_t width);

/// Random acyclic schema: `inputs` primary inputs, `rules` rules each
/// consuming 1-3 earlier types (always including the immediately previous
/// one, so the last rule's output transitively covers every rule).
[[nodiscard]] FlowGraph random_graph(util::Rng& rng, std::size_t inputs,
                                     std::size_t rules);

/// Ready-to-run manager over a schema DSL: one "t1" instance for tool type
/// "t", every primary input bound, fallback estimate set, task "job"
/// extracted for `target`.  (The bench workloads' make_manager.)
[[nodiscard]] std::unique_ptr<hercules::WorkflowManager> make_bound_manager(
    const std::string& dsl, const std::string& target,
    cal::WorkDuration tool_time = cal::WorkDuration::hours(2));

/// Random CPM activity network (the scheduling benches' distribution:
/// durations 10..480, up to 4 bounded-probability predecessors).
[[nodiscard]] std::vector<sched::CpmActivity> random_cpm_network(std::size_t n,
                                                                 double edge_p,
                                                                 std::uint64_t seed);

/// Random DAG with releases (the CPM solver tests' distribution: durations
/// 0..500, 20% release chance, every earlier activity an edge candidate).
[[nodiscard]] std::vector<sched::CpmActivity> random_cpm_dag(util::Rng& rng,
                                                             std::size_t n,
                                                             double edge_p);

/// Chain-shaped CPM network (60-minute activities).
[[nodiscard]] std::vector<sched::CpmActivity> chain_cpm_network(std::size_t n);

// --- mega-graphs -------------------------------------------------------------

/// Recipe for a CPM mega-graph.  Only kLayered and kRandom apply; every pred
/// of activity i has index < i (forward-indexed), which is what keeps the
/// graphs cycle-free by construction at any scale.
struct MegaGraphSpec {
  std::uint64_t seed = 1;
  Shape shape = Shape::kLayered;
  std::size_t activities = 1u << 20;
  /// kLayered: activities per level; (l, w) depends on (l-1, w) and
  /// (l-1, (w+1) % width) — the layered_graph wiring at mega scale.
  std::size_t width = 1024;
  /// kRandom: up to this many bounded-probability preds per activity
  /// (random_cpm_network's density rule).
  std::size_t max_preds = 4;
  double edge_p = 0.9;
  std::int64_t minutes_lo = 10, minutes_hi = 480;
  double release_p = 0.0;        ///< chance of a nonzero release
  std::int64_t release_hi = 300; ///< release ~ uniform[0, release_hi]
};

/// The spec's network, ready for sched::CpmSolver::compile.  Deterministic:
/// identical specs give identical networks on every call and platform.
[[nodiscard]] std::vector<sched::CpmActivity> mega_cpm_network(
    const MegaGraphSpec& spec);

}  // namespace herc::gen
