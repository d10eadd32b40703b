#pragma once
// Differential / metamorphic fuzz harness over herc::gen scenarios.
//
// run_scenario drives one generated scenario through the full pipeline —
// parse -> plan -> risk -> execute (with injected faults) -> link/track ->
// persist + journal -> crash -> recover -> query — and checks seven oracle
// families on the way:
//
//   cpm          full compute_cpm, an incrementally re-solved CpmSolver, and
//                an independent naive fixpoint reference agree exactly;
//   mirror       the planner's schedule instances are node-for-node
//                isomorphic to the executor's run metadata (the paper's
//                schedule-space mirror), under every failure policy;
//   recovery     snapshot + journal replay reproduces an uninterrupted save
//                byte-identically, composes across every journal prefix,
//                tolerates a torn tail, and a real injected crash recovers
//                to exactly the journaled prefix;
//   risk         Monte Carlo risk analysis is bit-identical across thread
//                counts;
//   metamorphic  relabeling + rule permutation leaves the planned makespan
//                invariant; slack-covered duration growth never moves the
//                critical path's completion;
//   query        differential check over the query fast path: every
//                statement returns byte-identical rows via the index path,
//                the full-scan path, and the current epoch's ReadView memo
//                (miss and hit), before and after interleaved mutations
//                (imports, failed runs, replans) that must publish a fresh
//                view;
//   adapter      cross-adapter conformance: the same scenario materialized
//                through the native executor, a timed Petri firing replay,
//                a VOV trace replay and concurrent dispatch lands on
//                equivalent Level-3 metadata (byte-identical canonical
//                snapshots, identical query rows, identical symbol sets);
//                scenarios carrying an AdversarialPlan additionally run the
//                replan/edit/revision storm with recovery byte-identity.
//
// Planted mutations (Mutation) inject one known bug into the system under
// test so the harness can prove each oracle actually catches its failure
// class — fuzzers that cannot fail their oracles test nothing.
//
// On a real failure, shrink() delta-debugs the scenario to a minimal
// reproducer: drop rules (repairing the graph so every candidate still
// parses), clear faults, simplify execution semantics, shrink durations.
// The result serializes to a self-contained corpus file replayable with
// `herc_fuzz --repro <file>`.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "gen/gen.hpp"

namespace herc::gen {

// --- oracle families (bitmask) -----------------------------------------------

inline constexpr unsigned kOracleCpm = 1u << 0;
inline constexpr unsigned kOracleMirror = 1u << 1;
inline constexpr unsigned kOracleRecovery = 1u << 2;
inline constexpr unsigned kOracleRisk = 1u << 3;
inline constexpr unsigned kOracleMetamorphic = 1u << 4;
/// Always-on structural checks (DSL parses, facts match); not maskable.
inline constexpr unsigned kOracleStructure = 1u << 5;
inline constexpr unsigned kOracleQuery = 1u << 6;
/// Cross-adapter conformance (see gen/conformance.hpp): native vs Petri
/// firing replay vs VOV trace replay vs concurrent dispatch must agree on
/// Level-3 metadata; scenarios with an AdversarialPlan also run the
/// replan/edit/fault storm driver.
inline constexpr unsigned kOracleAdapter = 1u << 7;
inline constexpr unsigned kOracleAll = ((1u << 5) - 1) | kOracleQuery | kOracleAdapter;

[[nodiscard]] const char* oracle_name(unsigned family);
/// "cpm,mirror,risk" -> mask; "all" -> kOracleAll.  kParse on unknown names.
[[nodiscard]] util::Result<unsigned> parse_oracles(const std::string& csv);

// --- planted mutations -------------------------------------------------------

/// One deliberate bug injected into the system under test, used to verify
/// the corresponding oracle family detects its failure class.
enum class Mutation {
  kNone,
  kMirrorDropRun,     ///< executor "loses" its last completed run
  kCpmOffByOne,       ///< solver network gets one duration off by one
  kRecoveryDropLine,  ///< journal "loses" its final line before replay
  kRiskSeedSkew,      ///< second risk run silently uses a different seed
  kMetamorphicScale,  ///< relabeled flow gets all durations doubled
  kQueryStaleView,    ///< view leg answers from the pre-mutation epoch
  kAdapterDropFiring, ///< Petri replay silently drops its final firing
};
[[nodiscard]] const char* mutation_name(Mutation m);
[[nodiscard]] util::Result<Mutation> parse_mutation(const std::string& name);

// --- single-scenario harness -------------------------------------------------

struct OracleFailure {
  unsigned family = 0;  ///< which kOracle* bit tripped
  std::string check;    ///< dotted id, e.g. "cpm.incremental"
  std::string detail;   ///< human-readable explanation
};

struct RunOptions {
  unsigned oracles = kOracleAll;
  Mutation mutation = Mutation::kNone;
  /// Directory for scratch journal files (unique names, removed afterwards).
  std::string scratch_dir = "/tmp";
};

/// Runs every enabled oracle family over one scenario.  Empty result = all
/// checks passed.  Never throws: injected crashes are caught internally.
[[nodiscard]] std::vector<OracleFailure> run_scenario(const Scenario& scenario,
                                                      const RunOptions& options = {});

/// Independent naive CPM: iterative relaxation to fixpoint, O(n * edges)
/// passes.  Deliberately shares no code with compute_cpm/CpmSolver — it is
/// the differential reference.  kInvalid on a cycle (no fixpoint within n
/// passes).
[[nodiscard]] util::Result<sched::CpmResult> reference_cpm(
    const std::vector<sched::CpmActivity>& activities);

/// Draws one random scenario spec (shape, size, faults, execution mode) and
/// materializes it.  Sizes are capped so a scenario stays ~milliseconds.
[[nodiscard]] Scenario sample_scenario(util::Rng& rng);

// --- shrinking ---------------------------------------------------------------

struct ShrinkOptions {
  unsigned oracles = kOracleAll;
  Mutation mutation = Mutation::kNone;
  std::size_t max_candidates = 400;  ///< hard bound on scenario evaluations
  /// Observes every candidate tried (tests assert each one parses).
  std::function<void(const Scenario&)> on_candidate;
  std::string scratch_dir = "/tmp";
};

struct ShrinkResult {
  Scenario scenario;               ///< smallest still-failing reproducer
  std::size_t candidates = 0;      ///< scenarios evaluated
  std::size_t improvements = 0;    ///< accepted reductions
  std::vector<OracleFailure> failures;  ///< the reproducer's failures
};

/// Delta-debugs a failing scenario to a minimal reproducer.  Every candidate
/// is repaired to a parseable graph with >= 1 rule before evaluation;
/// candidates are accepted only if they still fail a non-structural oracle.
[[nodiscard]] ShrinkResult shrink(const Scenario& failing,
                                  const ShrinkOptions& options = {});

// --- fuzz loop ---------------------------------------------------------------

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::size_t max_scenarios = 0;  ///< 0 = no count bound
  std::int64_t budget_ms = 0;     ///< 0 = no time bound
  unsigned oracles = kOracleAll;
  Mutation mutation = Mutation::kNone;
  bool shrink_failures = true;
  std::string scratch_dir = "/tmp";
  /// Progress callback, called after every scenario (may be empty).
  std::function<void(std::size_t scenarios)> on_progress;
};

struct FuzzReport {
  std::size_t scenarios = 0;
  std::int64_t elapsed_ms = 0;
  double scenarios_per_sec = 0;
  std::vector<OracleFailure> failures;  ///< empty = clean run
  std::optional<Scenario> failing;      ///< first failing scenario, as drawn
  std::optional<Scenario> shrunk;       ///< its minimal reproducer
  std::size_t shrink_candidates = 0;
};

/// Samples scenarios until a bound is hit or one fails; with neither bound
/// set, runs 100 scenarios.  On failure, optionally shrinks.
[[nodiscard]] FuzzReport fuzz(const FuzzOptions& options = {});

// --- corpus ------------------------------------------------------------------

/// Writes a scenario as a pretty-printed, self-contained corpus file.
[[nodiscard]] util::Status write_corpus_file(const Scenario& scenario,
                                             const std::string& path);
[[nodiscard]] util::Result<Scenario> read_corpus_file(const std::string& path);

}  // namespace herc::gen
