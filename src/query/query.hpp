#pragma once
// Query facility over the metadata database (both spaces).
//
// The paper's Sec. IV.B supports two classes of queries: "queries into
// design schedule data" (e.g. the duration of an activity the last time it
// was performed, used to predict the present design) and "queries into
// design schedule metadata" (which plans were used to create the present
// plan — the plan's evolution).
//
// Language (one statement):
//
//   select [<what> from] <target> [where <expr>]
//                        [group by <field>]
//                        [order by <field> [asc|desc]] [limit <N>]
//
//   what   := * | count | avg(<field>) | sum(<field>) | min(<field>) | max(<field>)
//   target := runs | instances | schedule | plans | links
//   expr   := and_expr (or and_expr)*
//   and_expr := unary (and unary)*
//   unary  := not unary | ( expr ) | <field> <op> <literal>
//   op     := = | != | < | <= | > | >= | contains
//   literal:= "string" | integer | true | false
//
// `and` binds tighter than `or`; `not` tightest; parentheses group.
//
// `select <target> ...` is sugar for `select * from <target> ...`.
// Aggregates reduce the filtered rows to one row (or one row per group with
// `group by`); avg/sum/min/max require a numeric field and skip null cells;
// avg truncates to a whole number (all numeric fields are whole minutes).
// `order by` is not combinable with aggregates (grouped output is sorted by
// the group value).
//
// Time-valued fields are work minutes since the calendar epoch; the renderer
// formats them as dates when a calendar is supplied.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "calendar/work_calendar.hpp"
#include "core/schedule_space.hpp"
#include "metadata/database.hpp"
#include "obs/event_bus.hpp"
#include "util/result.hpp"

namespace herc::query {

/// A cell value.  Null represents e.g. a missing actual date.
using Value = std::variant<std::monostate, std::int64_t, bool, std::string>;

[[nodiscard]] std::string value_str(const Value& v);

/// Three-way comparison used by filters and ordering; null sorts first and
/// only equals null.  Mixed types compare by type rank (deterministic).
[[nodiscard]] int compare_values(const Value& a, const Value& b);

enum class Target { kRuns, kInstances, kSchedule, kPlans, kLinks };

[[nodiscard]] const char* target_name(Target t);

enum class Op { kEq, kNe, kLt, kLe, kGt, kGe, kContains };

struct Condition {
  std::string field;
  Op op = Op::kEq;
  Value literal;
};

/// Boolean filter expression tree.
struct Expr {
  enum class Kind { kCondition, kAnd, kOr, kNot };
  Kind kind = Kind::kCondition;
  Condition condition;                       ///< kCondition
  std::vector<std::unique_ptr<Expr>> children;  ///< kAnd/kOr (>=2), kNot (1)

  /// All leaf conditions (for field validation).
  void collect_conditions(std::vector<const Condition*>& out) const;
  /// Canonical text (fully parenthesised for nested and/or).
  [[nodiscard]] std::string str() const;
};

enum class AggregateFn { kCount, kAvg, kSum, kMin, kMax };

[[nodiscard]] const char* aggregate_fn_name(AggregateFn fn);

struct Aggregate {
  AggregateFn fn = AggregateFn::kCount;
  std::string field;  ///< empty for count
};

struct Query {
  Target target = Target::kRuns;
  std::optional<Aggregate> aggregate;     // absent = row select (*)
  std::optional<std::string> group_by;    // only with aggregate
  std::unique_ptr<Expr> where;            // null = no filter
  std::optional<std::string> order_by;
  bool descending = false;
  std::optional<std::int64_t> limit;

  /// Re-emits the statement in canonical form (round-trip tested).
  [[nodiscard]] std::string str() const;
};

[[nodiscard]] util::Result<Query> parse_query(std::string_view text);

/// Result table.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  /// Text table; when `calendar` is given, *_start/*_finish/created/started/
  /// finished/linked_at columns are formatted as civil dates.
  [[nodiscard]] std::string render(const cal::WorkCalendar* calendar = nullptr) const;
};

/// Fast-path knob.  Both paths are byte-identical by construction; the
/// toggle exists for benchmarking and for the query-differential fuzz oracle.
struct EngineOptions {
  bool use_index = true;  ///< false: always full-scan
};

/// Cumulative fast-path counters (also published per query on the event bus).
/// The engine keeps no result cache (repeats within an epoch are answered by
/// hercules::ReadView's memo), so cache_hits stays 0 and cache_misses counts
/// every execution; both names stay for readers of these stats.
struct EngineStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t rows_scanned = 0;  ///< rows examined by filters
  std::uint64_t index_seeks = 0;   ///< executions that used an index
};

/// Executes queries against one database + schedule space pair.
///
/// Thread-safety: execute()/explain() are safe to call concurrently (the
/// counters are relaxed atomics; nothing else is shared) PROVIDED each
/// call's data is not mutated underneath it — either pass an immutable
/// epoch snapshot via the explicit (db, space) overloads, or serialize with
/// mutators externally.
class QueryEngine {
 public:
  /// `bus` (optional) receives one query_executed event per execute() call,
  /// carrying the canonical statement and the wall-clock latency.
  QueryEngine(const meta::Database& db, const sched::ScheduleSpace& space,
              obs::EventBus* bus = nullptr);
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  [[nodiscard]] util::Result<QueryResult> execute(const Query& q) const;

  /// Parses and executes in one step.
  [[nodiscard]] util::Result<QueryResult> execute(std::string_view text) const;

  /// Snapshot execution: same pipeline, but rows, indexes, and symbol
  /// probes all come from the given (db, space) — typically a pinned
  /// hercules::ReadView — instead of the pair the engine was built over.
  [[nodiscard]] util::Result<QueryResult> execute(
      const Query& q, const meta::Database& db,
      const sched::ScheduleSpace& space) const;
  [[nodiscard]] util::Result<QueryResult> execute(
      std::string_view text, const meta::Database& db,
      const sched::ScheduleSpace& space) const;

  /// Describes how the query would execute: chosen access path (index seek
  /// vs full scan) and residual conditions.  Validates exactly like
  /// execute() without touching any row.
  [[nodiscard]] util::Result<std::string> explain(const Query& q) const;
  [[nodiscard]] util::Result<std::string> explain(std::string_view text) const;
  [[nodiscard]] util::Result<std::string> explain(
      const Query& q, const meta::Database& db,
      const sched::ScheduleSpace& space) const;
  [[nodiscard]] util::Result<std::string> explain(
      std::string_view text, const meta::Database& db,
      const sched::ScheduleSpace& space) const;

  void set_options(const EngineOptions& options) { options_ = options; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// Cumulative counters since construction (thread-safe snapshot).
  [[nodiscard]] EngineStats stats() const;

  /// The plan-evolution query: ancestry of `plan`, newest first.  This is
  /// the paper's "which schedule plans were used to create the present
  /// schedule plan".
  [[nodiscard]] QueryResult plan_lineage(sched::ScheduleRunId plan) const;

 private:
  struct ExecInfo;
  /// The evaluation itself, unobserved; execute() wraps it with timing and
  /// stats.
  [[nodiscard]] util::Result<QueryResult> run(const Query& q, ExecInfo& info,
                                              const meta::Database& db,
                                              const sched::ScheduleSpace& space) const;
  [[nodiscard]] static std::vector<std::string> columns_for(Target t);

  const meta::Database* db_;
  const sched::ScheduleSpace* space_;
  obs::EventBus* bus_ = nullptr;
  EngineOptions options_;
  mutable std::atomic<std::uint64_t> executions_{0};
  mutable std::atomic<std::uint64_t> rows_scanned_{0};
  mutable std::atomic<std::uint64_t> index_seeks_{0};
};

}  // namespace herc::query
