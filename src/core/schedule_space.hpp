#pragma once
// Level 3 of the four-level architecture, *schedule space*.
//
// "The design schedule objects added to the Hercules representation mirror
//  the actual flow data objects.  A Run in the actual flow space corresponds
//  to a ScheduleRun in the schedule flow space.  ScheduleNodes correspond to
//  Entity instances and are connected using ScheduleDependencies."
//                                                       — paper, Sec. IV
//
// A ScheduleRun is one *plan* (one simulation of the flow's execution); a
// ScheduleNode is the planned counterpart of an activity's output entity
// instance; links connect a schedule node to the entity instance that the
// designer declares to be the activity's final result.  Plans carry a
// derived_from pointer, giving the plan-evolution metadata the paper's
// second query class inspects.
//
// Snapshot semantics match meta::Database: the (default) copy constructor
// takes an O(tables + containers) epoch snapshot — every table is a
// util::CowVec sharing its buffer with the source.  The tracker's in-place
// node/plan rewrites go through plan_mut/node_mut, which unshare lazily.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "calendar/work_calendar.hpp"
#include "metadata/database.hpp"
#include "util/cow.hpp"
#include "util/ids.hpp"
#include "util/interner.hpp"
#include "util/result.hpp"

namespace herc::sched {

using util::LinkId;
using util::ScheduleNodeId;
using util::ScheduleRunId;

/// Planned counterpart of one activity execution.
struct ScheduleNode {
  ScheduleNodeId id;
  ScheduleRunId plan;            ///< owning ScheduleRun
  std::string activity;
  util::SymbolId activity_sym;   ///< interned by ScheduleSpace::create_node
  schema::RuleId rule;
  int version = 1;               ///< version within this activity's container

  // --- plan (written by the Planner / updated by the Tracker) -------------
  cal::WorkDuration est_duration;
  cal::WorkInstant planned_start;    ///< current plan (slips move this)
  cal::WorkInstant planned_finish;
  cal::WorkInstant baseline_start;   ///< as first planned; never moves
  cal::WorkInstant baseline_finish;
  std::vector<util::ResourceId> resources;  ///< who is assigned

  // --- CPM annotations -----------------------------------------------------
  cal::WorkDuration total_slack;
  cal::WorkDuration free_slack;
  bool critical = false;

  // --- actuals (written by the Tracker) ------------------------------------
  std::optional<cal::WorkInstant> actual_start;   ///< set by the first run
  std::optional<cal::WorkInstant> actual_finish;  ///< set when linked
  bool completed = false;
  bool deleted = false;  ///< hidden by the browser; kept for id stability

  [[nodiscard]] std::string str() const;
};

/// Precedence edge between two schedule nodes of the same plan.
struct ScheduleDep {
  ScheduleNodeId from;
  ScheduleNodeId to;
};

enum class PlanStatus { kActive, kSuperseded };

/// One plan: the Level-3 record of one simulated execution of a task tree.
struct ScheduleRun {
  ScheduleRunId id;
  std::string name;                 ///< e.g. "adder plan"
  cal::WorkInstant created_at;
  cal::WorkInstant anchor;          ///< earliest start for any activity of the plan
  std::optional<cal::WorkInstant> deadline;  ///< committed completion date, if any
  ScheduleRunId derived_from;       ///< previous plan version (invalid if first)
  PlanStatus status = PlanStatus::kActive;
  std::vector<ScheduleNodeId> nodes;  ///< in planning (post) order
  std::vector<ScheduleDep> deps;

  [[nodiscard]] std::string str() const;
};

/// Link declaring an entity instance to be a scheduled activity's final
/// design data ("created when the designer determines that the execution of
/// an activity is completed").
struct Link {
  LinkId id;
  ScheduleNodeId schedule_node;
  meta::EntityInstanceId entity_instance;
  cal::WorkInstant linked_at;
};

/// Container for all schedule-space objects of one database.
class ScheduleSpace {
 public:
  // --- plans ---------------------------------------------------------------
  ScheduleRunId create_plan(const std::string& name, cal::WorkInstant at,
                            ScheduleRunId derived_from = ScheduleRunId::invalid());
  [[nodiscard]] const ScheduleRun& plan(ScheduleRunId id) const;
  /// Mutable plan access.  Conservatively bumps version() — callers
  /// (planner, tracker, recovery) use it precisely to mutate.
  [[nodiscard]] ScheduleRun& plan_mut(ScheduleRunId id);
  [[nodiscard]] const util::CowVec<ScheduleRun>& plans() const { return plans_; }

  /// Most recently created plan, if any.
  [[nodiscard]] std::optional<ScheduleRunId> active_plan() const;

  /// Plan ancestry, newest first (the plan-evolution query).
  [[nodiscard]] std::vector<ScheduleRunId> lineage(ScheduleRunId id) const;

  // --- nodes ---------------------------------------------------------------
  ScheduleNodeId create_node(ScheduleRunId plan, const std::string& activity,
                             schema::RuleId rule);
  [[nodiscard]] const ScheduleNode& node(ScheduleNodeId id) const;
  /// Mutable node access; bumps version() like plan_mut.
  [[nodiscard]] ScheduleNode& node_mut(ScheduleNodeId id);
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  void add_dep(ScheduleRunId plan, ScheduleNodeId from, ScheduleNodeId to);

  /// Schedule-instance container of one activity, across plans, in creation
  /// order (SC1, SC2, ... in the paper's Fig. 5).  Reference is stable until
  /// the next create_node of the same activity.
  [[nodiscard]] const util::CowVec<ScheduleNodeId>& container(
      const std::string& activity) const;

  /// Node for `activity` in a given plan, if the plan covers it.
  [[nodiscard]] std::optional<ScheduleNodeId> node_in_plan(
      ScheduleRunId plan, const std::string& activity) const;

  // --- links ---------------------------------------------------------------
  /// Records a completion link.  kConflict if the node is already linked.
  util::Result<LinkId> add_link(ScheduleNodeId node, meta::EntityInstanceId instance,
                                cal::WorkInstant at);
  [[nodiscard]] const util::CowVec<Link>& links() const { return links_; }
  [[nodiscard]] std::optional<LinkId> link_of(ScheduleNodeId node) const;

  /// Multi-line dump of the schedule-space containers (Figs. 5-7, schedule
  /// side).  Shows per-activity schedule instances and any links.
  [[nodiscard]] std::string dump_containers(const meta::Database& db) const;

  // --- fast-path support ---------------------------------------------------
  /// The schedule space's interning pool (activity names).
  [[nodiscard]] const util::SymbolPool& symbols() const { return symbols_; }

  /// Monotonic mutation counter.  Bumped by every mutating entry point,
  /// including plan_mut/node_mut (the tracker and planner mutate through
  /// those).  Dirtiness check for snapshot publication.
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  util::CowVec<ScheduleRun> plans_;   // index = id - 1
  util::CowVec<ScheduleNode> nodes_;  // index = id - 1
  util::CowVec<Link> links_;          // index = id - 1
  std::unordered_map<util::SymbolId, util::CowVec<ScheduleNodeId>> containers_;
  util::SymbolPool symbols_;
  std::uint64_t version_ = 0;
};

}  // namespace herc::sched
