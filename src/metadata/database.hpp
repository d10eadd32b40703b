#pragma once
// Level 3 of the four-level architecture, execution space: the metadata
// created by actually running a flow.
//
// Mirroring the Hercules representation (paper Fig. 2/3):
//   - an *entity container* per Level-1 entity type, holding
//   - *entity instances* (metadata about one version of design data, with a
//     link down to the Level-4 data object), created by
//   - *runs* (one tool invocation: activity, tool binding, input instances,
//     output instance, actual start/finish, designer).
//
// Instance-level dependencies are derived from runs (an instance depends on
// the inputs of the run that produced it).
//
// The database publishes mutation events; the schedule tracker (herc::sched)
// subscribes to implement the paper's "schedule plan updates automatically
// as the design flow is executed".
//
// Snapshot semantics: the copy constructor takes an O(tables + index keys)
// epoch snapshot — every table and index posting list is a util::CowVec
// sharing its buffer with the source, and the symbol pool shares its lookup
// map.  The copy is a fully functional read-only Database (observers are
// not carried over); the writer unshares lazily on the rare in-place
// rewrite.  Readers of a snapshot race with nothing.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "calendar/work_calendar.hpp"
#include "schema/schema.hpp"
#include "util/cow.hpp"
#include "util/ids.hpp"
#include "util/interner.hpp"
#include "util/result.hpp"

namespace herc::meta {

using util::EntityInstanceId;
using util::ResourceId;
using util::RunId;

/// Metadata for one version of a piece of design data.
struct EntityInstance {
  EntityInstanceId id;
  schema::EntityTypeId type;
  std::string type_name;   ///< denormalized for dumps/queries
  std::string name;        ///< design-data name, e.g. "adder.netlist"
  int version = 1;         ///< version within (type, name)
  RunId produced_by;       ///< invalid for imported primary inputs
  util::DataObjectId data; ///< Level-4 link; may be invalid for imports
  cal::WorkInstant created_at;

  // Interned copies of type_name / name, filled by Database::create_instance
  // (invalid on a hand-built instance that never went through the database).
  util::SymbolId type_sym;
  util::SymbolId name_sym;

  [[nodiscard]] std::string str() const;
};

enum class RunStatus { kCompleted, kFailed };

[[nodiscard]] const char* run_status_name(RunStatus s);

/// One execution of an activity (a tool invocation).
struct Run {
  RunId id;
  std::string activity;
  schema::RuleId rule;
  std::string tool_binding;  ///< bound tool instance, e.g. "spice3f5@server1"
  std::string designer;      ///< who ran it
  std::vector<EntityInstanceId> inputs;
  EntityInstanceId output;   ///< invalid if the run failed
  cal::WorkInstant started_at;
  cal::WorkInstant finished_at;
  RunStatus status = RunStatus::kCompleted;

  // Interned copies of activity / tool_binding / designer, filled by
  // Database::record_run.
  util::SymbolId activity_sym;
  util::SymbolId tool_sym;
  util::SymbolId designer_sym;

  [[nodiscard]] std::string str() const;
};

/// A person, machine or license that can perform activities.  Shared by the
/// execution space (who ran it) and the schedule space (who is assigned).
struct Resource {
  ResourceId id;
  std::string name;
  std::string kind = "person";  ///< "person" | "machine" | "license"
  int capacity = 1;             ///< concurrent activities it can serve
  /// Half-open [from, to) windows when the resource is unavailable
  /// (vacations, maintenance).  Resource-leveled planning schedules around
  /// them.  Kept sorted by start.
  std::vector<std::pair<cal::WorkInstant, cal::WorkInstant>> time_off;
};

/// Observer for database mutations.
struct DatabaseObserver {
  virtual ~DatabaseObserver() = default;
  virtual void on_instance_created(const EntityInstance&) {}
  virtual void on_run_recorded(const Run&) {}
};

/// The execution-space metadata database.
class Database {
 public:
  /// The database is initialized from a task schema: one (initially empty)
  /// entity container per Level-1 type, exactly as Hercules parses the task
  /// schema into containers.
  explicit Database(const schema::TaskSchema& schema);

  /// Epoch snapshot: O(1) per table/posting list (see file comment).  The
  /// copy observes nothing (observers_ stays empty) and is intended to be
  /// read-only; the schema must outlive it.
  Database(const Database& other);
  Database& operator=(const Database&) = delete;

  [[nodiscard]] const schema::TaskSchema& schema() const { return *schema_; }

  // --- observers ---------------------------------------------------------
  /// Observer must outlive the database or be removed first.
  void add_observer(DatabaseObserver* obs) { observers_.push_back(obs); }
  void remove_observer(DatabaseObserver* obs);

  // --- resources ---------------------------------------------------------
  ResourceId add_resource(const std::string& name, const std::string& kind = "person",
                          int capacity = 1);
  /// Registers an unavailability window [from, to); kInvalid if to <= from
  /// or the id is unknown.
  util::Status add_time_off(ResourceId id, cal::WorkInstant from, cal::WorkInstant to);
  [[nodiscard]] std::optional<ResourceId> find_resource(const std::string& name) const;
  [[nodiscard]] const Resource& resource(ResourceId id) const;
  [[nodiscard]] const util::CowVec<Resource>& resources() const { return resources_; }

  // --- instances ---------------------------------------------------------
  /// Creates an instance in the container of `type_name`.  `produced_by` may
  /// be invalid for imported primary-input data.
  util::Result<EntityInstanceId> create_instance(const std::string& type_name,
                                                 const std::string& name,
                                                 RunId produced_by,
                                                 util::DataObjectId data,
                                                 cal::WorkInstant at);

  [[nodiscard]] const EntityInstance& instance(EntityInstanceId id) const;
  [[nodiscard]] std::size_t instance_count() const { return instances_.size(); }
  [[nodiscard]] const util::CowVec<EntityInstance>& instances() const {
    return instances_;
  }

  /// Contents of one entity container, in creation order.  The reference is
  /// stable until the next create_instance for the same type.
  [[nodiscard]] const util::CowVec<EntityInstanceId>& container(
      const std::string& type_name) const;

  /// Instances carrying a given design-data name, across types, in creation
  /// order (secondary index; same reference-stability rule as container()).
  [[nodiscard]] const util::CowVec<EntityInstanceId>& instances_named(
      const std::string& name) const;

  /// The run that produced `id`; nullopt for imports or unknown ids (reads
  /// the produced_by back-link, patched by record_run).
  [[nodiscard]] std::optional<RunId> producing_run(EntityInstanceId id) const;

  /// Latest instance in a container, if any.
  [[nodiscard]] std::optional<EntityInstanceId> latest_in_container(
      const std::string& type_name) const;

  /// Latest instance of a given (type, design-data name), if any.
  [[nodiscard]] std::optional<EntityInstanceId> latest_named(
      const std::string& type_name, const std::string& name) const;

  /// Instances this instance directly depends on (inputs of its producing
  /// run); empty for imports.
  [[nodiscard]] std::vector<EntityInstanceId> dependencies_of(
      EntityInstanceId id) const;

  // --- runs ---------------------------------------------------------------
  /// Records a completed or failed run.  On success the caller must have
  /// created the output instance first and pass it here.
  util::Result<RunId> record_run(Run run);

  [[nodiscard]] const Run& run(RunId id) const;
  [[nodiscard]] std::size_t run_count() const { return runs_.size(); }
  [[nodiscard]] const util::CowVec<Run>& runs() const { return runs_; }

  /// All runs of an activity in execution order.  Returns a reference into
  /// the maintained index (empty static for unknown activities); stable until
  /// the next record_run of the same activity.
  [[nodiscard]] const util::CowVec<RunId>& runs_of_activity(
      const std::string& activity) const;

  /// All runs by one designer / one tool binding / one status, in execution
  /// order (maintained secondary indexes, same stability rule).
  [[nodiscard]] const util::CowVec<RunId>& runs_of_designer(
      const std::string& designer) const;
  [[nodiscard]] const util::CowVec<RunId>& runs_of_tool(const std::string& tool) const;
  [[nodiscard]] const util::CowVec<RunId>& runs_with_status(RunStatus status) const;

  /// Last completed run of an activity, if any.
  [[nodiscard]] std::optional<RunId> last_completed_run(
      const std::string& activity) const;

  /// Multi-line dump of all containers (Figs. 5-7 reproduction, execution
  /// space).  Empty containers are listed too — they are part of the figure.
  [[nodiscard]] std::string dump_containers() const;

  // --- fast-path support ---------------------------------------------------
  /// The execution space's interning pool (activity, type, designer, tool,
  /// design-data names).  Query compilation probes it with find().
  [[nodiscard]] const util::SymbolPool& symbols() const { return symbols_; }

  /// Monotonic mutation counter: bumped by every create_instance /
  /// record_run / add_resource / add_time_off.  Dirtiness check for
  /// snapshot publication.
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  void notify_instance(const EntityInstance& e);
  void notify_run(const Run& r);

  const schema::TaskSchema* schema_;
  util::CowVec<EntityInstance> instances_;  // index = id - 1
  util::CowVec<Run> runs_;                  // index = id - 1
  util::CowVec<Resource> resources_;        // index = id - 1
  std::unordered_map<std::string, util::CowVec<EntityInstanceId>> containers_;
  std::unordered_map<std::string, int> version_counters_;  // key: type|name
  std::vector<DatabaseObserver*> observers_;

  // Interning pool + secondary indexes, maintained by create_instance /
  // record_run (and therefore rebuilt for free when recovery replays
  // mutations through those entry points).  Keyed by SymbolId so lookups
  // hash one integer.
  util::SymbolPool symbols_;
  std::unordered_map<util::SymbolId, util::CowVec<RunId>> runs_by_activity_;
  std::unordered_map<util::SymbolId, util::CowVec<RunId>> runs_by_designer_;
  std::unordered_map<util::SymbolId, util::CowVec<RunId>> runs_by_tool_;
  std::array<util::CowVec<RunId>, 2> runs_by_status_;  // index = RunStatus
  std::unordered_map<util::SymbolId, util::CowVec<EntityInstanceId>> instances_by_name_;
  std::uint64_t version_ = 0;
};

}  // namespace herc::meta
