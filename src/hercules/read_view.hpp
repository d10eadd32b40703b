#pragma once
// ReadView: one pinned epoch of a project, readable without any lock.
//
// A ReadView is an immutable copy of everything the read-only operations
// (query, explain, status, gantt) consume: both Level-3 spaces, the clock,
// and the task -> tracked-plan map.  Thanks to the CowVec storage underneath
// meta::Database / sched::ScheduleSpace, building one costs O(index keys),
// not O(rows), and holding one pins only the table buffers of its epoch —
// which are reclaimed automatically when the last view referencing them
// dies (shared_ptr-driven epoch reclamation; see util/cow.hpp).
//
// Lifecycle: the writer (the shard's serialized write lane) calls
// WorkflowManager::read_view() after each mutation; the manager rebuilds
// only if something changed (epoch++), else republishes the cached view.
// Readers atomically load the current view and run against it for as long
// as they like — a designer can hold epoch N while the writer publishes
// N+1, N+2, ...; memory stays bounded because unshared tables still share
// every buffer except the ones rewritten since N.
//
// The calendar and query engine are referenced, not copied: both outlive
// every view (the shard keeps its manager alive while reads are in flight),
// the calendar is immutable after setup, and the engine holds no data of
// its own beyond atomic counters: it runs each statement against the view's
// spaces.  The view's memo is the read path's only result cache.

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "calendar/work_calendar.hpp"
#include "core/schedule_space.hpp"
#include "metadata/database.hpp"
#include "query/query.hpp"
#include "util/result.hpp"

namespace herc::hercules {

/// Rendered-response memo of one epoch, keyed "<op>\n<operand>": one
/// once-cell per key.  The mutex covers only finding or inserting a cell;
/// the first caller of a key computes it outside the mutex, concurrent
/// callers of that key wait for that one computation, and callers of other
/// keys never wait for it.
class ResponseMemo {
 public:
  [[nodiscard]] util::Result<std::string> get(
      std::string key, const std::function<util::Result<std::string>()>& compute);

 private:
  struct Cell {
    std::once_flag once;
    std::optional<util::Result<std::string>> value;
  };

  std::mutex mu_;
  /// Node-based and never erased from, so a Cell stays put after mu_ is
  /// released.
  std::unordered_map<std::string, Cell> cells_;
};

class ReadView {
 public:
  ReadView(std::uint64_t epoch, const meta::Database& db,
           const sched::ScheduleSpace& space, cal::WorkInstant now,
           std::map<std::string, sched::ScheduleRunId> plan_by_task,
           const cal::WorkCalendar* calendar, const query::QueryEngine* engine)
      : epoch_(epoch),
        db_(db),
        space_(space),
        now_(now),
        plan_by_task_(std::move(plan_by_task)),
        calendar_(calendar),
        engine_(engine) {}

  ReadView(const ReadView&) = delete;
  ReadView& operator=(const ReadView&) = delete;

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] const meta::Database& db() const { return db_; }
  [[nodiscard]] const sched::ScheduleSpace& space() const { return space_; }
  [[nodiscard]] cal::WorkInstant now() const { return now_; }

  /// The plan tracked for `task` at snapshot time, if any.
  [[nodiscard]] std::optional<sched::ScheduleRunId> plan_of(
      const std::string& task) const;

  // Read operations, byte-identical to the WorkflowManager equivalents
  // evaluated at the snapshot instant.
  //
  // Each rendered response is memoized for the life of the view: an epoch is
  // immutable, so a whole response — the status table, a rendered query —
  // can be cached with NO invalidation logic at all; the memo dies with the
  // epoch.  This is where snapshot reads beat the single-mutex model even
  // with zero parallelism: the mutable-state path must re-render on every
  // call because the state may have moved since the last one.
  [[nodiscard]] util::Result<std::string> gantt(const std::string& task) const;
  [[nodiscard]] util::Result<std::string> status_report(const std::string& task) const;
  [[nodiscard]] util::Result<std::string> query(std::string_view statement) const;
  [[nodiscard]] util::Result<std::string> explain(std::string_view statement) const;

 private:
  const std::uint64_t epoch_;
  const meta::Database db_;
  const sched::ScheduleSpace space_;
  const cal::WorkInstant now_;
  const std::map<std::string, sched::ScheduleRunId> plan_by_task_;
  const cal::WorkCalendar* calendar_;
  const query::QueryEngine* engine_;

  mutable ResponseMemo memo_;
};

/// Snapshot-health counters, shared by the manager and the deleter of every
/// view it publishes (atomic: views die on reader threads).
struct SnapshotStats {
  std::atomic<std::uint64_t> published{0};  ///< distinct epochs built
  std::atomic<std::int64_t> live{0};        ///< views not yet reclaimed
};

/// The published-view slot: writers store the newest epoch, readers copy it
/// out.  A dedicated mutex held only for the shared_ptr copy — never while
/// a view is built or a response rendered — so a read can stall a write (or
/// vice versa) for at most a pointer copy.  Deliberately NOT
/// std::atomic<std::shared_ptr>: libstdc++'s lock-bit implementation
/// unlocks its load() with a relaxed RMW, which leaves no release edge from
/// a reader's critical section to the next writer's plain-pointer swap —
/// a data race by the letter of the memory model, and one TSan reports.
class ViewSlot {
 public:
  [[nodiscard]] std::shared_ptr<const ReadView> load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return view_;
  }
  void store(std::shared_ptr<const ReadView> view) {
    std::lock_guard<std::mutex> lock(mu_);
    view_ = std::move(view);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ReadView> view_;
};

}  // namespace herc::hercules
