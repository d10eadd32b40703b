#pragma once
// ProjectShard: one hosted project inside the server.
//
// A shard owns everything a single-user session used to own — the
// WorkflowManager facade over meta::Database + sched::ScheduleSpace, the
// query engine, and the crash-safety machinery (journal + snapshot files in
// the shard's directory).  It comes from one of `open`'s two sources: a
// scenario (create) or its own directory (recover).
//
// apply() parses each request once into a typed op (srv/op.hpp) and
// answers a parse failure before touching either lane.  The lane is the
// op's type:
//
//   write lane   op::WriteOp (plan, replan, execute, run, link, advance,
//                save): one mutex serializes them.  At the end of each op,
//                while still holding the lock, the shard republishes the
//                project's epoch snapshot (WorkflowManager::read_view) —
//                BEFORE the durability wait, so a client that got its ack
//                always sees its own write.
//   read lane    op::ReadOp (query, explain, status, gantt): copies the
//                published snapshot out of a pointer-copy slot
//                (hercules::ViewSlot) and runs entirely without the shard
//                mutex.  Readers pin their epoch for the duration of the
//                call; the writer keeps publishing newer epochs meanwhile,
//                and an epoch's buffers are reclaimed when its last reader
//                drops it (copy-on-write tables, util/cow.hpp).
//   stats        op::Stats takes the mutex and answers, mutating nothing;
//                it counts as a write-lane request.
//
// One caveat is inherent to ack-after-publish ordering: a READER can observe
// a mutation that is published but not yet fsync-durable (the mutator itself
// is still blocked in its durability wait).  That read could be lost by a
// crash — the same contract as PostgreSQL's asynchronous standby reads.
//
// Scaling still also comes from shard independence — requests for different
// projects never contend — and from group commit: a mutation enqueues its
// journal lines with the shard's hercules::GroupCommitter under the lock,
// as one entry under one ticket, but waits for durability AFTER releasing
// it, writing the batch on its own thread when no other write is in
// progress.  The next request's mutation thus overlaps this one's write and
// fsync, and queues behind it.  A failed batch (a write error, or a WAL
// whose directory was removed) is never acknowledged and latches the shard
// read-only.
//
// Files: <dir>/<name>.snapshot.json (atomic replace) and <dir>/<name>.wal.
// An acknowledged mutation is always recoverable from snapshot + WAL.

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "gen/gen.hpp"
#include "hercules/group_commit.hpp"
#include "hercules/journal.hpp"
#include "hercules/workflow_manager.hpp"
#include "srv/op.hpp"
#include "srv/wire.hpp"

namespace herc::srv {

struct ShardOptions {
  std::string dir = ".";  ///< where the snapshot and WAL live
  bool durable = false;   ///< fsync group commits and snapshots
};

class ProjectShard {
 public:
  /// New project from a scenario: the manager comes from gen::make_manager,
  /// the initial snapshot is written and journaling starts.
  [[nodiscard]] static util::Result<std::unique_ptr<ProjectShard>> create(
      const std::string& name, const gen::Scenario& scenario,
      const ShardOptions& options);

  /// Reopens a project from its snapshot + WAL after a crash or restart
  /// and restarts journaling from a fresh post-recovery snapshot.  The
  /// snapshot carries the project's tools, estimator and execution options
  /// (hercules/persist.hpp), so the recovered project plans and executes
  /// like the one that was saved; recovery registers nothing.  It comes
  /// back without a fault injector.  Recovery is resilient:
  /// a torn WAL tail is dropped, mid-stream corruption stops replay at the
  /// last verified record and quarantines the damaged file (see
  /// hercules::RecoveryStats); what happened is surfaced under
  /// stats_json()["health"]["recovery"].
  [[nodiscard]] static util::Result<std::unique_ptr<ProjectShard>> recover(
      const std::string& name, const ShardOptions& options);

  ~ProjectShard();
  ProjectShard(const ProjectShard&) = delete;
  ProjectShard& operator=(const ProjectShard&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::string snapshot_path() const;
  [[nodiscard]] std::string wal_path() const;

  /// Executes one request against this shard.  Thread-safe; mutations are
  /// serialized and acknowledged only once durable per the shard's options.
  /// A request that does not parse (op::parse_project_op) is refused with
  /// kInvalid and counted in neither lane.
  [[nodiscard]] wire::Response apply(const wire::Request& request);

  /// Graceful shutdown: final group commit (fsync regardless of mode), then
  /// a snapshot.  The shard stays usable afterwards; the server simply stops
  /// routing to it.
  [[nodiscard]] util::Status shutdown();

  /// Per-shard counters: srv_requests (the sum of the two lane counters),
  /// runs_executed (runs recorded since the shard opened; recovered runs
  /// excluded), group-commit stats, journal lines.
  [[nodiscard]] util::Json stats_json() const;

  /// The shard's group committer — tests read its flush counters.
  [[nodiscard]] hercules::GroupCommitter& committer() { return *committer_; }

  /// Direct manager access for tests; callers must not race apply().
  [[nodiscard]] hercules::WorkflowManager& manager_for_test() { return *manager_; }

  /// TEST HOOK: models SIGKILL — queued journal lines vanish, no final
  /// snapshot.  Only on-disk bytes survive for recover().
  void simulate_crash();

  /// Fail-safe degradation: true once an unrecoverable storage fault latched
  /// the shard read-only.  The MVCC read lane keeps serving pinned epochs
  /// (and `stats` still answers); every mutation is rejected with a
  /// RETRYABLE kIoError so clients back off and retry against a repaired or
  /// restarted shard instead of treating it as a hard failure.
  [[nodiscard]] bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

 private:
  ProjectShard(std::string name, ShardOptions options);

  /// Writes the initial snapshot of a freshly built manager, starts
  /// journaling through a new group committer and sets runs_at_open_.
  [[nodiscard]] util::Status start_journal();

  /// Runs one read against a pinned epoch snapshot.  No shard lock
  /// anywhere on this path.
  wire::Response read_lane(std::uint64_t id, const op::ReadOp& read);
  /// Runs one mutation under mu_ and waits for its journal lines to be
  /// durable after releasing it.
  wire::Response write_lane(std::uint64_t id, const op::WriteOp& write);
  /// The mutation itself.  Must hold mu_.
  wire::Response dispatch(std::uint64_t id, const op::WriteOp& write);
  /// Republishes the current epoch snapshot (no-op once crashed).  Must hold
  /// mu_: read_view() walks the live spaces.
  void publish_view_locked();
  [[nodiscard]] util::Status snapshot_locked();
  [[nodiscard]] util::Json stats_json_locked() const;

  const std::string name_;
  const ShardOptions options_;

  mutable std::mutex mu_;  ///< serializes every WRITE-lane manager access
  std::unique_ptr<hercules::WorkflowManager> manager_;
  std::unique_ptr<hercules::GroupCommitter> committer_;
  /// run_count() when the shard opened: the runs its initial snapshot holds.
  std::size_t runs_at_open_ = 0;
  /// The epoch snapshot readers run against.  Written by the write lane
  /// (under mu_), copied out by the read lane under the slot's own
  /// pointer-copy mutex (see hercules::ViewSlot) — never under mu_.
  hercules::ViewSlot view_;
  std::atomic<std::uint64_t> read_lane_requests_{0};
  std::atomic<std::uint64_t> write_lane_requests_{0};
  /// Write-lane requests between entering apply() and the return of their
  /// durability wait; the read lane's writer-priority backoff polls it.
  std::atomic<int> writes_in_flight_{0};
  std::atomic<bool> crashed_{false};

  /// Latches the shard read-only (idempotent).  Takes mu_ itself when called
  /// from outside the lock (the post-release durability wait).
  void enter_read_only(const util::Error& cause);
  void enter_read_only_locked(const util::Error& cause);
  [[nodiscard]] util::Error read_only_error_locked() const;
  [[nodiscard]] util::Error crashed_error() const;

  std::atomic<bool> read_only_{false};
  std::string read_only_reason_;  ///< written once under mu_ at the latch
  hercules::RecoveryStats recovery_stats_;
  bool recovered_ = false;  ///< this shard came up through recover()
};

}  // namespace herc::srv
