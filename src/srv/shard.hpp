#pragma once
// ProjectShard: one hosted project inside the server.
//
// A shard owns everything a single-user session used to own — the
// WorkflowManager facade over meta::Database + sched::ScheduleSpace, the
// query engine, and the crash-safety machinery (journal + snapshot files in
// the shard's directory).
//
// Concurrency model: TWO lanes.
//
//   write lane   One mutex serializes every mutating op (plan, replan,
//                execute, run, link, advance, save) plus stats.  At the end
//                of each op, while still holding the lock, the shard
//                republishes the project's epoch snapshot
//                (WorkflowManager::read_view) — BEFORE the durability wait,
//                so a client that got its ack always sees its own write.
//   read lane    query / explain / status / gantt copy the published
//                snapshot out of a pointer-copy slot (hercules::ViewSlot)
//                and run entirely without the shard mutex.  Readers pin
//                their epoch for the duration of
//                the call; the writer keeps publishing newer epochs
//                meanwhile, and an epoch's buffers are reclaimed when its
//                last reader drops it (copy-on-write tables, util/cow.hpp).
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
#include <string_view>

#include "gen/gen.hpp"
#include "hercules/group_commit.hpp"
#include "hercules/journal.hpp"
#include "hercules/workflow_manager.hpp"
#include "srv/wire.hpp"

namespace herc::srv {

struct ShardOptions {
  std::string dir = ".";  ///< where the snapshot and WAL live
  bool durable = false;   ///< fsync group commits and snapshots
};

class ProjectShard {
 public:
  /// New project from a generated scenario (the load driver's path): the
  /// manager comes from gen::make_manager, the initial snapshot is written
  /// and journaling starts.
  [[nodiscard]] static util::Result<std::unique_ptr<ProjectShard>> create(
      const std::string& name, const gen::Scenario& scenario,
      const ShardOptions& options);

  /// New project from schema DSL text.  Every tool type gets one simulated
  /// instance named "<type>1" with the given nominal runtime, so the project
  /// is executable over the wire without native tool closures.
  [[nodiscard]] static util::Result<std::unique_ptr<ProjectShard>> create_from_dsl(
      const std::string& name, const std::string& schema_dsl,
      std::int64_t tool_minutes, const ShardOptions& options);

  /// Reopens a project from its snapshot + WAL after a crash or restart,
  /// re-registers simulated tools for every tool type, and restarts
  /// journaling from a fresh post-recovery snapshot.  Recovery is resilient:
  /// a torn WAL tail is dropped, mid-stream corruption stops replay at the
  /// last verified record and quarantines the damaged file (see
  /// hercules::RecoveryStats); what happened is surfaced under
  /// stats_json()["health"]["recovery"].
  [[nodiscard]] static util::Result<std::unique_ptr<ProjectShard>> recover(
      const std::string& name, std::int64_t tool_minutes,
      const ShardOptions& options);

  ~ProjectShard();
  ProjectShard(const ProjectShard&) = delete;
  ProjectShard& operator=(const ProjectShard&) = delete;

  /// The read lane's ops (query, explain, status, gantt): they run on a
  /// pinned epoch without the shard lock.  The server serves them on the
  /// session's own thread; every other op takes the write lane.
  [[nodiscard]] static bool is_read_op(std::string_view op);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::string snapshot_path() const;
  [[nodiscard]] std::string wal_path() const;

  /// Executes one request against this shard.  Thread-safe; mutations are
  /// serialized and acknowledged only once durable per the shard's options.
  [[nodiscard]] wire::Response apply(const wire::Request& request);

  /// Snapshot now (atomic replace; durable per options) and restart the WAL.
  [[nodiscard]] util::Status snapshot();

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

  /// Recovery outcome captured by recover() (empty for fresh shards).
  [[nodiscard]] const hercules::RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }

 private:
  ProjectShard(std::string name, ShardOptions options);

  /// Writes the initial snapshot of a freshly built manager, starts
  /// journaling through a new group committer and sets runs_at_open_.
  [[nodiscard]] util::Status start_journal();

  /// Registers "<type>1" simulated tools for every tool type missing one.
  static void register_default_tools(hercules::WorkflowManager& manager,
                                     std::int64_t tool_minutes);

  /// The write lane: every op except the four reads.  Must hold mu_.
  wire::Response dispatch(const wire::Request& request);
  /// The read lane: runs one query/explain/status/gantt op against a pinned
  /// epoch snapshot.  No shard lock anywhere on this path.
  wire::Response dispatch_read(const wire::Request& request,
                               const hercules::ReadView& view);
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

  std::atomic<bool> read_only_{false};
  std::string read_only_reason_;  ///< written once under mu_ at the latch
  hercules::RecoveryStats recovery_stats_;
  bool recovered_ = false;  ///< this shard came up through recover()
};

}  // namespace herc::srv
