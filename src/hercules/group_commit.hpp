#pragma once
// Group-committed journal writes: the WAL's only writer, for server shards
// and single-user journals (WorkflowManager::enable_journal) alike.
//
// A per-run fsync caps a shard at a few hundred durable runs per second.
// The GroupCommitter decouples APPEND from COMMIT instead: appends (journal
// lines, produced under the shard's mutation lock) only enqueue, and the
// thread that waits for durability writes.  wait_durable() runs after the
// shard lock is released: if no write is in progress, the waiting thread
// becomes the leader and writes every queued entry, its own and any that
// queued behind it, in ONE write() and — in durable mode — ONE fsync.  If a
// write is in progress it waits for that write to end and checks again.
// While one batch is inside write/fsync the shard lock is free, so the next
// requests pile their entries into the next batch: batch size grows with
// load and the fsync cost is amortized across it.  The committer owns no
// thread.
//
// Tickets are per mutation, not per line: the shard brackets each write-lane
// op with begin_mutation()/end_mutation(), and every line the op appends in
// between is enqueued as one entry under one ticket.  An op's lines therefore
// always share a flush, so flushes never outnumber mutations.  An append
// outside a mutation (every append of a single-user journal) keeps its own
// ticket and is written at once, unless a write is in progress; then the
// next write covers it.
//
// Crash contract: a batch is written with a single write(), and fails if the
// WAL's name was removed (link count 0), so process death can lose only
// whole un-acknowledged batches plus (machine crash) the tail the last fsync
// did not cover — never a run whose response was sent.  The journal file
// stays a valid line sequence with at worst a torn final line, exactly what
// recover_from_json tolerates.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "util/fsio.hpp"
#include "util/result.hpp"

namespace herc::hercules {

class GroupCommitter {
 public:
  struct Options {
    /// fsync each batch: acknowledged runs survive power loss.  Off, the
    /// batch write still reaches the OS before acknowledgment (process-crash
    /// safe) and fsync happens only at snapshots and shutdown.
    bool durable = false;
  };

  struct Stats {
    std::uint64_t lines = 0;      ///< lines enqueued
    std::uint64_t flushes = 0;    ///< group commits (one write [+ fsync] each)
    std::uint64_t synced = 0;     ///< flushes that included an fsync
    std::uint64_t batch_max = 0;  ///< largest batch, in lines
    [[nodiscard]] double batch_mean() const {
      return flushes ? static_cast<double>(lines_flushed) /
                           static_cast<double>(flushes)
                     : 0.0;
    }
    std::uint64_t lines_flushed = 0;  ///< lines covered by those flushes
  };

  /// Opens (creating or truncating) the WAL at `path`.
  [[nodiscard]] static util::Result<std::unique_ptr<GroupCommitter>> open(
      const std::string& path, Options options);
  /// Writes whatever is still queued (nothing after simulate_crash or a
  /// failed write).
  ~GroupCommitter();
  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Takes one line WITHOUT its trailing newline.  Inside a mutation, adds
  /// it to that mutation's entry.  Outside one, enqueues it under a ticket of
  /// its own and, unless a write is in progress, writes it and returns that
  /// write's status.  Errors stick: once a write fails nothing more is
  /// written until restart() (so the file never holds a batch that follows
  /// a lost one).
  [[nodiscard]] util::Status append(std::string line);
  /// Truncates the journal.  Pending lines, and those of an open mutation,
  /// are considered committed — the caller snapshots the state they describe
  /// BEFORE restarting (the save_project_file ordering) — and their waiters
  /// are released.  Clears a sticky error if the file opens again.
  [[nodiscard]] util::Status restart();

  // --- group-commit API ------------------------------------------------------
  /// Opens a mutation: append() collects lines until end_mutation().  One
  /// appender at a time brackets its appends this way (the shard's write
  /// lane, under the shard lock); mutations do not nest.
  void begin_mutation();
  /// Enqueues every line appended since begin_mutation() as one entry and
  /// returns its ticket (0 when the mutation appended nothing).  Writes
  /// nothing.  Fails with the sticky error once a write failed: the lines
  /// are refused, nothing of the mutation reaches the file, and it must not
  /// be acknowledged.
  [[nodiscard]] util::Result<std::uint64_t> end_mutation();
  /// Ticket of the most recent entry (0 before any).
  [[nodiscard]] std::uint64_t last_enqueued() const;
  /// Returns once every entry up to `ticket` (at most last_enqueued()) is
  /// written (and fsynced in durable mode), or an I/O error / crash
  /// simulation intervened.  The calling thread writes the batch itself
  /// whenever no other write is in progress.
  [[nodiscard]] util::Status wait_durable(std::uint64_t ticket);
  /// Final commit: writes what is queued and fsyncs regardless of durable
  /// mode.  Shutdown and snapshots call this.
  [[nodiscard]] util::Status sync_now();

  [[nodiscard]] Stats stats() const;

  /// TEST HOOK — models SIGKILL: a batch write already in flight lands,
  /// queued lines vanish, nothing else reaches the file.  Only bytes already
  /// written survive, so recovery tests can assert the
  /// acked-implies-recovered contract.
  void simulate_crash();

 private:
  GroupCommitter(std::string path, Options options);
  /// Writes every queued entry as one batch.  Requires `lock` on mu_, no
  /// write in progress, no sticky error and no crash; releases the lock for
  /// the I/O and holds it again on return.
  void flush_locked(std::unique_lock<std::mutex>& lock);

  const std::string path_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;   ///< the write in progress ended
  std::string pending_;               ///< queued entries' bytes, in order
  std::uint64_t pending_tickets_ = 0;  ///< entries in pending_
  std::uint64_t pending_lines_ = 0;    ///< lines in pending_
  bool in_mutation_ = false;
  std::string mutation_;  ///< the open mutation's lines
  std::uint64_t mutation_lines_ = 0;
  std::uint64_t enqueued_ = 0;   ///< tickets handed out
  std::uint64_t committed_ = 0;  ///< tickets flushed (durable per options)
  /// A thread holds a batch outside the lock.  While it is set only that
  /// thread touches batch_ and file_; otherwise they are touched under mu_.
  bool flushing_ = false;
  bool crashed_ = false;
  util::Status status_ = util::Status::ok_status();  ///< sticky first error
  Stats stats_;

  /// The batch being written; swapped with pending_ each flush, so the two
  /// buffers keep their capacity.
  std::string batch_;
  util::AppendFile file_;
};

}  // namespace herc::hercules
