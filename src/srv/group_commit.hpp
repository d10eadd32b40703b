#pragma once
// Group-committed journal writes.
//
// A per-run fsync caps a shard at a few hundred durable runs per second.
// The GroupCommitter decouples APPEND from COMMIT instead: appends (journal
// lines, produced under the shard's mutation lock) only enqueue; a flusher
// thread drains the queue, concatenates every pending line, writes them in
// ONE write() and — in durable mode — ONE fsync.  Requests acknowledge only
// after wait_durable() covers their lines, so while one batch is inside
// fsync the shard lock is free and the next requests pile their lines into
// the next batch: batch size grows with load and the fsync cost is
// amortized across it.
//
// Tickets are per mutation, not per line: the shard brackets each write-lane
// op with begin_mutation()/end_mutation(), and every line the op appends in
// between is enqueued as one entry under one ticket.  An op's lines therefore
// always share a flush, whatever the flusher's timing, so flushes never
// outnumber mutations.  An append outside a mutation keeps its own ticket.
// The flusher only sees an op once it ends, so the accumulation window is
// counted from when the op began: an op that outlasts the window is written
// at once rather than a full window after its last line.
//
// Crash contract: a batch is written with a single write(), so process death
// can lose only whole un-acknowledged batches plus (machine crash) the tail
// the last fsync did not cover — never a run whose response was sent.  The
// journal file stays a valid line sequence with at worst a torn final line,
// exactly what recover_from_json tolerates.
//
// The committer implements hercules::JournalSink, so a plain RunJournal
// writes through it unchanged (WorkflowManager::enable_journal_sink).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "hercules/journal.hpp"
#include "util/fsio.hpp"
#include "util/result.hpp"

namespace herc::srv {

class GroupCommitter : public hercules::JournalSink {
 public:
  struct Options {
    /// fsync each batch: acknowledged runs survive power loss.  Off, the
    /// batch write still reaches the OS before acknowledgment (process-crash
    /// safe) and fsync happens only at snapshots and shutdown.
    bool durable = false;
    /// Accumulation window: a batch is written one window after its oldest
    /// entry began (a mutation begins at begin_mutation()), so concurrent
    /// appenders can join it; a mutation that ran longer than the window is
    /// written as soon as it ends.  0 = flush immediately (batching then
    /// comes only from fsync backpressure).
    std::chrono::microseconds window{200};
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

  [[nodiscard]] static util::Result<std::unique_ptr<GroupCommitter>> open(
      const std::string& path, Options options);
  ~GroupCommitter() override;
  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  // --- JournalSink ----------------------------------------------------------
  [[nodiscard]] const std::string& path() const override { return path_; }
  /// Enqueues the line under a ticket of its own and returns immediately —
  /// or, inside a mutation, adds it to that mutation's entry.  The line's
  /// durability is settled by wait_durable().  Write errors are deferred:
  /// they surface on the waiting side and stick for later appends, and once
  /// a flush fails nothing more is written until restart() (so the file
  /// never holds a batch that follows a lost one).
  [[nodiscard]] util::Status append(std::string line) override;
  /// Truncates the journal.  Pending lines, and those of an open mutation,
  /// are considered committed — the caller snapshots the state they describe
  /// BEFORE restarting (the save_project_file ordering) — and their waiters
  /// are released.
  [[nodiscard]] util::Status restart() override;

  // --- group-commit API ------------------------------------------------------
  /// Opens a mutation: append() collects lines until end_mutation().  One
  /// appender at a time brackets its appends this way (the shard's write
  /// lane, under the shard lock); mutations do not nest.
  void begin_mutation();
  /// Enqueues every line appended since begin_mutation() as one entry and
  /// returns its ticket (0 when the mutation appended nothing).  Fails with
  /// the sticky error once a flush failed: the lines are refused, nothing of
  /// the mutation reaches the file, and it must not be acknowledged.
  [[nodiscard]] util::Result<std::uint64_t> end_mutation();
  /// Ticket of the most recent entry (0 before any).
  [[nodiscard]] std::uint64_t last_enqueued() const;
  /// Blocks until every entry up to `ticket` is flushed (and fsynced in
  /// durable mode), or an I/O error / crash simulation intervened.
  [[nodiscard]] util::Status wait_durable(std::uint64_t ticket);
  /// Final commit: drains the queue and fsyncs regardless of durable mode.
  /// Shutdown and snapshots call this.
  [[nodiscard]] util::Status sync_now();

  [[nodiscard]] Stats stats() const;

  /// TEST HOOK — models SIGKILL: the flusher stops where it is (a batch
  /// write already in flight lands), queued lines vanish, nothing else
  /// reaches the file.  Only bytes already written survive, so recovery
  /// tests can assert the acked-implies-recovered contract.
  void simulate_crash();

 private:
  GroupCommitter(std::string path, Options options);
  void flusher_main();

  const std::string path_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< flusher: queue non-empty or stop
  std::condition_variable done_cv_;   ///< waiters: committed_ advanced / error
  std::string pending_;               ///< queued entries' bytes, in order
  std::uint64_t pending_tickets_ = 0;  ///< entries in pending_
  std::uint64_t pending_lines_ = 0;    ///< lines in pending_
  bool in_mutation_ = false;
  std::string mutation_;  ///< the open mutation's lines
  std::uint64_t mutation_lines_ = 0;
  std::chrono::steady_clock::time_point mutation_began_;
  /// When the oldest entry in pending_ began: its append, or its mutation's
  /// begin_mutation().  The flusher writes the batch one window after it.
  std::chrono::steady_clock::time_point oldest_began_;
  std::uint64_t enqueued_ = 0;   ///< tickets handed out
  std::uint64_t committed_ = 0;  ///< tickets flushed (durable per options)
  bool flushing_ = false;        ///< flusher holds a batch outside the lock
  bool stop_ = false;
  bool crashed_ = false;
  util::Status status_ = util::Status::ok_status();  ///< sticky first error
  Stats stats_;

  util::AppendFile file_;  ///< touched only by the flusher and restart()
  std::thread flusher_;
};

}  // namespace herc::srv
