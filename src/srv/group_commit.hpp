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
#include <vector>

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
    /// Bounded extra latency the flusher waits after picking up work, so
    /// concurrent appenders can join the batch.  0 = flush immediately
    /// (batching then comes only from fsync backpressure).
    std::chrono::microseconds window{200};
  };

  struct Stats {
    std::uint64_t lines = 0;      ///< appends enqueued
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
  /// Enqueues the line and returns immediately; the line's durability is
  /// settled by wait_durable().  Write errors are deferred: they surface on
  /// the waiting side and stick for later appends, and once a flush fails
  /// nothing more is written until restart() (so the file never holds a
  /// batch that follows a lost one).
  [[nodiscard]] util::Status append(std::string line) override;
  /// Truncates the journal.  Pending lines are considered committed — the
  /// caller snapshots the state they describe BEFORE restarting (the
  /// save_project_file ordering) — and their waiters are released.
  [[nodiscard]] util::Status restart() override;

  // --- group-commit API ------------------------------------------------------
  /// Ticket of the most recent append (0 before any).  A request captures
  /// this after its mutation completes and waits on it after releasing the
  /// shard lock.
  [[nodiscard]] std::uint64_t last_enqueued() const;
  /// Blocks until every line up to `ticket` is flushed (and fsynced in
  /// durable mode), or an I/O error / crash simulation intervened.
  [[nodiscard]] util::Status wait_durable(std::uint64_t ticket);
  /// Final commit: drains the queue and fsyncs regardless of durable mode.
  /// Shutdown and snapshots call this.
  [[nodiscard]] util::Status sync_now();

  [[nodiscard]] Stats stats() const;

  /// TEST HOOK — models SIGKILL: the flusher stops where it is, queued lines
  /// vanish, nothing else reaches the file.  Only bytes already written
  /// survive, so recovery tests can assert the acked-implies-recovered
  /// contract.
  void simulate_crash();

 private:
  GroupCommitter(std::string path, Options options);
  void flusher_main();

  const std::string path_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< flusher: queue non-empty or stop
  std::condition_variable done_cv_;   ///< waiters: committed_ advanced / error
  std::vector<std::string> pending_;
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
