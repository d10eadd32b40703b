#pragma once
// Crash-safe run journal (write-ahead log) for the Hercules database.
//
// A full snapshot (persist.hpp) is too expensive to rewrite after every run,
// so between snapshots the journal appends ONE line per recorded run — a
// compact JSON object holding the delta the run added to the execution
// space: the virtual-clock position plus every Level-4 data object, entity
// instance and run created since the previous line (which covers imported
// primary inputs as well as the run's own output).  Each line is flushed
// before the append returns, so after a crash the journal is intact up to —
// at worst — one torn final line.
//
// On disk each line is framed `J1 <len> <crc32c> <payload>` (see
// frame_journal_line): the length prefix makes a torn final record
// self-evident and the CRC-32C catches in-place corruption.  Every line is
// a frame; there is no unframed form.
//
// Recovery = load the last snapshot, replay the journal tail over it
// (recover_from_json / recover_project).  A line is written together with
// its newline in one write, so the one line a crash can tear is a last line
// with no newline after it, and a tear leaves a prefix of a frame: such a
// line is ignored.  Every other line that fails to verify is corruption, a
// real error (or, when the caller passes a RecoveryStats, replay stops at
// the last verified record and the damage is reported + quarantined
// instead).  The journal does NOT capture
// schedule-space mutations (plans, links) or manual clock advances between
// runs; snapshot after those if they must survive a crash.
//
// Durability guarantee: every line goes through a GroupCommitter
// (group_commit.hpp), the WAL's one writer.  A single-user journal's line
// reaches the OS before its run returns — an APPLICATION crash never loses
// an acknowledged run, a machine crash may lose the unsynced tail.  The
// server's durable mode covers many appends with one fsync per batch.
//
// Lifecycle: WorkflowManager::enable_journal installs one as a database
// observer over a freshly opened committer, so starting a journal opens the
// WAL once; save_project_file restarts (truncates) it after each snapshot.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/data_store.hpp"
#include "exec/executor.hpp"
#include "metadata/database.hpp"
#include "util/result.hpp"

namespace herc::hercules {

class GroupCommitter;
class WorkflowManager;

/// Append-only journal of recorded runs.  Registers itself as an observer of
/// the database on open() and detaches in the destructor.
class RunJournal : public meta::DatabaseObserver {
 public:
  /// Journals runs recorded in `db` through `committer`, which must outlive
  /// the journal.  Precondition: the committer is fresh — just opened by
  /// GroupCommitter::open, which truncated its WAL, and nothing appended
  /// since — so open() does no IO of its own.  High-water marks start at the
  /// CURRENT store/db sizes, so the journal only captures what happens
  /// after — take a snapshot first.
  [[nodiscard]] static std::unique_ptr<RunJournal> open(
      meta::Database& db, data::DataStore& store, exec::SimClock& clock,
      GroupCommitter& committer);

  ~RunJournal() override;
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Sticky: the first append/flush failure; appends stop once set.
  [[nodiscard]] util::Status status() const { return status_; }

  /// Lines appended since open/restart (diagnostics and tests).
  [[nodiscard]] std::uint64_t lines_written() const { return lines_; }

  /// DatabaseObserver: appends one delta line per recorded run.
  void on_run_recorded(const meta::Run& run) override;

  /// Truncates the file and re-bases the high-water marks on the current
  /// database state; called after a snapshot subsumes the journal.  Also
  /// clears a sticky error if the file becomes writable again.
  [[nodiscard]] util::Status restart();

 private:
  RunJournal(meta::Database& db, data::DataStore& store, exec::SimClock& clock,
             GroupCommitter& committer);
  /// Sets the high-water marks to the current store/db sizes.
  void mark_current();

  meta::Database* db_;
  data::DataStore* store_;
  exec::SimClock* clock_;
  GroupCommitter* committer_;
  // High-water marks: how many records each space had when the previous
  // line was written (everything beyond is "new" for the next line).
  std::size_t seen_data_ = 0, seen_instances_ = 0, seen_runs_ = 0;
  std::uint64_t lines_ = 0;
  util::Status status_ = util::Status::ok_status();
};

/// Splits journal text into its non-empty lines, in order.  The returned
/// views point into `text`; when `text` does not end in a newline the final
/// element may be a torn partial line (recover_from_json tolerates that).
/// Exposed so the fuzz harness can replay every journal prefix and assert
/// crash-point recovery composes.
[[nodiscard]] std::vector<std::string_view> journal_lines(std::string_view text);

/// Wraps one journal payload in the on-disk record frame:
///   `J1 <payload-bytes> <crc32c-hex8> <payload>`
/// The length makes a torn tail self-evident (fewer payload bytes than
/// declared) and the checksum catches in-place corruption the length cannot.
/// RunJournal frames every line before it reaches the committer, so the
/// framing cost is paid once per run, off the fsync path.
[[nodiscard]] std::string frame_journal_line(std::string_view payload);

/// Verdict on one stored journal line.
enum class FrameStatus {
  kOk,       ///< framed, length and checksum verified
  kTorn,     ///< a crash cut the last record short: truncate here
  kCorrupt,  ///< failing verification: stop, never replay past it
};

struct UnframedLine {
  FrameStatus status = FrameStatus::kCorrupt;
  std::string_view payload;  ///< valid for kOk
};

/// Classifies one line as produced by journal_lines.  `unterminated` says
/// the line is the journal's last and no newline follows it: only then can
/// it be the debris of a crash mid-append, and it is kTorn when it is a
/// prefix of a frame (cut inside the magic, the length, the checksum or the
/// payload).  Every other line that fails to verify is kCorrupt.
[[nodiscard]] UnframedLine unframe_journal_line(std::string_view line,
                                                bool unterminated);

/// What recovery found and did; filled by recover_from_json/recover_project
/// when the caller passes one (which also switches mid-stream corruption
/// handling from fail-hard to stop-at-last-verified — see below).
struct RecoveryStats {
  std::uint64_t lines_seen = 0;     ///< non-empty journal lines in the file
  std::uint64_t lines_applied = 0;  ///< records verified and replayed
  std::uint64_t torn_tail = 0;      ///< final records dropped as crash debris
  std::uint64_t corrupt_lines = 0;  ///< first mid-stream damaged record (0/1)
  std::uint64_t lines_discarded = 0;  ///< records after the corruption point
  bool snapshot_footer = false;   ///< snapshot carried a checksum footer
  bool snapshot_corrupt = false;  ///< ...which failed to verify (fatal)
  std::string quarantine_path;  ///< `.corrupt` sidecar (recover_project only)
  std::string detail;           ///< human-readable description of the damage
};

/// Reconstructs a manager from a snapshot plus the journal written after it.
/// The journal text may end in a torn line (crash mid-append): a prefix of
/// a frame with no newline after it.  That line is dropped.  Any other
/// damage (a checksum failure, a damaged header, a malformed record) is
/// handled two ways:
///   - stats == nullptr (strict): fail with kParse — the default for callers
///     that must not mask corruption (the CLI, the fuzz oracle).
///   - stats != nullptr (resilient): stop at the last verified record,
///     discard everything after the damage, and report what happened in
///     `stats`.  Nothing past an unverified record is EVER replayed.
/// An empty journal is valid (recovery degenerates to load_from_json).
[[nodiscard]] util::Result<std::unique_ptr<WorkflowManager>> recover_from_json(
    std::string_view snapshot_text, std::string_view journal_text,
    RecoveryStats* stats = nullptr);

/// File-based recovery: reads both files and delegates to recover_from_json.
/// A missing journal file is treated as empty (crash before the first run);
/// any other failure to read it fails the recovery.
/// With `stats`, mid-stream journal corruption additionally quarantines the
/// damaged file: its bytes are copied to `<journal_path>.corrupt` (recorded
/// in stats->quarantine_path) so the evidence survives the journal restart
/// that follows the next snapshot.
[[nodiscard]] util::Result<std::unique_ptr<WorkflowManager>> recover_project(
    const std::string& snapshot_path, const std::string& journal_path,
    RecoveryStats* stats = nullptr);

}  // namespace herc::hercules
