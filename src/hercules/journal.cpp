#include "hercules/journal.hpp"

#include <algorithm>
#include <charconv>

#include "hercules/group_commit.hpp"
#include "hercules/persist.hpp"
#include "hercules/persist_detail.hpp"
#include "hercules/workflow_manager.hpp"
#include "util/crc32c.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace herc::hercules {

using util::Json;
using util::JsonArray;
using util::JsonObject;

RunJournal::RunJournal(meta::Database& db, data::DataStore& store,
                       exec::SimClock& clock, GroupCommitter& committer)
    : db_(&db), store_(&store), clock_(&clock), committer_(&committer) {
  db_->add_observer(this);
}

RunJournal::~RunJournal() { db_->remove_observer(this); }

std::unique_ptr<RunJournal> RunJournal::open(meta::Database& db, data::DataStore& store,
                                             exec::SimClock& clock,
                                             GroupCommitter& committer) {
  // Not make_unique: the constructor is private.
  std::unique_ptr<RunJournal> j(new RunJournal(db, store, clock, committer));
  // The committer's open truncated the WAL; only the marks are left to set.
  j->mark_current();
  return j;
}

util::Status RunJournal::restart() {
  status_ = committer_->restart();
  if (status_.ok()) mark_current();
  return status_;
}

void RunJournal::mark_current() {
  seen_data_ = store_->size();
  seen_instances_ = db_->instance_count();
  seen_runs_ = db_->run_count();
  lines_ = 0;
}

void RunJournal::on_run_recorded(const meta::Run& run) {
  if (!status_.ok()) return;

  JsonObject line;
  // The clock has not always caught up with the run when it is recorded
  // (concurrent dispatch advances to the makespan only at the end), so the
  // journaled clock is the run's finish or the current clock, whichever is
  // later — exactly where an uninterrupted execution would leave it.
  line.set("clock", std::max(clock_->now().minutes_since_epoch(),
                             run.finished_at.minutes_since_epoch()));

  JsonArray data;
  const auto& objects = store_->all();
  for (std::size_t i = seen_data_; i < objects.size(); ++i)
    data.push_back(detail::data_object_json(objects[i]));
  seen_data_ = objects.size();
  line.set("data_objects", std::move(data));

  JsonArray instances;
  const auto& insts = db_->instances();
  for (std::size_t i = seen_instances_; i < insts.size(); ++i)
    instances.push_back(detail::instance_json(insts[i]));
  seen_instances_ = insts.size();
  line.set("instances", std::move(instances));

  JsonArray runs;
  const auto& all_runs = db_->runs();
  for (std::size_t i = seen_runs_; i < all_runs.size(); ++i)
    runs.push_back(detail::run_json(all_runs[i]));
  seen_runs_ = all_runs.size();
  line.set("runs", std::move(runs));

  status_ = committer_->append(frame_journal_line(Json(std::move(line)).dump(-1)));
  if (status_.ok()) ++lines_;
}

std::string frame_journal_line(std::string_view payload) {
  char crc_hex[8];
  util::crc32c_to_hex(util::crc32c(payload), crc_hex);
  std::string framed = "J1 ";
  framed += std::to_string(payload.size());
  framed.push_back(' ');
  framed.append(crc_hex, 8);
  framed.push_back(' ');
  framed.append(payload);
  return framed;
}

UnframedLine unframe_journal_line(std::string_view line, bool unterminated) {
  // A line that runs out before its frame is complete is a prefix of a
  // frame: a tear when nothing follows it, corruption anywhere else.  Any
  // other damage is corruption wherever it is.
  const UnframedLine corrupt{FrameStatus::kCorrupt, {}};
  const UnframedLine cut{unterminated ? FrameStatus::kTorn : FrameStatus::kCorrupt, {}};
  constexpr std::string_view kMagic = "J1 ";
  if (line.size() < kMagic.size()) return kMagic.starts_with(line) ? cut : corrupt;
  if (!line.starts_with(kMagic)) return corrupt;
  std::string_view rest = line.substr(kMagic.size());

  const std::size_t digits = std::min(rest.find_first_not_of("0123456789"), rest.size());
  if (digits == rest.size()) return cut;
  std::uint64_t declared = 0;
  if (digits == 0 || rest[digits] != ' ' ||
      std::from_chars(rest.data(), rest.data() + digits, declared).ec != std::errc{})
    return corrupt;
  rest.remove_prefix(digits + 1);

  const std::string_view crc_hex = rest.substr(0, 8);
  if (crc_hex.find_first_not_of("0123456789abcdef") != std::string_view::npos)
    return corrupt;
  if (rest.size() <= crc_hex.size()) return cut;
  if (rest[crc_hex.size()] != ' ') return corrupt;
  const std::string_view payload = rest.substr(crc_hex.size() + 1);
  if (payload.size() < declared) return cut;
  bool hex_ok = false;  // checked above
  const std::uint32_t stored = util::crc32c_from_hex(crc_hex, &hex_ok);
  if (payload.size() > declared || util::crc32c(payload) != stored) return corrupt;
  return {FrameStatus::kOk, payload};
}

namespace {

/// Applies one parsed journal line to the manager.  Records already present
/// (id at or below the current high-water mark) are skipped, which makes
/// replay idempotent.  Field errors propagate as exceptions, translated by
/// the caller.
util::Status apply_line(WorkflowManager& m, const JsonObject& line) {
  for (const auto& d : line.at("data_objects").as_array()) {
    const auto& o = d.as_object();
    if (static_cast<std::uint64_t>(o.at("id").as_int()) <= m.store().size()) continue;
    auto st = detail::restore_data_object(m.store(), o);
    if (!st.ok()) return st;
  }
  for (const auto& e : line.at("instances").as_array()) {
    const auto& o = e.as_object();
    if (static_cast<std::uint64_t>(o.at("id").as_int()) <= m.db().instance_count())
      continue;
    auto st = detail::restore_instance(m.db(), o);
    if (!st.ok()) return st;
  }
  for (const auto& r : line.at("runs").as_array()) {
    const auto& o = r.as_object();
    if (static_cast<std::uint64_t>(o.at("id").as_int()) <= m.db().run_count()) continue;
    auto st = detail::restore_run(m.db(), m.schema(), o);
    if (!st.ok()) return st;
  }
  m.clock().advance_to(cal::WorkInstant(line.at("clock").as_int()));
  return util::Status::ok_status();
}

}  // namespace

std::vector<std::string_view> journal_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    if (nl > pos) lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

namespace {

/// Shared corruption policy: strict mode fails hard; resilient mode (stats
/// present) records the damage and tells the replay loop to stop at the last
/// verified record.  Returns the error for strict callers, OK otherwise.
util::Status note_corruption(RecoveryStats* stats, std::size_t line_no,
                             std::size_t lines_total, std::string what) {
  if (stats == nullptr)
    return util::parse_error("journal line " + std::to_string(line_no) + ": " +
                             what);
  stats->corrupt_lines += 1;
  stats->lines_discarded = lines_total - line_no;  // records never examined
  stats->detail = "journal line " + std::to_string(line_no) + ": " + what;
  return util::Status::ok_status();
}

}  // namespace

util::Result<std::unique_ptr<WorkflowManager>> recover_from_json(
    std::string_view snapshot_text, std::string_view journal_text,
    RecoveryStats* stats) {
  auto loaded = load_from_json(snapshot_text, stats);
  if (!loaded.ok()) return loaded;
  std::unique_ptr<WorkflowManager> m = std::move(loaded).take();

  std::vector<std::string_view> lines = journal_lines(journal_text);
  if (stats != nullptr) stats->lines_seen = lines.size();
  // Each line reaches the file together with its newline, in one write, so
  // only a last line with no newline after it can be torn.
  const bool unterminated = !journal_text.empty() && journal_text.back() != '\n';
  for (std::size_t i = 0; i < lines.size(); ++i) {
    auto frame = unframe_journal_line(lines[i], unterminated && i + 1 == lines.size());
    if (frame.status == FrameStatus::kTorn) {
      // Crash debris: the append that never finished.  Nothing was
      // acknowledged for it, so dropping it IS the correct recovery.
      if (stats != nullptr) stats->torn_tail += 1;
      break;
    }
    if (frame.status == FrameStatus::kCorrupt) {
      auto st = note_corruption(stats, i + 1, lines.size(),
                                "checksum/length verification failed");
      if (!st.ok()) return st.error();
      break;
    }
    auto parsed = Json::parse(frame.payload);
    if (!parsed.ok() || !parsed.value().is_object()) {
      auto st = note_corruption(stats, i + 1, lines.size(),
                                parsed.ok() ? std::string("not an object")
                                            : parsed.error().message);
      if (!st.ok()) return st.error();
      break;
    }
    try {
      auto st = apply_line(*m, parsed.value().as_object());
      if (!st.ok()) return st.error();
    } catch (const std::out_of_range& e) {
      auto st = note_corruption(stats, i + 1, lines.size(),
                                std::string("missing field: ") + e.what());
      if (!st.ok()) return st.error();
      break;
    } catch (const std::bad_variant_access&) {
      auto st = note_corruption(stats, i + 1, lines.size(),
                                "field has wrong JSON type");
      if (!st.ok()) return st.error();
      break;
    }
    if (stats != nullptr) stats->lines_applied += 1;
  }
  return m;
}

util::Result<std::unique_ptr<WorkflowManager>> recover_project(
    const std::string& snapshot_path, const std::string& journal_path,
    RecoveryStats* stats) {
  auto snapshot = util::read_file(snapshot_path);
  if (!snapshot.ok()) return snapshot.error();
  auto journal = util::read_file(journal_path);
  // Crash before the first post-snapshot run: no journal is a valid state.
  // Any other read failure is not: recovering without the runs in it would
  // lose them for good once the caller re-snapshots and restarts the WAL.
  if (!journal.ok() && journal.error().code != util::Error::Code::kNotFound)
    return journal.error();
  std::string_view journal_text =
      journal.ok() ? std::string_view(journal.value()) : std::string_view{};
  auto recovered = recover_from_json(snapshot.value(), journal_text, stats);
  if (stats != nullptr && (stats->corrupt_lines > 0 || stats->snapshot_corrupt)) {
    // Preserve the damaged bytes in a sidecar: the next snapshot truncates
    // the live journal (or replaces the snapshot), and diagnosing corruption
    // needs the evidence.
    const bool snapshot_damage = stats->snapshot_corrupt;
    const std::string sidecar =
        (snapshot_damage ? snapshot_path : journal_path) + ".corrupt";
    if (util::write_file(sidecar,
                         snapshot_damage ? std::string_view(snapshot.value())
                                         : journal_text)
            .ok())
      stats->quarantine_path = sidecar;
  }
  return recovered;
}

}  // namespace herc::hercules
