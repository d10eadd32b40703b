// Storage-integrity tests: the CRC-32C primitive, journal record framing,
// the snapshot footer, the FaultFs IO-fault shim, fsio behaviour under
// injected faults (including fd hygiene), and the corrupt-journal corpus —
// bit-flips at the head / middle / tail, truncated length prefixes, and bad
// snapshot footers must each recover to the last verified record with the
// damage reported and quarantined, never silently replayed.

#include <gtest/gtest.h>

#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "hercules/journal.hpp"
#include "hercules/persist.hpp"
#include "util/crc32c.hpp"
#include "util/faultfs.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace herc::hercules {
namespace {

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
  }
  ~TempFile() {
    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
  }
  std::string path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- crc32c -----------------------------------------------------------------

TEST(Crc32c, KnownAnswers) {
  // The standard CRC-32C check value.
  EXPECT_EQ(util::crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(util::crc32c(""), 0u);
  // iSCSI test vector: 32 zero bytes.
  EXPECT_EQ(util::crc32c(std::string(32, '\0')), 0x8a9136aau);
}

TEST(Crc32c, ChainingMatchesOneShot) {
  const std::string data = "the journal line to be checksummed";
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    std::uint32_t chained =
        util::crc32c(data.substr(cut), util::crc32c(data.substr(0, cut)));
    EXPECT_EQ(chained, util::crc32c(data)) << "cut at " << cut;
  }
}

TEST(Crc32c, HexRoundTrip) {
  for (std::uint32_t crc : {0u, 1u, 0xe3069283u, 0xffffffffu, 0x00ff00ffu}) {
    char hex[8];
    util::crc32c_to_hex(crc, hex);
    bool ok = false;
    EXPECT_EQ(util::crc32c_from_hex(std::string_view(hex, 8), &ok), crc);
    EXPECT_TRUE(ok);
  }
  bool ok = true;
  (void)util::crc32c_from_hex("not-hex!", &ok);
  EXPECT_FALSE(ok);
}

// --- journal framing --------------------------------------------------------

TEST(JournalFrame, RoundTrip) {
  const std::string payload = R"({"clock":7,"runs":[]})";
  const std::string framed = frame_journal_line(payload);
  ASSERT_EQ(framed.substr(0, 3), "J1 ");
  auto unframed = unframe_journal_line(framed, /*unterminated=*/false);
  EXPECT_EQ(unframed.status, FrameStatus::kOk);
  EXPECT_EQ(unframed.payload, payload);
}

TEST(JournalFrame, TornVersusCorruptClassification) {
  const std::string framed = frame_journal_line(R"({"clock":7})");
  // Every strict prefix of a framed line is a tear when final...
  for (std::size_t cut = 0; cut < framed.size(); ++cut) {
    auto at_tail = unframe_journal_line(framed.substr(0, cut), /*unterminated=*/true);
    EXPECT_NE(at_tail.status, FrameStatus::kOk) << "cut at " << cut;
    EXPECT_NE(at_tail.status, FrameStatus::kCorrupt) << "cut at " << cut;
  }
  // ...but a header-complete prefix mid-file is corruption, and in-place
  // damage is corruption even at the tail.
  auto mid_file = unframe_journal_line(framed.substr(0, framed.size() - 1),
                                       /*unterminated=*/false);
  EXPECT_EQ(mid_file.status, FrameStatus::kCorrupt);
  std::string flipped = framed;
  flipped[flipped.size() - 3] ^= 0x20;
  EXPECT_EQ(unframe_journal_line(flipped, /*unterminated=*/true).status,
            FrameStatus::kCorrupt);
  // Damage inside the checksum field itself.
  std::string bad_crc = framed;
  bad_crc[framed.find(' ', 3) + 1] = 'z';
  EXPECT_EQ(unframe_journal_line(bad_crc, /*unterminated=*/true).status,
            FrameStatus::kCorrupt);
}

TEST(JournalFrame, OnlyAnUnterminatedFramePrefixIsATear) {
  // There is no unframed form: a plain JSON line is corrupt wherever it is.
  for (bool unterminated : {false, true}) {
    EXPECT_EQ(unframe_journal_line(R"({"clock":7})", unterminated).status,
              FrameStatus::kCorrupt);
    EXPECT_EQ(unframe_journal_line("garbage", unterminated).status,
              FrameStatus::kCorrupt);
  }
  // A prefix of the magic is crash debris only with no newline after it.
  EXPECT_EQ(unframe_journal_line("J", /*unterminated=*/true).status, FrameStatus::kTorn);
  EXPECT_EQ(unframe_journal_line("J", /*unterminated=*/false).status,
            FrameStatus::kCorrupt);
  // A complete record with a damaged header is no prefix of any frame.
  const std::string framed = frame_journal_line(R"({"clock":7})");
  std::string bad_magic = framed;
  bad_magic[1] = '7';
  EXPECT_EQ(unframe_journal_line(bad_magic, /*unterminated=*/true).status,
            FrameStatus::kCorrupt);
  std::string bad_separator = framed;
  bad_separator[framed.find(' ', 3)] = 'x';
  EXPECT_EQ(unframe_journal_line(bad_separator, /*unterminated=*/true).status,
            FrameStatus::kCorrupt);
  // A length raised past the payload reads as a cut record, which only an
  // unterminated line can be.
  std::string long_length = framed;
  long_length[3] = '9';
  EXPECT_EQ(unframe_journal_line(long_length, /*unterminated=*/true).status,
            FrameStatus::kTorn);
  EXPECT_EQ(unframe_journal_line(long_length, /*unterminated=*/false).status,
            FrameStatus::kCorrupt);
}

// --- snapshot footer --------------------------------------------------------

TEST(SnapshotFooter, AppendVerifyStrip) {
  const std::string body = R"({"project":"p","clock":3})" "\n";
  const std::string with_footer = append_snapshot_footer(body);
  RecoveryStats stats;
  auto stripped = strip_snapshot_footer(with_footer, &stats);
  ASSERT_TRUE(stripped.ok()) << stripped.error().str();
  EXPECT_EQ(stripped.value(), body);
  EXPECT_TRUE(stats.snapshot_footer);
  EXPECT_FALSE(stats.snapshot_corrupt);
}

TEST(SnapshotFooter, MissingFooterPassesThrough) {
  RecoveryStats stats;
  auto stripped = strip_snapshot_footer("{\"plain\":1}", &stats);
  ASSERT_TRUE(stripped.ok());
  EXPECT_EQ(stripped.value(), "{\"plain\":1}");
  EXPECT_FALSE(stats.snapshot_footer);
}

TEST(SnapshotFooter, DamageIsDetected) {
  const std::string good = append_snapshot_footer(R"({"project":"p"})" "\n");
  // Flip one body byte, corrupt the stored checksum, and declare the wrong
  // length: all three must fail verification and set snapshot_corrupt.
  std::string flipped_body = good;
  flipped_body[2] ^= 0x01;
  std::string bad_crc = good;
  bad_crc[good.rfind(' ') - 4] = 'z';
  std::string bad_len = good;
  bad_len[good.rfind(' ') + 1] = '9';
  for (const std::string& damaged : {flipped_body, bad_crc, bad_len}) {
    RecoveryStats stats;
    auto stripped = strip_snapshot_footer(damaged, &stats);
    EXPECT_FALSE(stripped.ok());
    EXPECT_TRUE(stats.snapshot_corrupt);
  }
}

// --- FaultFs ----------------------------------------------------------------

TEST(FaultFs, ExactIndicesAndDeterminism) {
  util::FsFaultPlan plan;
  plan.eio_on = {2};
  plan.enospc_on = {4};
  for (int repeat = 0; repeat < 2; ++repeat) {
    util::FaultFs fs(7, plan);
    using A = util::FaultFs::Action;
    EXPECT_EQ(fs.decide(util::FsOp::kWrite, "x", 10).action, A::kNone);
    EXPECT_EQ(fs.decide(util::FsOp::kWrite, "x", 10).action, A::kEio);
    EXPECT_EQ(fs.decide(util::FsOp::kFsync, "x", 0).action, A::kNone);
    EXPECT_EQ(fs.decide(util::FsOp::kWrite, "x", 10).action, A::kEnospc);
    EXPECT_EQ(fs.ops(), 4u);
    EXPECT_EQ(fs.injected(), 2u);
    EXPECT_FALSE(fs.crashed());
  }
}

TEST(FaultFs, ProbabilisticFaultsAreAPureHashOfSeedAndIndex) {
  util::FsFaultPlan plan;
  plan.fail_prob = 0.3;
  std::vector<util::FaultFs::Action> first;
  for (int repeat = 0; repeat < 2; ++repeat) {
    util::FaultFs fs(42, plan);
    for (int i = 0; i < 64; ++i) {
      auto action = fs.decide(util::FsOp::kWrite, "x", 8).action;
      if (repeat == 0)
        first.push_back(action);
      else
        EXPECT_EQ(action, first[static_cast<std::size_t>(i)]) << "op " << i;
    }
  }
  util::FaultFs other(43, plan);
  bool any_difference = false;
  for (int i = 0; i < 64; ++i)
    if (other.decide(util::FsOp::kWrite, "x", 8).action != first[static_cast<std::size_t>(i)])
      any_difference = true;
  EXPECT_TRUE(any_difference) << "different seeds produced identical streams";
}

TEST(FaultFs, CrashPointLatchesAllLaterIo) {
  util::FsFaultPlan plan;
  plan.crash_at = 3;
  util::FaultFs fs(1, plan);
  using A = util::FaultFs::Action;
  EXPECT_EQ(fs.decide(util::FsOp::kWrite, "x", 4).action, A::kNone);
  EXPECT_EQ(fs.decide(util::FsOp::kFsync, "x", 0).action, A::kNone);
  EXPECT_EQ(fs.decide(util::FsOp::kWrite, "x", 4).action, A::kCrash);
  EXPECT_TRUE(fs.crashed());
  // The process is dead: every later operation fails too.
  EXPECT_NE(fs.decide(util::FsOp::kRename, "x", 0).action, A::kNone);
  EXPECT_NE(fs.decide(util::FsOp::kOpen, "y", 0).action, A::kNone);
}

TEST(FaultFs, TornWritePrefixIsAStrictPrefix) {
  util::FsFaultPlan plan;
  plan.torn_write_on = {1};
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    util::FaultFs fs(seed, plan);
    auto decision = fs.decide(util::FsOp::kWrite, "x", 100);
    ASSERT_EQ(decision.action, util::FaultFs::Action::kTorn) << seed;
    EXPECT_LT(decision.prefix_bytes, 100u) << seed;
    EXPECT_TRUE(fs.crashed());
  }
}

TEST(FaultFs, PathFilterScopesCountingAndFaults) {
  util::FsFaultPlan plan;
  plan.eio_on = {1};
  plan.path_filter = "/scoped/";
  util::FaultFs fs(1, plan);
  using A = util::FaultFs::Action;
  // Non-matching paths neither consume indices nor fail.
  EXPECT_EQ(fs.decide(util::FsOp::kWrite, "/elsewhere/file", 8).action, A::kNone);
  EXPECT_EQ(fs.ops(), 0u);
  EXPECT_EQ(fs.decide(util::FsOp::kWrite, "/scoped/file", 8).action, A::kEio);
  EXPECT_EQ(fs.ops(), 1u);
}

// --- fsio under injected faults ---------------------------------------------

int open_fd_count() {
  int count = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;
}

TEST(FsioFaults, AtomicWriteFailurePreservesTargetAndLeaksNothing) {
  TempFile file("/tmp/herc_faulted_atomic.json");
  ASSERT_TRUE(util::write_file(file.path, "old contents").ok());
  const int fds_before = open_fd_count();

  // Sweep the fault across the atomic-replace sequence (open, write, fsync,
  // rename, dir fsync): every position must fail cleanly — the target is
  // never torn, no temp file survives, no descriptor leaks.  Up to and
  // including the rename (ops 1-4) the OLD contents must be preserved; a
  // directory-fsync failure (op 5) comes after the replacement is visible,
  // so the new contents are allowed (the caller still gets the error — the
  // durability guarantee was not met).
  constexpr std::uint64_t kRenameIndex = 4;
  for (std::uint64_t index = 1; index <= 5; ++index) {
    for (auto arm : {&util::FsFaultPlan::eio_on, &util::FsFaultPlan::enospc_on}) {
      util::Status status = util::Status::ok_status();
      {
        util::FsFaultPlan plan;
        plan.*arm = {index};
        plan.path_filter = file.path;
        util::ScopedFaultFs faults(11, plan);
        status = util::write_file_atomic(file.path, "new contents", true);
        ASSERT_GT(faults.fs().injected(), 0u) << "index " << index;
      }
      EXPECT_FALSE(status.ok()) << "index " << index;
      EXPECT_EQ(status.error().code, util::Error::Code::kIoError);
      EXPECT_NE(status.error().message.find("(injected)"), std::string::npos);

      const std::string content = slurp(file.path);
      EXPECT_TRUE(content == "old contents" || content == "new contents")
          << "index " << index << ": torn target: " << content;
      if (index <= kRenameIndex)
        EXPECT_EQ(content, "old contents") << "index " << index;
      std::ifstream tmp(file.path + ".tmp");
      EXPECT_FALSE(tmp.good()) << "index " << index;
      ASSERT_TRUE(util::write_file(file.path, "old contents").ok());
    }
  }
  EXPECT_EQ(open_fd_count(), fds_before);

  // No fault installed: the same write goes through.
  ASSERT_TRUE(util::write_file_atomic(file.path, "new contents", true).ok());
  EXPECT_EQ(slurp(file.path), "new contents");
  EXPECT_EQ(open_fd_count(), fds_before);
}

TEST(FsioFaults, AppendShortWriteReportsDiskFullAndKeepsFdHygiene) {
  TempFile file("/tmp/herc_faulted_append.wal");
  const int fds_before = open_fd_count();
  {
    util::FsFaultPlan plan;
    plan.short_write_on = {2};
    plan.path_filter = file.path;
    util::ScopedFaultFs faults(3, plan);
    util::AppendFile out;
    ASSERT_TRUE(out.open_trunc(file.path).ok());  // op 1
    auto short_write = out.append("0123456789");  // op 2: prefix only
    EXPECT_FALSE(short_write.ok());
    EXPECT_EQ(short_write.error().code, util::Error::Code::kIoError);
    out.close();
  }
  // The injected short write landed a strict prefix of the payload.
  EXPECT_LT(slurp(file.path).size(), 10u);
  EXPECT_EQ(std::string("0123456789").substr(0, slurp(file.path).size()),
            slurp(file.path));
  EXPECT_EQ(open_fd_count(), fds_before);
}

TEST(FsioFaults, TornWriteLatchesEverythingAfter) {
  TempFile file("/tmp/herc_faulted_torn.wal");
  util::FsFaultPlan plan;
  plan.torn_write_on = {2};
  plan.path_filter = file.path;
  util::ScopedFaultFs faults(5, plan);
  util::AppendFile out;
  ASSERT_TRUE(out.open_trunc(file.path).ok());
  EXPECT_FALSE(out.append("the line that tears\n").ok());
  EXPECT_TRUE(faults.fs().crashed());
  // Dead process: later IO on the same path fails without touching disk.
  EXPECT_FALSE(out.append("after death\n").ok());
  EXPECT_FALSE(out.sync().ok());
  EXPECT_EQ(slurp(file.path).find("after death"), std::string::npos);
}

// --- corrupt-journal corpus -------------------------------------------------

/// A real snapshot + multi-line framed journal from the circuit fixture.
struct Corpus {
  std::string snapshot;
  std::string journal;
  std::vector<std::string> lines;  // without trailing newlines
};

Corpus make_corpus() {
  TempFile wal("/tmp/herc_integrity_corpus.wal");
  auto m = test::make_circuit_manager();
  Corpus corpus;
  corpus.snapshot = save_to_json(*m);
  EXPECT_TRUE(m->enable_journal(wal.path).ok());
  m->execute_task("adder", "alice").value();       // Create + Simulate
  m->run_activity("adder", "Simulate", "bob").value();
  m->disable_journal();
  corpus.journal = slurp(wal.path);
  std::istringstream in(corpus.journal);
  for (std::string line; std::getline(in, line);) corpus.lines.push_back(line);
  EXPECT_EQ(corpus.lines.size(), 3u);
  return corpus;
}

std::string flip_payload_byte(std::string line) {
  line[line.size() / 2] ^= 0x01;  // well past the header on these lines
  return line;
}

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

TEST(CorruptJournal, BitFlipStopsAtLastVerifiedRecord) {
  const Corpus corpus = make_corpus();
  for (std::size_t damaged = 0; damaged < corpus.lines.size(); ++damaged) {
    std::vector<std::string> lines = corpus.lines;
    lines[damaged] = flip_payload_byte(lines[damaged]);
    const std::string journal = join(lines);

    // Strict mode (the CLI, the fuzz oracle): mid-stream corruption is a
    // hard parse error, nothing is silently replayed.
    auto strict = recover_from_json(corpus.snapshot, journal);
    ASSERT_FALSE(strict.ok()) << "line " << damaged;
    EXPECT_EQ(strict.error().code, util::Error::Code::kParse);

    // Resilient mode (the server): stop at the last verified record and
    // report exactly what was dropped.
    RecoveryStats stats;
    auto resilient = recover_from_json(corpus.snapshot, journal, &stats);
    ASSERT_TRUE(resilient.ok()) << "line " << damaged << ": "
                                << resilient.error().str();
    EXPECT_EQ(stats.lines_applied, damaged);
    EXPECT_EQ(stats.corrupt_lines, 1u);
    EXPECT_EQ(stats.lines_discarded, corpus.lines.size() - damaged - 1);
    EXPECT_EQ(stats.torn_tail, 0u);
    EXPECT_FALSE(stats.detail.empty());

    // The recovered state is exactly the replay of the verified prefix.
    auto want = recover_from_json(
        corpus.snapshot,
        join({corpus.lines.begin(), corpus.lines.begin() +
                                        static_cast<std::ptrdiff_t>(damaged)}));
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(save_to_json(*resilient.value()), save_to_json(*want.value()));
  }
}

TEST(CorruptJournal, TruncatedLengthPrefixIsATornTailNotCorruption) {
  const Corpus corpus = make_corpus();
  // Cut the final line inside "J1 <len>": crash debris, even for resilient
  // callers nothing is quarantined and the prefix replays fully.
  for (std::size_t keep : {1u, 2u, 4u, 5u}) {
    const std::string journal =
        join({corpus.lines[0], corpus.lines[1]}) + corpus.lines[2].substr(0, keep);
    RecoveryStats stats;
    auto recovered = recover_from_json(corpus.snapshot, journal, &stats);
    ASSERT_TRUE(recovered.ok()) << "keep " << keep;
    EXPECT_EQ(stats.lines_applied, 2u) << "keep " << keep;
    EXPECT_EQ(stats.torn_tail, 1u) << "keep " << keep;
    EXPECT_EQ(stats.corrupt_lines, 0u) << "keep " << keep;
    // Strict mode agrees: a torn tail is not an error.
    EXPECT_TRUE(recover_from_json(corpus.snapshot, journal).ok());
  }
}

TEST(CorruptJournal, DamagedHeaderOnACompleteFinalRecordIsCorruption) {
  // The final record is complete and newline-terminated, so no crash tore
  // it: damage to its header is corruption, never a tear.  An acknowledged
  // run must not vanish unreported.
  const Corpus corpus = make_corpus();
  const std::string& last = corpus.lines[2];
  std::string bad_magic = last;
  bad_magic[1] = '7';  // J1 -> J7
  std::string bad_length = last;
  bad_length[3] = bad_length[3] == '9' ? '8' : '9';  // one digit of the length
  for (const std::string& damaged : {bad_magic, bad_length}) {
    const std::string journal = join({corpus.lines[0], corpus.lines[1], damaged});

    auto strict = recover_from_json(corpus.snapshot, journal);
    ASSERT_FALSE(strict.ok()) << damaged.substr(0, 16);
    EXPECT_EQ(strict.error().code, util::Error::Code::kParse);

    TempFile snapshot("/tmp/herc_integrity_header_snap.json");
    TempFile wal("/tmp/herc_integrity_header.wal");
    ASSERT_TRUE(util::write_file(snapshot.path, corpus.snapshot).ok());
    ASSERT_TRUE(util::write_file(wal.path, journal).ok());
    RecoveryStats stats;
    auto resilient = recover_project(snapshot.path, wal.path, &stats);
    ASSERT_TRUE(resilient.ok()) << resilient.error().str();
    EXPECT_EQ(stats.lines_applied, 2u);
    EXPECT_EQ(stats.corrupt_lines, 1u);
    EXPECT_EQ(stats.torn_tail, 0u);
    EXPECT_EQ(stats.quarantine_path, wal.path + ".corrupt");
    EXPECT_EQ(slurp(stats.quarantine_path), journal);
  }
}

TEST(CorruptJournal, RecoverProjectQuarantinesTheDamagedJournal) {
  const Corpus corpus = make_corpus();
  TempFile snapshot("/tmp/herc_integrity_snap.json");
  TempFile journal("/tmp/herc_integrity_journal.wal");
  ASSERT_TRUE(
      util::write_file(snapshot.path, append_snapshot_footer(corpus.snapshot))
          .ok());
  std::vector<std::string> lines = corpus.lines;
  lines[1] = flip_payload_byte(lines[1]);
  ASSERT_TRUE(util::write_file(journal.path, join(lines)).ok());

  RecoveryStats stats;
  auto recovered = recover_project(snapshot.path, journal.path, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.error().str();
  EXPECT_TRUE(stats.snapshot_footer);
  EXPECT_EQ(stats.lines_applied, 1u);
  EXPECT_EQ(stats.corrupt_lines, 1u);
  ASSERT_EQ(stats.quarantine_path, journal.path + ".corrupt");
  // The sidecar preserves the damaged bytes for diagnosis.
  EXPECT_EQ(slurp(stats.quarantine_path), join(lines));
}

TEST(CorruptJournal, BadSnapshotFooterFailsAndQuarantinesTheSnapshot) {
  const Corpus corpus = make_corpus();
  TempFile snapshot("/tmp/herc_integrity_badsnap.json");
  TempFile journal("/tmp/herc_integrity_badsnap.wal");
  std::string damaged = append_snapshot_footer(corpus.snapshot);
  damaged[damaged.size() / 2] ^= 0x01;
  ASSERT_TRUE(util::write_file(snapshot.path, damaged).ok());
  ASSERT_TRUE(util::write_file(journal.path, corpus.journal).ok());

  // A snapshot damaged in place is unrecoverable (the journal replays over
  // the snapshot's state); recovery must refuse rather than rebuild a
  // silently wrong project.
  RecoveryStats stats;
  auto recovered = recover_project(snapshot.path, journal.path, &stats);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(stats.snapshot_corrupt);
  ASSERT_EQ(stats.quarantine_path, snapshot.path + ".corrupt");
  EXPECT_EQ(slurp(stats.quarantine_path), damaged);
}

}  // namespace
}  // namespace herc::hercules
