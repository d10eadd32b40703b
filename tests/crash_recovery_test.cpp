// Crash-safety tests: the run journal (WAL), snapshot + journal recovery,
// and the crash harness — a fault-injected process death at every possible
// invocation must recover to exactly the state an uninterrupted reference
// reaches with the same recorded runs.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "exec/fault.hpp"
#include "hercules/journal.hpp"
#include "hercules/persist.hpp"
#include "util/faultfs.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace herc::hercules {
namespace {

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Journal, AppendsOneLinePerRecordedRun) {
  TempFile journal("/tmp/herc_journal_lines.wal");
  auto m = test::make_circuit_manager();
  ASSERT_TRUE(m->enable_journal(journal.path).ok());
  ASSERT_NE(m->journal(), nullptr);
  m->execute_task("adder", "alice").value();  // Create + Simulate
  m->run_activity("adder", "Simulate", "bob").value();
  EXPECT_EQ(m->journal()->lines_written(), 3u);
  EXPECT_TRUE(m->journal()->status().ok());

  std::istringstream lines(slurp(journal.path));
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    auto unframed = unframe_journal_line(line, /*is_final=*/false);
    EXPECT_EQ(unframed.status, FrameStatus::kOk) << line;
    EXPECT_TRUE(util::Json::parse(unframed.payload).ok()) << line;
    ++count;
  }
  EXPECT_EQ(count, 3);
}

TEST(Journal, RecoveryMatchesUninterruptedReferenceByteIdentically) {
  TempFile snapshot("/tmp/herc_journal_snap.json");
  TempFile journal("/tmp/herc_journal_tail.wal");

  // Reference: the same operations with no journaling and no crash.
  auto reference = test::make_circuit_manager();
  reference->execute_task("adder", "alice").value();
  reference->run_activity("adder", "Simulate", "bob").value();

  // Journaled twin: snapshot the empty project, journal every run, then
  // "crash" (drop the manager without saving).
  {
    auto m = test::make_circuit_manager();
    ASSERT_TRUE(m->enable_journal(journal.path).ok());
    ASSERT_TRUE(save_project_file(*m, snapshot.path).ok());
    m->execute_task("adder", "alice").value();
    m->run_activity("adder", "Simulate", "bob").value();
  }

  auto recovered = recover_project(snapshot.path, journal.path);
  ASSERT_TRUE(recovered.ok()) << recovered.error().str();
  EXPECT_EQ(save_to_json(*recovered.value()), save_to_json(*reference));
  EXPECT_EQ(recovered.value()->clock().now(), reference->clock().now());
}

TEST(Journal, SnapshotRestartsJournalAndRecoveryStillLandsRight) {
  TempFile snapshot("/tmp/herc_journal_mid_snap.json");
  TempFile journal("/tmp/herc_journal_mid.wal");

  auto reference = test::make_circuit_manager();
  reference->execute_task("adder", "alice").value();
  reference->run_activity("adder", "Create", "bob").value();

  auto m = test::make_circuit_manager();
  ASSERT_TRUE(m->enable_journal(journal.path).ok());
  ASSERT_TRUE(save_project_file(*m, snapshot.path).ok());
  m->execute_task("adder", "alice").value();
  EXPECT_EQ(m->journal()->lines_written(), 2u);
  // Mid-flight snapshot subsumes the journal: the file restarts empty.
  ASSERT_TRUE(save_project_file(*m, snapshot.path).ok());
  EXPECT_EQ(m->journal()->lines_written(), 0u);
  m->run_activity("adder", "Create", "bob").value();
  EXPECT_EQ(m->journal()->lines_written(), 1u);

  auto recovered = recover_project(snapshot.path, journal.path);
  ASSERT_TRUE(recovered.ok()) << recovered.error().str();
  EXPECT_EQ(save_to_json(*recovered.value()), save_to_json(*reference));
}

TEST(Journal, CrashHarnessSweepsEveryInvocation) {
  // Kill the process (InjectedCrash) at every possible tool invocation of a
  // three-activity execution; after each crash, recovery must reproduce the
  // state of an uninterrupted reference that performed the same recorded
  // runs — byte-identically.
  for (std::uint64_t crash_at = 1; crash_at <= 3; ++crash_at) {
    TempFile snapshot("/tmp/herc_crash_snap.json");
    TempFile journal("/tmp/herc_crash.wal");

    // Reference: the runs that complete before the crash (invocation
    // crash_at never records a run).
    auto reference = test::make_asic_manager();
    const char* activities[] = {"Synthesize", "Place", "Route"};
    for (std::uint64_t i = 0; i + 1 < crash_at; ++i)
      reference->run_activity("chip", activities[i], "carol").value();

    auto m = test::make_asic_manager();
    exec::FaultPlan plan;
    plan.crash_after_total = crash_at;
    m->set_faults(1, std::move(plan));
    ASSERT_TRUE(m->enable_journal(journal.path).ok());
    ASSERT_TRUE(save_project_file(*m, snapshot.path).ok());
    EXPECT_THROW((void)m->execute_task("chip", "carol"), exec::InjectedCrash);
    m.reset();  // process death: nothing else reaches disk

    auto recovered = recover_project(snapshot.path, journal.path);
    ASSERT_TRUE(recovered.ok()) << "crash_at=" << crash_at << ": "
                                << recovered.error().str();
    EXPECT_EQ(save_to_json(*recovered.value()), save_to_json(*reference))
        << "crash_at=" << crash_at;
    EXPECT_EQ(recovered.value()->db().run_count(), crash_at - 1);

    // The recovered manager keeps working on its restored registry.
    auto& r = *recovered.value();
    auto finish = r.execute_task("chip", "carol");
    ASSERT_TRUE(finish.ok()) << finish.error().str();
    EXPECT_TRUE(finish.value().success);
  }
}

TEST(Journal, TornFinalLineIsIgnored) {
  auto m = test::make_circuit_manager();
  std::string snapshot = save_to_json(*m);
  TempFile journal("/tmp/herc_torn.wal");
  ASSERT_TRUE(m->enable_journal(journal.path).ok());
  m->execute_task("adder", "alice").value();  // Create + Simulate: two lines
  const std::string intact = slurp(journal.path);
  const std::size_t first_end = intact.find('\n') + 1;
  const std::string first = intact.substr(0, first_end);
  const std::string last = intact.substr(first_end, intact.size() - first_end - 1);

  auto want = recover_from_json(snapshot, first);
  ASSERT_TRUE(want.ok());
  // A crash mid-append leaves the last line cut short with no newline after
  // it: inside its magic, its length, its checksum or its payload.  Recovery
  // ignores it and lands on the last intact prefix.
  const std::size_t crc_at = last.find(' ', 3) + 1;
  for (std::size_t cut : {std::size_t{2}, std::size_t{4}, crc_at + 4, last.size() - 1}) {
    auto got = recover_from_json(snapshot, first + last.substr(0, cut));
    ASSERT_TRUE(got.ok()) << "cut at " << cut << ": " << got.error().str();
    EXPECT_EQ(save_to_json(*got.value()), save_to_json(*want.value())) << cut;
  }
}

TEST(Journal, EarlierMalformedLineIsAnError) {
  auto m = test::make_circuit_manager();
  std::string snapshot = save_to_json(*m);
  TempFile journal("/tmp/herc_corrupt.wal");
  ASSERT_TRUE(m->enable_journal(journal.path).ok());
  m->execute_task("adder", "alice").value();
  std::string intact = slurp(journal.path);

  auto got = recover_from_json(snapshot, "this is not json\n" + intact);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, util::Error::Code::kParse);
}

TEST(Journal, EmptyJournalDegeneratesToPlainLoad) {
  auto m = test::make_circuit_manager();
  m->execute_task("adder", "alice").value();
  std::string snapshot = save_to_json(*m);
  auto got = recover_from_json(snapshot, "");
  ASSERT_TRUE(got.ok()) << got.error().str();
  EXPECT_EQ(save_to_json(*got.value()), snapshot);
}

TEST(Journal, MissingJournalFileTreatedAsEmpty) {
  TempFile snapshot("/tmp/herc_nojournal_snap.json");
  auto m = test::make_circuit_manager();
  m->execute_task("adder", "alice").value();
  ASSERT_TRUE(save_project_file(*m, snapshot.path).ok());
  auto got = recover_project(snapshot.path, "/tmp/herc_no_such_journal.wal");
  ASSERT_TRUE(got.ok()) << got.error().str();
  EXPECT_EQ(save_to_json(*got.value()), save_to_json(*m));
}

TEST(Journal, UnwritablePathFailsToOpen) {
  auto m = test::make_circuit_manager();
  EXPECT_FALSE(m->enable_journal("/no/such/dir/run.wal").ok());
  EXPECT_EQ(m->journal(), nullptr);
}

// A journal that exists but cannot be read is not an empty one: recovering
// from the snapshot alone would lose its runs once the caller re-snapshots.
TEST(Journal, UnreadableJournalFailsRecovery) {
  TempFile snapshot("/tmp/herc_unreadable_snap.json");
  TempFile journal("/tmp/herc_unreadable.wal");
  auto m = test::make_circuit_manager();
  ASSERT_TRUE(save_project_file(*m, snapshot.path).ok());

  // A directory: the open succeeds and the read fails with EISDIR.
  std::filesystem::create_directory(journal.path);
  auto from_dir = recover_project(snapshot.path, journal.path);
  ASSERT_FALSE(from_dir.ok());
  EXPECT_EQ(from_dir.error().code, util::Error::Code::kIoError);
  std::filesystem::remove(journal.path);

  // A symlink to itself: the open fails with ELOOP.
  std::filesystem::create_symlink(journal.path, journal.path);
  auto from_loop = recover_project(snapshot.path, journal.path);
  ASSERT_FALSE(from_loop.ok());
  EXPECT_EQ(from_loop.error().code, util::Error::Code::kIoError);
}

// A run journaled into a file whose name is gone can never be recovered, so
// the append that wrote it fails.
TEST(Journal, RemovedJournalFileFailsTheNextRun) {
  TempFile journal("/tmp/herc_journal_removed.wal");
  auto m = test::make_circuit_manager();
  ASSERT_TRUE(m->enable_journal(journal.path).ok());
  std::remove(journal.path.c_str());
  m->run_activity("adder", "Create", "alice").value();
  ASSERT_FALSE(m->journal()->status().ok());
  EXPECT_EQ(m->journal()->status().error().code, util::Error::Code::kIoError);
}

// enable_journal(path) opens the file once: the committer's open truncates
// it, and the journal only sets its marks.  Counting IO points on the path
// alone, there is one before the first run's write, and failing it fails
// enable_journal, so it is the `open`.
TEST(Journal, EnableJournalOpensTheFileOnce) {
  TempFile journal("/tmp/herc_journal_once.wal");
  ASSERT_TRUE(util::write_file(journal.path, "stale\n").ok());
  util::FsFaultPlan plan;
  plan.path_filter = journal.path;
  {
    util::ScopedFaultFs counter(1, plan);
    auto m = test::make_circuit_manager();
    ASSERT_TRUE(m->enable_journal(journal.path).ok());
    EXPECT_EQ(counter.fs().ops(), 1u);
    EXPECT_EQ(slurp(journal.path), "");
  }
  plan.eio_on = {1};
  util::ScopedFaultFs faults(1, plan);
  auto m = test::make_circuit_manager();
  auto st = m->enable_journal(journal.path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, util::Error::Code::kIoError);
  EXPECT_EQ(m->journal(), nullptr);
}

// A single-user journal writes each run's line itself, so the run whose
// write fails sees the error at once, not at the next append.
TEST(Journal, FailedWriteShowsRightAfterItsRun) {
  TempFile journal("/tmp/herc_journal_eio.wal");
  util::FsFaultPlan plan;
  plan.path_filter = journal.path;
  std::uint64_t first_write = 0;
  {
    // Counting pass: the IO points enable_journal uses, then one run's.
    util::ScopedFaultFs counter(1, plan);
    auto m = test::make_circuit_manager();
    ASSERT_TRUE(m->enable_journal(journal.path).ok());
    first_write = counter.fs().ops() + 1;
    m->run_activity("adder", "Create", "alice").value();
    EXPECT_EQ(counter.fs().ops(), first_write);  // one write per run
  }
  plan.eio_on = {first_write};
  util::ScopedFaultFs faults(1, plan);
  auto m = test::make_circuit_manager();
  ASSERT_TRUE(m->enable_journal(journal.path).ok());
  m->run_activity("adder", "Create", "alice").value();
  ASSERT_FALSE(m->journal()->status().ok());
  EXPECT_EQ(m->journal()->status().error().code, util::Error::Code::kIoError);
  EXPECT_EQ(m->journal()->lines_written(), 0u);
}

// --- atomic snapshot --------------------------------------------------------

TEST(AtomicSave, WritesFileAndLeavesNoTempBehind) {
  TempFile file("/tmp/herc_atomic_save.json");
  auto m = test::make_circuit_manager();
  m->execute_task("adder", "alice").value();
  ASSERT_TRUE(save_project_file(*m, file.path).ok());
  // On disk the snapshot carries a checksum footer; stripping it must give
  // back the exact serialized state, and the footer must verify.
  RecoveryStats stats;
  const std::string on_disk = slurp(file.path);
  auto body = strip_snapshot_footer(on_disk, &stats);
  ASSERT_TRUE(body.ok()) << body.error().str();
  EXPECT_TRUE(stats.snapshot_footer);
  EXPECT_EQ(body.value(), save_to_json(*m));
  std::ifstream tmp(file.path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(AtomicSave, FailedSaveReportsErrorAndReplaceWorksOverOldFile) {
  auto m = test::make_circuit_manager();
  EXPECT_FALSE(save_project_file(*m, "/no/such/dir/snap.json").ok());

  TempFile file("/tmp/herc_atomic_keep.json");
  ASSERT_TRUE(util::write_file(file.path, "previous contents").ok());
  ASSERT_TRUE(save_project_file(*m, file.path).ok());
  EXPECT_EQ(slurp(file.path), append_snapshot_footer(save_to_json(*m)));
}

}  // namespace
}  // namespace herc::hercules
