#include "hercules/group_commit.hpp"

#include <utility>

namespace herc::hercules {

GroupCommitter::GroupCommitter(std::string path, Options options)
    : path_(std::move(path)), options_(options) {}

util::Result<std::unique_ptr<GroupCommitter>> GroupCommitter::open(
    const std::string& path, Options options) {
  std::unique_ptr<GroupCommitter> c(new GroupCommitter(path, options));
  auto st = c->file_.open_trunc(path);
  if (!st.ok()) return st.error();
  return c;
}

GroupCommitter::~GroupCommitter() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return !flushing_; });
  if (!crashed_ && status_.ok()) flush_locked(lock);
}

util::Status GroupCommitter::append(std::string line) {
  line.push_back('\n');
  std::unique_lock<std::mutex> lock(mu_);
  if (crashed_) return util::invalid("group commit: crashed");
  if (!status_.ok()) return status_;
  if (in_mutation_) {
    mutation_ += line;
    ++mutation_lines_;
    return util::Status::ok_status();
  }
  pending_ += line;
  ++pending_tickets_;
  ++pending_lines_;
  ++enqueued_;
  ++stats_.lines;
  // Behind a write in progress the line waits for the next write: another
  // append's, a waiter's, sync_now()'s or the destructor's.
  if (flushing_) return util::Status::ok_status();
  // status_ was ok above, so an error now is this write's.
  flush_locked(lock);
  return status_;
}

void GroupCommitter::begin_mutation() {
  std::lock_guard<std::mutex> lock(mu_);
  in_mutation_ = true;
  mutation_.clear();
  mutation_lines_ = 0;
}

util::Result<std::uint64_t> GroupCommitter::end_mutation() {
  std::lock_guard<std::mutex> lock(mu_);
  in_mutation_ = false;
  if (crashed_) return util::invalid("group commit: crashed");
  if (!status_.ok()) return status_.error();
  if (mutation_lines_ == 0) return std::uint64_t{0};
  pending_ += mutation_;
  ++pending_tickets_;
  pending_lines_ += mutation_lines_;
  stats_.lines += mutation_lines_;
  return ++enqueued_;
}

std::uint64_t GroupCommitter::last_enqueued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enqueued_;
}

util::Status GroupCommitter::wait_durable(std::uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  // Every ticket above committed_ is queued or in the write in progress, so
  // with no write in progress the queue holds this ticket.  A write in
  // progress may not cover it; when that write ends, this thread checks
  // again and, if still uncovered, writes the next batch itself.
  while (committed_ < ticket && status_.ok() && !crashed_) {
    if (flushing_)
      done_cv_.wait(lock);
    else
      flush_locked(lock);
  }
  if (committed_ >= ticket) return util::Status::ok_status();
  if (!status_.ok()) return status_;
  return util::invalid("group commit: crashed before ticket became durable");
}

util::Status GroupCommitter::sync_now() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return !flushing_; });
  if (crashed_) return util::invalid("group commit: crashed");
  if (!status_.ok()) return status_;
  flush_locked(lock);
  if (!status_.ok()) return status_;
  // Batches are only fsynced in durable mode; a snapshot/shutdown sync must
  // pin the whole file to disk either way.  flush_locked returned with the
  // lock held and no write in progress, so file_ is this thread's.
  auto st = file_.sync();
  if (!st.ok()) status_ = st;
  return st;
}

util::Status GroupCommitter::restart() {
  std::unique_lock<std::mutex> lock(mu_);
  // Never truncate under a write in flight: it would land in the fresh file.
  done_cv_.wait(lock, [&] { return !flushing_; });
  if (crashed_) return util::invalid("group commit: crashed");
  // Whatever is still queued describes state the caller just snapshotted;
  // dropping it IS its commit.
  committed_ = enqueued_;
  pending_.clear();
  pending_tickets_ = pending_lines_ = 0;
  mutation_.clear();
  mutation_lines_ = 0;
  status_ = file_.open_trunc(path_);
  return status_;
}

GroupCommitter::Stats GroupCommitter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void GroupCommitter::simulate_crash() {
  std::unique_lock<std::mutex> lock(mu_);
  crashed_ = true;
  pending_.clear();
  pending_tickets_ = pending_lines_ = 0;
  // A write already in flight lands, as it may in a real crash; nothing
  // after it does, and there is no final fsync.  Closing before it ends
  // would race that write.
  done_cv_.wait(lock, [&] { return !flushing_; });
  file_.close();
}

void GroupCommitter::flush_locked(std::unique_lock<std::mutex>& lock) {
  if (pending_.empty()) return;
  batch_.clear();
  batch_.swap(pending_);
  const std::uint64_t tickets = std::exchange(pending_tickets_, 0);
  const std::uint64_t lines = std::exchange(pending_lines_, 0);
  flushing_ = true;
  lock.unlock();

  // One write per group commit keeps crash loss whole-batch granular.
  auto st = file_.append(batch_);
  bool synced = false;
  if (st.ok() && options_.durable) {
    st = file_.sync();
    synced = st.ok();
  }
  // A batch in a file that no name reaches any more is lost to recovery.
  if (st.ok()) st = file_.check_linked();

  lock.lock();
  flushing_ = false;
  if (st.ok()) {
    committed_ += tickets;
    ++stats_.flushes;
    if (synced) ++stats_.synced;
    stats_.lines_flushed += lines;
    if (lines > stats_.batch_max) stats_.batch_max = lines;
  } else if (status_.ok()) {
    // This batch never reached the file.  Writing later entries after that
    // hole would leave a WAL that recovery refuses (and could lift
    // committed_ over the lost tickets), so every caller checks status_
    // first and nothing is written until restart() truncates the file.
    status_ = st;
  }
  done_cv_.notify_all();
}

}  // namespace herc::hercules
