#include "srv/group_commit.hpp"

#include <utility>

namespace herc::srv {

GroupCommitter::GroupCommitter(std::string path, Options options)
    : path_(std::move(path)), options_(options) {}

util::Result<std::unique_ptr<GroupCommitter>> GroupCommitter::open(
    const std::string& path, Options options) {
  std::unique_ptr<GroupCommitter> c(new GroupCommitter(path, options));
  auto st = c->file_.open_trunc(path);
  if (!st.ok())
    return util::unsupported("group commit: cannot open '" + path + "'");
  c->flusher_ = std::thread(&GroupCommitter::flusher_main, c.get());
  return c;
}

GroupCommitter::~GroupCommitter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  // Leftover pending lines (possible only after simulate_crash or an I/O
  // error) stay unwritten by design.
}

util::Status GroupCommitter::append(std::string line) {
  line.push_back('\n');
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return util::invalid("group commit: crashed");
    if (!status_.ok()) return status_;
    if (in_mutation_) {
      mutation_ += line;
      ++mutation_lines_;
      return util::Status::ok_status();
    }
    if (pending_.empty()) oldest_began_ = std::chrono::steady_clock::now();
    pending_ += line;
    ++pending_tickets_;
    ++pending_lines_;
    ++enqueued_;
    ++stats_.lines;
  }
  work_cv_.notify_one();
  return util::Status::ok_status();
}

void GroupCommitter::begin_mutation() {
  std::lock_guard<std::mutex> lock(mu_);
  in_mutation_ = true;
  mutation_.clear();
  mutation_lines_ = 0;
  mutation_began_ = std::chrono::steady_clock::now();
}

util::Result<std::uint64_t> GroupCommitter::end_mutation() {
  std::uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_mutation_ = false;
    if (crashed_) return util::invalid("group commit: crashed");
    if (!status_.ok()) return status_.error();
    if (mutation_lines_ == 0) return std::uint64_t{0};
    if (pending_.empty()) oldest_began_ = mutation_began_;
    pending_ += mutation_;
    ++pending_tickets_;
    pending_lines_ += mutation_lines_;
    stats_.lines += mutation_lines_;
    ticket = ++enqueued_;
  }
  work_cv_.notify_one();
  return ticket;
}

std::uint64_t GroupCommitter::last_enqueued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enqueued_;
}

util::Status GroupCommitter::wait_durable(std::uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return committed_ >= ticket || !status_.ok() || crashed_ || stop_;
  });
  if (committed_ >= ticket) return util::Status::ok_status();
  if (!status_.ok()) return status_;
  return util::invalid("group commit: stopped before ticket became durable");
}

util::Status GroupCommitter::sync_now() {
  std::unique_lock<std::mutex> lock(mu_);
  if (crashed_) return util::invalid("group commit: crashed");
  const std::uint64_t target = enqueued_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [&] {
    return (committed_ >= target && !flushing_) || !status_.ok() || crashed_ ||
           stop_;
  });
  if (!status_.ok()) return status_;
  if (crashed_ || (stop_ && committed_ < target))
    return util::invalid("group commit: stopped before sync completed");
  // Batches are only fsynced in durable mode; a snapshot/shutdown sync must
  // pin the whole file to disk either way.
  auto st = file_.sync();
  if (!st.ok()) status_ = st;
  return st;
}

util::Status GroupCommitter::restart() {
  std::unique_lock<std::mutex> lock(mu_);
  if (crashed_) return util::invalid("group commit: crashed");
  // Never truncate under a flusher mid-write: its write() would land in the
  // fresh file (or on a closed fd).
  done_cv_.wait(lock, [&] { return !flushing_ || stop_; });
  if (stop_) return util::invalid("group commit: stopped");
  // Whatever is still queued describes state the caller just snapshotted;
  // dropping it IS its commit.
  committed_ = enqueued_;
  pending_.clear();
  pending_tickets_ = pending_lines_ = 0;
  mutation_.clear();
  mutation_lines_ = 0;
  auto st = file_.open_trunc(path_);
  if (!st.ok()) {
    // Keep a storage fault recognizable (kIoError => retryable / shard
    // degradation); everything else stays the legacy unsupported.
    status_ = st.error().code == util::Error::Code::kIoError
                  ? st
                  : util::unsupported("group commit: cannot reopen '" + path_ +
                                      "'");
    done_cv_.notify_all();
    return status_;
  }
  status_ = util::Status::ok_status();
  done_cv_.notify_all();
  return status_;
}

GroupCommitter::Stats GroupCommitter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void GroupCommitter::simulate_crash() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_ = true;
    stop_ = true;
    pending_.clear();
    pending_tickets_ = pending_lines_ = 0;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  // Only now: the flusher writes outside mu_, so closing earlier would race
  // a write in flight.  That write lands, as it may in a real crash; nothing
  // after it does, and there is no final fsync.
  file_.close();
}

void GroupCommitter::flusher_main() {
  // Swapped with pending_ each batch, so the two buffers keep their capacity.
  std::string batch;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return !pending_.empty() || stop_; });
    if (stop_ && pending_.empty()) return;
    if (stop_) {
      // Drain what was enqueued before stop; new appends are rejected.
    } else if (options_.window.count() > 0) {
      // Bounded accumulation: let concurrent appenders join this batch.
      const auto due = oldest_began_ + options_.window;
      lock.unlock();
      std::this_thread::sleep_until(due);
      lock.lock();
      if (crashed_) return;
    }
    if (!status_.ok()) {
      // An earlier batch never reached the file.  Writing later lines after
      // that hole would leave a WAL that recovery refuses (and could lift
      // committed_ over the lost tickets), so everything queued is dropped
      // and nothing is written until restart() truncates the file.  The
      // waiters already see the error.
      pending_.clear();
      pending_tickets_ = pending_lines_ = 0;
      if (stop_) return;
      continue;
    }
    batch.clear();
    batch.swap(pending_);
    const std::uint64_t tickets = std::exchange(pending_tickets_, 0);
    const std::uint64_t lines = std::exchange(pending_lines_, 0);
    flushing_ = true;
    lock.unlock();

    // One write per group commit keeps crash loss whole-batch granular.
    auto st = file_.append(batch);
    bool synced = false;
    if (st.ok() && options_.durable) {
      st = file_.sync();
      synced = st.ok();
    }

    lock.lock();
    flushing_ = false;
    if (crashed_) return;
    if (st.ok()) {
      committed_ += tickets;
      ++stats_.flushes;
      if (synced) ++stats_.synced;
      stats_.lines_flushed += lines;
      if (lines > stats_.batch_max) stats_.batch_max = lines;
    } else if (status_.ok()) {
      status_ = st;
    }
    done_cv_.notify_all();
    if (stop_ && pending_.empty()) return;
  }
}

}  // namespace herc::srv
