#include "srv/shard.hpp"

#include <thread>

#include "hercules/persist.hpp"

namespace herc::srv {

using util::Json;
using util::JsonObject;

namespace {

std::string arg_string(const JsonObject& args, const std::string& key,
                       const std::string& fallback = "") {
  if (!args.contains(key)) return fallback;
  const Json& v = args.at(key);
  return v.is_string() ? v.as_string() : fallback;
}

std::int64_t arg_int(const JsonObject& args, const std::string& key,
                     std::int64_t fallback = 0) {
  if (!args.contains(key)) return fallback;
  const Json& v = args.at(key);
  return v.is_int() ? v.as_int() : fallback;
}

Json execution_json(const exec::ExecutionResult& result,
                    const exec::SimClock& clock) {
  JsonObject o;
  o.set("runs", static_cast<std::int64_t>(result.runs.size()));
  o.set("success", result.success);
  o.set("skipped", static_cast<std::int64_t>(result.skipped.size()));
  o.set("final_output", static_cast<std::int64_t>(result.final_output.value()));
  o.set("clock_minutes", clock.now().minutes_since_epoch());
  return Json(std::move(o));
}

// Writer-priority backoff for the read lane: while a write is in flight,
// from its dispatch until its group commit returns, arriving readers
// sleep-poll in kReaderBackoff steps instead of competing with the mutator
// for cores, which keeps the writer's latency tail flat under a read storm
// on small machines.  The commit is covered because the waiting request
// writes its own batch (in durable mode, fsync included).
// kReaderBackoffCap bounds the total wait, so a slow writer never starves
// the read lane.
constexpr std::chrono::microseconds kReaderBackoff{150};
constexpr std::chrono::microseconds kReaderBackoffCap{8000};

}  // namespace

bool ProjectShard::is_read_op(std::string_view op) {
  return op == "query" || op == "explain" || op == "status" || op == "gantt";
}

ProjectShard::ProjectShard(std::string name, ShardOptions options)
    : name_(std::move(name)), options_(std::move(options)) {}

ProjectShard::~ProjectShard() {
  // Journal first: it must detach from the database (and stop feeding the
  // committer) before the committer and manager go away.
  if (manager_) manager_->disable_journal();
}

std::string ProjectShard::snapshot_path() const {
  return options_.dir + "/" + name_ + ".snapshot.json";
}

std::string ProjectShard::wal_path() const {
  return options_.dir + "/" + name_ + ".wal";
}

void ProjectShard::register_default_tools(hercules::WorkflowManager& manager,
                                          std::int64_t tool_minutes) {
  for (const auto& type : manager.schema().types()) {
    if (type.kind != schema::EntityKind::kTool) continue;
    // Already-registered instances (gen::make_manager's "t1") are kept; add()
    // failing on a duplicate name is harmless here.
    (void)manager.register_tool(
        {.instance_name = type.name + "1",
         .tool_type = type.name,
         .nominal = cal::WorkDuration::minutes(tool_minutes)});
  }
}

util::Status ProjectShard::start_journal() {
  // Snapshot first: journaling captures only what happens after it.
  auto st = hercules::save_project_file(*manager_, snapshot_path(),
                                        options_.durable);
  if (!st.ok()) return st;
  runs_at_open_ = manager_->db().run_count();
  auto opened =
      hercules::GroupCommitter::open(wal_path(), {.durable = options_.durable});
  if (!opened.ok()) return opened.error();
  committer_ = std::move(opened).take();
  return manager_->enable_journal_sink(*committer_);
}

util::Result<std::unique_ptr<ProjectShard>> ProjectShard::create(
    const std::string& name, const gen::Scenario& scenario,
    const ShardOptions& options) {
  auto made = gen::make_manager(scenario);
  if (!made.ok()) return made.error();
  std::unique_ptr<ProjectShard> shard(new ProjectShard(name, options));
  shard->manager_ = std::move(made).take();
  auto st = shard->start_journal();
  if (!st.ok()) return st.error();
  // No readers exist yet, so "locked" is vacuously true here.
  shard->publish_view_locked();
  return shard;
}

util::Result<std::unique_ptr<ProjectShard>> ProjectShard::create_from_dsl(
    const std::string& name, const std::string& schema_dsl,
    std::int64_t tool_minutes, const ShardOptions& options) {
  auto made = hercules::WorkflowManager::create(schema_dsl);
  if (!made.ok()) return made.error();
  std::unique_ptr<ProjectShard> shard(new ProjectShard(name, options));
  shard->manager_ = std::move(made).take();
  register_default_tools(*shard->manager_, tool_minutes);
  auto st = shard->start_journal();
  if (!st.ok()) return st.error();
  // No readers exist yet, so "locked" is vacuously true here.
  shard->publish_view_locked();
  return shard;
}

util::Result<std::unique_ptr<ProjectShard>> ProjectShard::recover(
    const std::string& name, std::int64_t tool_minutes,
    const ShardOptions& options) {
  std::unique_ptr<ProjectShard> shard(new ProjectShard(name, options));
  // Resilient mode: a damaged WAL replays to its last verified record and is
  // quarantined (<wal>.corrupt) instead of failing the whole shard; the
  // outcome is kept for stats_json()["health"]["recovery"].
  auto recovered = hercules::recover_project(
      shard->snapshot_path(), shard->wal_path(), &shard->recovery_stats_);
  if (!recovered.ok()) return recovered.error();
  shard->recovered_ = true;
  shard->manager_ = std::move(recovered).take();
  // Tool closures are never persisted; rebuild the simulated registry.
  register_default_tools(*shard->manager_, tool_minutes);
  // start_journal re-snapshots, so the WAL that fed this recovery is folded
  // in before it is truncated.
  auto st = shard->start_journal();
  if (!st.ok()) return st.error();
  // No readers exist yet, so "locked" is vacuously true here.
  shard->publish_view_locked();
  return shard;
}

wire::Response ProjectShard::apply(const wire::Request& request) {
  // Read lane: no shard lock.  The snapshot is pinned by the shared_ptr for
  // the duration of the call; the write lane keeps publishing newer epochs
  // meanwhile.  Every factory publishes before it returns the shard, so a
  // view always exists.
  if (is_read_op(request.op)) {
    // Let an in-flight write have the cores (see kReaderBackoff).  The
    // snapshot is loaded AFTER the backoff so a read that did wait tends to
    // observe the write it waited for.
    auto waited = std::chrono::microseconds(0);
    while (writes_in_flight_.load(std::memory_order_relaxed) > 0 &&
           waited < kReaderBackoffCap) {
      std::this_thread::sleep_for(kReaderBackoff);
      waited += kReaderBackoff;
    }
    auto view = view_.load();
    if (crashed_.load(std::memory_order_acquire))
      return wire::Response::failure(
          request.id, util::unsupported("shard '" + name_ + "' crashed"));
    read_lane_requests_.fetch_add(1, std::memory_order_relaxed);
    return dispatch_read(request, *view);
  }

  // Readers back off until this write's durability wait returns (see
  // kReaderBackoff), on every path out of here.
  writes_in_flight_.fetch_add(1, std::memory_order_relaxed);
  struct InFlight {
    std::atomic<int>& writes;
    ~InFlight() { writes.fetch_sub(1, std::memory_order_relaxed); }
  } in_flight{writes_in_flight_};
  util::Result<std::uint64_t> ticket = std::uint64_t{0};
  wire::Response response;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_.load(std::memory_order_relaxed))
      return wire::Response::failure(
          request.id, util::unsupported("shard '" + name_ + "' crashed"));
    // Fail-safe degradation: after an unrecoverable storage fault the shard
    // keeps answering reads (above) and `stats`, but rejects anything that
    // would need the disk with a retryable error.
    if (read_only_.load(std::memory_order_relaxed) && request.op != "stats")
      return wire::Response::failure(request.id, read_only_error_locked());
    write_lane_requests_.fetch_add(1, std::memory_order_relaxed);
    // Every journal line the op produces goes to the committer as one entry
    // under one ticket, so an op's lines always share a flush.
    committer_->begin_mutation();
    response = dispatch(request);
    ticket = committer_->end_mutation();
    // Publish the post-op epoch before the durability wait (and thus before
    // the ack): once a client holds an ack, the published snapshot already
    // contains its write.
    publish_view_locked();
    // The committer refuses lines once a flush failed, and a request can
    // land between that failure and the failed request's read-only latch
    // below.  Its runs then reached no ticket, so there is nothing to wait
    // for: never acknowledge it.  (`stats` appends nothing and must keep
    // answering on a degraded shard.)
    if (response.ok && request.op != "stats" && !ticket.ok()) {
      enter_read_only_locked(ticket.error());
      return wire::Response::failure(
          request.id, util::io_error("shard '" + name_ + "': " +
                                     ticket.error().message +
                                     " (not acknowledged)"));
    }
  }
  // Acknowledge only once this request's journal lines are durable — but
  // wait OUTSIDE the shard lock, so the next request's mutation overlaps
  // this commit (that overlap is what builds multi-line batches).
  if (response.ok && ticket.ok() && ticket.value() > 0) {
    auto st = committer_->wait_durable(ticket.value());
    if (!st.ok()) {
      // The WAL can no longer durably record runs: never ack this mutation,
      // and stop accepting new ones (the in-memory state stays serveable
      // through the read lane).
      enter_read_only(st.error());
      return wire::Response::failure(
          request.id, util::io_error("shard '" + name_ + "': " +
                                     st.error().message + " (not acknowledged)"));
    }
  }
  return response;
}

void ProjectShard::enter_read_only(const util::Error& cause) {
  std::lock_guard<std::mutex> lock(mu_);
  enter_read_only_locked(cause);
}

void ProjectShard::enter_read_only_locked(const util::Error& cause) {
  if (read_only_.load(std::memory_order_relaxed)) return;
  read_only_reason_ = cause.message;
  read_only_.store(true, std::memory_order_release);
}

util::Error ProjectShard::read_only_error_locked() const {
  return util::io_error("shard '" + name_ +
                        "' is read-only after a storage fault (" +
                        read_only_reason_ + "); retry against a repaired shard");
}

wire::Response ProjectShard::dispatch(const wire::Request& request) {
  const JsonObject& args = request.args;
  const std::string task = arg_string(args, "task", "job");
  hercules::WorkflowManager& m = *manager_;

  // The WAL records tool runs only; schedule and clock mutations (plan,
  // replan, link, advance) are made durable by snapshotting through before
  // the ack, so "acknowledged => recovered" holds for every mutating op.
  if (request.op == "plan" || request.op == "replan") {
    sched::PlanRequest plan;
    plan.name = arg_string(args, "name", "plan");
    const std::string strategy = arg_string(args, "strategy");
    if (!strategy.empty()) {
      auto parsed = sched::parse_estimate_strategy(strategy);
      if (!parsed.ok()) return wire::Response::failure(request.id, parsed.error());
      plan.strategy = parsed.value();
    }
    auto planned = request.op == "plan" ? m.plan_task(task, std::move(plan))
                                        : m.replan_task(task, std::move(plan));
    if (!planned.ok()) return wire::Response::failure(request.id, planned.error());
    auto persisted = snapshot_locked();
    if (!persisted.ok()) return wire::Response::failure(request.id, persisted.error());
    JsonObject o;
    o.set("schedule_run", static_cast<std::int64_t>(planned.value().value()));
    return wire::Response::success(request.id, Json(std::move(o)));
  }

  if (request.op == "execute") {
    const std::string designer = arg_string(args, "designer", "designer");
    const std::string mode = arg_string(args, "mode", "serial");
    if (mode != "serial" && mode != "concurrent")
      return wire::Response::failure(
          request.id, util::invalid("execute: mode must be serial|concurrent"));
    auto executed = mode == "serial"
                        ? m.execute_task(task, designer)
                        : m.execute_task_concurrent(task, designer);
    if (!executed.ok())
      return wire::Response::failure(request.id, executed.error());
    return wire::Response::success(request.id,
                                   execution_json(executed.value(), m.clock()));
  }

  if (request.op == "run") {
    const std::string activity = arg_string(args, "activity");
    const std::string designer = arg_string(args, "designer", "designer");
    if (activity.empty())
      return wire::Response::failure(request.id,
                                     util::invalid("run: missing 'activity'"));
    auto ran = m.run_activity(task, activity, designer);
    if (!ran.ok()) return wire::Response::failure(request.id, ran.error());
    JsonObject o;
    o.set("run", static_cast<std::int64_t>(ran.value().run.value()));
    o.set("success", ran.value().success);
    o.set("clock_minutes", m.clock().now().minutes_since_epoch());
    return wire::Response::success(request.id, Json(std::move(o)));
  }

  if (request.op == "link") {
    const std::string activity = arg_string(args, "activity");
    if (activity.empty())
      return wire::Response::failure(request.id,
                                     util::invalid("link: missing 'activity'"));
    auto st = m.link_completion(task, activity);
    if (!st.ok()) return wire::Response::failure(request.id, st.error());
    auto persisted = snapshot_locked();
    if (!persisted.ok()) return wire::Response::failure(request.id, persisted.error());
    return wire::Response::success(request.id, Json(JsonObject{}));
  }

  if (request.op == "advance") {
    const std::int64_t minutes = arg_int(args, "minutes", -1);
    if (minutes < 0)
      return wire::Response::failure(
          request.id, util::invalid("advance: missing non-negative 'minutes'"));
    auto advanced = m.advance_clock(cal::WorkDuration::minutes(minutes));
    if (!advanced.ok()) return wire::Response::failure(request.id, advanced.error());
    auto persisted = snapshot_locked();
    if (!persisted.ok()) return wire::Response::failure(request.id, persisted.error());
    JsonObject o;
    o.set("clock_minutes", m.clock().now().minutes_since_epoch());
    return wire::Response::success(request.id, Json(std::move(o)));
  }

  if (request.op == "save") {
    auto st = snapshot_locked();
    if (!st.ok()) return wire::Response::failure(request.id, st.error());
    JsonObject o;
    o.set("snapshot", snapshot_path());
    return wire::Response::success(request.id, Json(std::move(o)));
  }

  if (request.op == "stats")
    return wire::Response::success(request.id, stats_json_locked());

  return wire::Response::failure(
      request.id, util::invalid("unknown op '" + request.op + "'"));
}

wire::Response ProjectShard::dispatch_read(const wire::Request& request,
                                           const hercules::ReadView& view) {
  const JsonObject& args = request.args;
  if (request.op == "query" || request.op == "explain") {
    const std::string statement = arg_string(args, "statement");
    if (statement.empty())
      return wire::Response::failure(
          request.id, util::invalid(request.op + ": missing 'statement'"));
    auto result =
        request.op == "query" ? view.query(statement) : view.explain(statement);
    if (!result.ok()) return wire::Response::failure(request.id, result.error());
    JsonObject o;
    o.set("text", result.value());
    return wire::Response::success(request.id, Json(std::move(o)));
  }
  const std::string task = arg_string(args, "task", "job");
  auto result =
      request.op == "status" ? view.status_report(task) : view.gantt(task);
  if (!result.ok()) return wire::Response::failure(request.id, result.error());
  JsonObject o;
  o.set("text", result.value());
  return wire::Response::success(request.id, Json(std::move(o)));
}

void ProjectShard::publish_view_locked() {
  if (crashed_.load(std::memory_order_relaxed)) return;
  view_.store(manager_->read_view());
}

util::Status ProjectShard::snapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_locked();
}

util::Status ProjectShard::snapshot_locked() {
  if (crashed_) return util::unsupported("shard '" + name_ + "' crashed");
  if (read_only_.load(std::memory_order_relaxed)) return read_only_error_locked();
  // save_project_file restarts the journal, which for a group committer
  // first waits out a batch write in flight (GroupCommitter::restart).
  auto st = hercules::save_project_file(*manager_, snapshot_path(),
                                        options_.durable);
  // A failed snapshot leaves the previous one intact (atomic replace), but
  // in-memory state this op already produced is now ahead of what recovery
  // can rebuild — stop taking mutations rather than widen that gap.
  if (!st.ok() && st.error().code == util::Error::Code::kIoError)
    enter_read_only_locked(st.error());
  return st;
}

util::Status ProjectShard::shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return util::unsupported("shard '" + name_ + "' crashed");
  auto st = committer_->sync_now();  // final group commit
  if (!st.ok()) return st;
  return snapshot_locked();
}

void ProjectShard::simulate_crash() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = true;
  committer_->simulate_crash();
}

Json ProjectShard::stats_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_json_locked();
}

Json ProjectShard::stats_json_locked() const {
  JsonObject o;
  o.set("project", name_);
  // The two lanes partition every request the shard served.
  o.set("srv_requests",
        static_cast<std::int64_t>(
            read_lane_requests_.load(std::memory_order_relaxed) +
            write_lane_requests_.load(std::memory_order_relaxed)));
  // The shard is the manager's only mutator, so every run past the initial
  // snapshot was executed through it.
  o.set("runs_executed",
        static_cast<std::int64_t>(manager_->db().run_count() - runs_at_open_));
  o.set("run_count", manager_->db().run_count());
  o.set("clock_minutes", manager_->clock().now().minutes_since_epoch());
  o.set("journal_lines", manager_->journal()->lines_written());
  {
    auto s = committer_->stats();
    JsonObject g;
    g.set("lines", s.lines);
    g.set("srv_group_commits", s.flushes);
    g.set("synced", s.synced);
    g.set("srv_commit_batch_max", s.batch_max);
    g.set("srv_commit_batch_mean", s.batch_mean());
    o.set("group_commit", Json(std::move(g)));
  }
  {
    // Snapshot health.  `live` counts views not yet reclaimed; the newest
    // one is the manager's own cache, so anything beyond it is retired
    // epochs still pinned by in-flight readers.
    JsonObject sn;
    sn.set("epoch", static_cast<std::int64_t>(manager_->snapshot_epoch()));
    sn.set("published",
           static_cast<std::int64_t>(manager_->snapshots_published()));
    const std::int64_t live = manager_->snapshots_live();
    sn.set("live", live);
    sn.set("retired_unreclaimed", live > 1 ? live - 1 : 0);
    sn.set("read_lane_requests",
           static_cast<std::int64_t>(
               read_lane_requests_.load(std::memory_order_relaxed)));
    sn.set("write_lane_requests",
           static_cast<std::int64_t>(
               write_lane_requests_.load(std::memory_order_relaxed)));
    o.set("snapshots", Json(std::move(sn)));
  }
  {
    // Per-shard health: routing layers use `state` to stop sending mutations
    // to a degraded shard; `recovery` reports what the last crash recovery
    // found (torn tails are normal crash debris, corrupt lines mean the
    // damaged file was quarantined).
    JsonObject h;
    h.set("state", std::string(read_only_.load(std::memory_order_relaxed)
                                   ? "read_only"
                                   : "ok"));
    if (!read_only_reason_.empty()) h.set("reason", read_only_reason_);
    if (recovered_) {
      const auto& rs = recovery_stats_;
      JsonObject r;
      r.set("wal_lines_seen", static_cast<std::int64_t>(rs.lines_seen));
      r.set("wal_lines_applied", static_cast<std::int64_t>(rs.lines_applied));
      r.set("torn_tail", static_cast<std::int64_t>(rs.torn_tail));
      r.set("corrupt_lines", static_cast<std::int64_t>(rs.corrupt_lines));
      r.set("lines_discarded", static_cast<std::int64_t>(rs.lines_discarded));
      r.set("snapshot_footer", rs.snapshot_footer);
      if (!rs.quarantine_path.empty()) r.set("quarantined", rs.quarantine_path);
      if (!rs.detail.empty()) r.set("detail", rs.detail);
      h.set("recovery", Json(std::move(r)));
    }
    o.set("health", Json(std::move(h)));
  }
  return Json(std::move(o));
}

}  // namespace herc::srv
