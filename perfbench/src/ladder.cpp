#include "ladder.hpp"

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "core/cpm_solver.hpp"
#include "harness.hpp"
#include "hercules/journal.hpp"
#include "hercules/persist.hpp"
#include "obs/metrics.hpp"
#include "srv/group_commit.hpp"
#include "srv/shard.hpp"

namespace perfbench {

namespace gen = herc::gen;
namespace hercules = herc::hercules;
namespace srv = herc::srv;
namespace wire = herc::srv::wire;

namespace {

// Ladder prefixes: serial replays, so these bound the traced run's length.
constexpr std::size_t kFlowLadderExecutes = 300;
constexpr std::size_t kDashLadderWrites = 20;
constexpr std::size_t kDashReadsPerWrite = 30;
constexpr std::size_t kReplanLadderCycles = 30;
constexpr int kCheckpoints = 4;  // rung-4 leaf timings at n/4, n/2, 3n/4, n

double us_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e3; }

/// The ops every rung replays: project 0's set-up and warm-up, untimed,
/// then a prefix of the timed ops in one serial order.
struct Replay {
  std::vector<Op> setup;
  std::vector<Op> ops;
};

Replay replay_of(const Options& o, const Plan& plan) {
  Replay r;
  r.setup = plan.setup[0];
  for (std::size_t c = 0; c < plan.warmup.size(); ++c)
    if (plan.conn_project[c] == 0)
      r.setup.insert(r.setup.end(), plan.warmup[c].begin(), plan.warmup[c].end());
  auto take = [](const std::vector<Op>& from, std::size_t at, std::size_t n,
                 std::vector<Op>& to) {
    for (std::size_t i = at; i < at + n && i < from.size(); ++i) to.push_back(from[i]);
  };
  switch (o.workload) {
    case Workload::kFlowExec:
      // Project 0's two connections, interleaved as the stream dealt them.
      for (std::size_t i = 0; i < kFlowLadderExecutes / 2; ++i) {
        take(plan.timed[0], i, 1, r.ops);
        take(plan.timed[1], i, 1, r.ops);
      }
      break;
    case Workload::kDashboard: {
      const auto& writer = plan.timed.back();
      for (std::size_t w = 0; w < kDashLadderWrites; ++w) {
        take(writer, w, 1, r.ops);
        take(plan.timed[w % 2], (w / 2) * kDashReadsPerWrite, kDashReadsPerWrite, r.ops);
      }
      break;
    }
    case Workload::kReplan: take(plan.timed[0], 0, 4 * kReplanLadderCycles, r.ops); break;
  }
  return r;
}

/// Rung 3's per-op spans: the manager call, then the snapshot and the view
/// publish the shard performs after it.
struct Rung3Span {
  std::int64_t start_ns = 0;
  double total_us = -1, call_us = 0, snapshot_us = 0, view_us = 0;
  std::size_t runs = 0;
};

/// Rung 3: the WorkflowManager calls ProjectShard::dispatch makes for one
/// op, plus its snapshot (link / plan / replan) and epoch publish; reads run
/// on the last published view, as the shard's read lane does.
class ManagerRung {
 public:
  static Result<std::unique_ptr<ManagerRung>> make(const gen::Scenario& scenario,
                                                   const std::string& name) {
    std::unique_ptr<ManagerRung> r(new ManagerRung());
    auto made = gen::make_manager(scenario);
    if (!made.ok()) return made.error();
    r->m_ = std::move(made).take();
    r->m_->bus().set_project(name);
    r->metrics_.attach(r->m_->bus());  // the shard's subscriber
    r->dir_ = fresh_dir("rung3");
    r->snapshot_ = r->dir_ + "/" + name + ".snapshot.json";
    auto st = hercules::save_project_file(*r->m_, r->snapshot_, false);
    if (!st.ok()) return st.error();
    auto committer = srv::GroupCommitter::open(r->dir_ + "/" + name + ".wal", {});
    if (!committer.ok()) return committer.error();
    r->committer_ = std::move(committer).take();
    st = r->m_->enable_journal_sink(*r->committer_);
    if (!st.ok()) return st.error();
    r->view_ = r->m_->read_view();
    return r;
  }
  ~ManagerRung() {
    if (m_) m_->disable_journal();
    metrics_.detach();
    committer_.reset();
    remove_dir(dir_);
  }
  ManagerRung(const ManagerRung&) = delete;
  ManagerRung& operator=(const ManagerRung&) = delete;

  hercules::WorkflowManager& manager() { return *m_; }

  Result<Rung3Span> apply(const Op& op) {
    Rung3Span s;
    const std::int64_t t0 = now_ns();
    s.start_ns = t0;
    bool mutated = true;
    if (op.op == "execute") {
      auto r = m_->execute_task("job", arg_of(op, "designer", "designer"));
      if (!r.ok()) return r.error();
      s.runs = r.value().runs.size();
    } else if (op.op == "link") {
      auto st = m_->link_completion("job", arg_of(op, "activity"));
      if (!st.ok()) return st.error();
    } else if (op.op == "plan" || op.op == "replan") {
      herc::sched::PlanRequest req;
      req.name = arg_of(op, "name", "plan");
      if (arg_of(op, "strategy") == "ewma")
        req.strategy = herc::sched::EstimateStrategy::kEwma;
      auto r = op.op == "plan" ? m_->plan_task("job", std::move(req))
                               : m_->replan_task("job", std::move(req));
      if (!r.ok()) return r.error();
    } else {
      mutated = false;
      Result<std::string> text = std::string();
      if (op.op == "status") text = view_->status_report("job");
      else if (op.op == "gantt") text = view_->gantt("job");
      else text = view_->query(arg_of(op, "statement"));
      if (!text.ok()) return text.error();
      if (text.value().empty()) return herc::util::invalid(op.op + " rendered nothing");
    }
    s.call_us = us_since(t0);
    if (mutated) {
      if (op.op != "execute") {
        const std::int64_t t1 = now_ns();
        auto st = hercules::save_project_file(*m_, snapshot_, false);
        if (!st.ok()) return st.error();
        s.snapshot_us = us_since(t1);
      }
      const std::int64_t t2 = now_ns();
      view_ = m_->read_view();
      s.view_us = us_since(t2);
    }
    s.total_us = us_since(t0);
    return s;
  }

 private:
  ManagerRung() = default;
  std::unique_ptr<hercules::WorkflowManager> m_;
  herc::obs::MetricsRegistry metrics_;
  std::unique_ptr<srv::GroupCommitter> committer_;
  std::shared_ptr<const hercules::ReadView> view_;
  std::string dir_, snapshot_;
};

std::uint32_t id32(std::size_t i) { return static_cast<std::uint32_t>(i); }

/// Rung 3's manager call and, nested in the op's span, its snapshot and
/// view publish.
void add_rung3_spans(const std::string& op, std::uint32_t id, const Rung3Span& s,
                     std::vector<TraceSpan>& out) {
  auto ns = [](double us) { return static_cast<std::int64_t>(us * 1e3); };
  const std::int64_t call_end = s.start_ns + ns(s.call_us);
  out.push_back(
      {"WorkflowManager " + op, 3, id, s.start_ns, s.start_ns + ns(s.total_us)});
  if (s.snapshot_us > 0)
    out.push_back({"save_project_file", 3, id, call_end, call_end + ns(s.snapshot_us)});
  if (s.view_us > 0) {
    const std::int64_t view_start = call_end + ns(s.snapshot_us);
    out.push_back({"read_view", 3, id, view_start, view_start + ns(s.view_us)});
  }
}

/// Rung-4 leaf timings, accumulated over the checkpoints.
struct Leaves {
  std::vector<double> save_json_ms, save_file_ms, track_project_us, status_us, gantt_us,
      query_us, view_cold_us, view_memo_us, replan_us;
  double snapshot_bytes = 0;
};

void time_leaves(hercules::WorkflowManager& m, const std::vector<std::string>& statements,
                 const std::string& scratch, Leaves& out) {
  std::int64_t t0 = now_ns();
  const std::string json = hercules::save_to_json(m);
  out.save_json_ms.push_back(us_since(t0) / 1e3);
  out.snapshot_bytes = static_cast<double>(json.size());
  t0 = now_ns();
  if (hercules::save_project_file(m, scratch, false).ok())
    out.save_file_ms.push_back(us_since(t0) / 1e3);
  t0 = now_ns();
  m.tracker().project(m.clock().now());
  out.track_project_us.push_back(us_since(t0));
  t0 = now_ns();
  (void)m.status_report("job");
  out.status_us.push_back(us_since(t0));
  t0 = now_ns();
  (void)m.gantt("job");
  out.gantt_us.push_back(us_since(t0));
  // QueryEngine::execute on the current epoch, once per statement.
  auto view = m.read_view();
  for (const auto& s : statements) {
    t0 = now_ns();
    (void)m.query_engine().execute(s, view->db(), view->space());
    out.query_us.push_back(us_since(t0));
  }
  // A fresh epoch: first call renders, the repeat hits the view's memo.
  const auto plan = m.plan_of("job");
  if (!plan) return;
  hercules::ReadView fresh(view->epoch() + 1, m.db(), m.schedule_space(), m.clock().now(),
                           {{"job", *plan}}, &m.calendar(), &m.query_engine());
  std::vector<std::function<void()>> reads = {[&] { (void)fresh.status_report("job"); },
                                              [&] { (void)fresh.gantt("job"); }};
  for (std::size_t i = 0; i < statements.size() && i < 8; ++i)
    reads.push_back([&, i] { (void)fresh.query(statements[i]); });
  for (auto* bucket : {&out.view_cold_us, &out.view_memo_us})
    for (auto& read : reads) {
      t0 = now_ns();
      read();
      bucket->push_back(us_since(t0));
    }
}

/// One run line's journal payload for this scenario, from a throwaway
/// manager journaling to its own file.
std::string sample_run_payload(const gen::Scenario& scenario) {
  auto made = gen::make_manager(scenario);
  if (!made.ok()) return {};
  auto& m = *made.value();
  const std::string dir = fresh_dir("payload");
  std::string payload;
  if (m.enable_journal(dir + "/p.wal").ok() && m.execute_task("job", "designer0").ok()) {
    m.disable_journal();
    std::ifstream in(dir + "/p.wal");
    std::stringstream text;
    text << in.rdbuf();
    const std::string all = text.str();
    const auto lines = hercules::journal_lines(all);
    if (!lines.empty())
      payload = std::string(hercules::unframe_journal_line(lines.back(), false).payload);
  }
  remove_dir(dir);
  return payload;
}

double ns_per_call(const std::function<void()>& f, int calls) {
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < calls; ++i) f();
  return static_cast<double>(now_ns() - t0) / calls;
}

std::string payload_of(const std::string& frame) {
  const auto nl = frame.find('\n');
  return frame.substr(nl + 1, frame.size() - nl - 2);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

LayerReport run_ladder(const Options& options, const Plan& plan,
                       const RunResult& untraced, const RunResult& traced) {
  LayerReport rep;
  const std::string& name = plan.projects[0];
  const gen::Scenario& scenario = plan.scenarios[0];
  const Replay replay = replay_of(options, plan);
  const std::size_t n = replay.ops.size();
  auto fail = [&](const std::string& what) {
    rep.mismatches.push_back("ladder: " + what);
    return rep;
  };

  std::vector<std::string> statements = plan.statements;
  if (statements.empty()) {
    statements = {"select schedule where critical = true", "select plans",
                  "select links"};
    for (const auto& rule : scenario.graph.rules) {
      statements.push_back("select runs where activity = \"" + rule.name + "\"");
      statements.push_back("select schedule where activity = \"" + rule.name + "\"");
    }
  }

  // Three copies of the project, one per rung, advanced in lockstep: op i
  // runs on every rung before op i+1, in a rotating order, so the rungs'
  // times for one op share the host's conditions.
  auto host = HostedServer::start("rung1");
  if (!host.ok()) return fail(host.error().message);
  auto client = host.value()->connect();
  if (!client.ok()) return fail(client.error().message);
  {
    JsonObject args;
    args.set("name", name);
    args.set("scenario", gen::scenario_to_json(scenario));
    if (auto opened = client.value()->invoke("", "open", std::move(args)); !opened.ok())
      return fail(opened.error().message);
  }
  const std::string rung2_dir = fresh_dir("rung2");
  srv::ShardOptions shard_options;  // the ServerConfig default
  shard_options.dir = rung2_dir;
  auto created = srv::ProjectShard::create(name, scenario, shard_options);
  if (!created.ok()) return fail(created.error().message);
  auto shard = std::move(created).take();
  auto rung = ManagerRung::make(scenario, name);
  if (!rung.ok()) return fail(rung.error().message);
  auto& m = rung.value()->manager();

  std::uint64_t id = 0;
  for (const auto& op : replay.setup) {
    if (auto r = client.value()->invoke(name, op.op, op.args); !r.ok())
      return fail("rung 1 set-up " + op.op + ": " + r.error().message);
    if (!shard->apply({++id, name, op.op, op.args}).ok)
      return fail("rung 2 set-up " + op.op);
    if (auto r = rung.value()->apply(op); !r.ok())
      return fail("rung 3 set-up " + op.op + ": " + r.error().message);
  }

  std::vector<double> r1(n, -1.0), r2(n, -1.0);
  std::vector<Rung3Span> r3(n);
  std::vector<wire::Response> responses(n);
  Leaves leaves;
  std::uint64_t rung3_runs = 0;
  const std::uint64_t published0 = m.bus().published();
  const std::string scratch = fresh_dir("leaf");
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = replay.ops[i];
    for (std::size_t step = 0; step < 3; ++step) {
      switch ((i + step) % 3) {
        case 0: {
          const std::int64_t t0 = now_ns();
          auto r = client.value()->call(name, op.op, op.args);
          r1[i] = us_since(t0);
          rep.spans.push_back({"client.call " + op.op, 1, id32(i), t0, now_ns()});
          if (!r.ok() || !r.value().ok) return fail("rung 1 " + op.op + " failed");
          responses[i] = std::move(r).take();
          break;
        }
        case 1: {
          const wire::Request req{++id, name, op.op, op.args};
          const std::int64_t t0 = now_ns();
          const auto resp = shard->apply(req);
          r2[i] = us_since(t0);
          rep.spans.push_back({"ProjectShard::apply " + op.op, 2, id32(i), t0, now_ns()});
          if (!resp.ok) return fail("rung 2 " + op.op + ": " + resp.error.message);
          break;
        }
        default: {
          auto span = rung.value()->apply(op);
          if (!span.ok()) return fail("rung 3 " + op.op + ": " + span.error().message);
          r3[i] = span.value();
          rung3_runs += span.value().runs;
          add_rung3_spans(op.op, id32(i), span.value(), rep.spans);
        }
      }
    }
    for (int k = 1; k <= kCheckpoints; ++k)
      if (i + 1 == n * static_cast<std::size_t>(k) / kCheckpoints)
        time_leaves(m, statements, scratch + "/leaf.snapshot.json", leaves);
  }
  const std::uint64_t events = m.bus().published() - published0;
  bool replanned = false;
  for (const auto& op : replay.ops) replanned |= op.op == "replan";
  if (!replanned)  // no replans in the replay: time a few at the end
    for (int k = 0; k < 5; ++k) {
      herc::sched::PlanRequest req;
      req.name = "leaf";
      req.name += std::to_string(k);
      req.strategy = herc::sched::EstimateStrategy::kEwma;
      const std::int64_t t0 = now_ns();
      if (m.replan_task("job", std::move(req)).ok())
        leaves.replan_us.push_back(us_since(t0));
    }
  remove_dir(scratch);
  shard.reset();
  remove_dir(rung2_dir);

  // Codec cost of the recorded frames, off the clock of the calls above.
  std::vector<double> codec_us(n, 0.0), resp_bytes(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    wire::Request req{i + 1, name, replay.ops[i].op, replay.ops[i].args};
    const std::int64_t t0 = now_ns();
    const std::string req_frame = req.encode();
    auto req_back = wire::Request::parse(payload_of(req_frame));
    const std::string resp_frame = responses[i].encode();
    auto resp_back = wire::Response::parse(payload_of(resp_frame));
    codec_us[i] = us_since(t0);
    if (!req_back.ok() || !resp_back.ok()) return fail("codec round trip failed");
    resp_bytes[i] = static_cast<double>(resp_frame.size());
  }

  // --- rung 4 leaves that need no project state ----------------------------
  const std::string payload = sample_run_payload(scenario);
  if (payload.empty()) return fail("no journal payload");
  std::size_t framed = 0;
  const double frame_ns =
      ns_per_call([&] { framed += hercules::frame_journal_line(payload).size(); }, 20000);
  double cpm_us = 0;
  {
    auto solver = herc::sched::CpmSolver::compile(gen::cpm_network(scenario));
    if (!solver.ok()) return fail(solver.error().message);
    herc::sched::CpmResult res;
    cpm_us = ns_per_call([&] { solver.value().solve(res); }, 2000) / 1e3;
  }
  std::vector<Span> spans;
  spans.reserve(100000);
  const double span_ns = ns_per_call(
      [&] {
        const auto id = static_cast<std::uint32_t>(spans.size());
        spans.push_back(Span{0, id, now_ns(), now_ns()});
      },
      100000);

  // --- per-op-type breakdown ----------------------------------------------
  struct TypeSums {
    std::size_t count = 0;
    double r1 = 0, r2 = 0, r3 = 0, call = 0, snapshot = 0, view = 0, bytes = 0;
  };
  std::map<std::string, TypeSums> by_type;
  std::vector<double> exec_r2, exec_r3, replan_call;
  std::vector<double> execute_call, view_us;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& op = replay.ops[i].op;
    auto& t = by_type[op];
    ++t.count;
    t.r1 += r1[i];
    t.r2 += r2[i];
    t.r3 += r3[i].total_us;
    t.call += r3[i].call_us;
    t.snapshot += r3[i].snapshot_us;
    t.view += r3[i].view_us;
    t.bytes += resp_bytes[i];
    if (op == "execute") {
      exec_r2.push_back(r2[i]);
      exec_r3.push_back(r3[i].total_us);
      execute_call.push_back(r3[i].call_us);
    }
    if (op == "replan") replan_call.push_back(r3[i].call_us);
    if (op != "status" && op != "gantt" && op != "query")
      view_us.push_back(r3[i].view_us);
  }
  std::printf("[ladder] %s: %zu ops replayed serially (after %zu set-up ops)\n",
              workload_name(options.workload), n, replay.setup.size());
  for (const auto& [op, t] : by_type) {
    const double c = static_cast<double>(t.count);
    std::printf("[ladder]   %-8s n=%-4zu wire %9.1f us  apply %9.1f us  manager %9.1f us "
                "(call %.1f, snapshot %.1f, view %.1f)  resp %.2f kB\n",
                op.c_str(), t.count, t.r1 / c, t.r2 / c, t.r3 / c, t.call / c,
                t.snapshot / c, t.view / c, t.bytes / c / 1024.0);
  }
  const double save_json = median(leaves.save_json_ms);
  const double save_file = median(leaves.save_file_ms);
  std::printf("[ladder]   leaf save_to_json %.3f ms of save_project_file %.3f ms "
              "(%.0f%%); snapshot %.2f MB at the last checkpoint\n",
              save_json, save_file, 100.0 * ratio(save_json, save_file),
              leaves.snapshot_bytes / 1e6);

  // --- counters from the traced run -----------------------------------------
  const Counters& k = traced.counters;
  const double queries = k.cache_hits + k.cache_misses;

  // The tracing overhead: the same workload with and without client spans.
  const double u50 = percentile(headline_ms(options.workload, untraced), 0.5).value_or(0);
  const double t50 = percentile(headline_ms(options.workload, traced), 0.5).value_or(0);

  auto add = [&](const char* metric, double value, const char* unit) {
    rep.metrics.push_back({metric, value, unit});
  };
  add("srv.rtt_self_us", median(self_times(r1, r2)), "us");
  add("srv.codec_us", mean(codec_us), "us");
  add("srv.resp_kb", mean(resp_bytes) / 1024.0, "kB");
  add("srv.apply_us", mean(r2), "us");
  add("srv.commit_wait_us", median(self_times(exec_r2, exec_r3)), "us");
  add("srv.lines_per_flush", ratio(k.journal_lines, k.group_commits), "count");
  add("srv.read_lane_share", ratio(k.read_lane, k.shard_requests), "ratio");
  add("srv.shed", k.shed, "count");
  add("hercules.execute_task_us", mean(execute_call), "us");
  add("hercules.read_view_us", mean(view_us), "us");
  add("hercules.view_cold_us", mean(leaves.view_cold_us), "us");
  add("hercules.view_memo_us", mean(leaves.view_memo_us), "us");
  add("hercules.reads_per_epoch", ratio(static_cast<double>(traced.reads), k.epochs),
      "count");
  add("hercules.snapshot_ms", save_file, "ms");
  add("hercules.snapshot_json_ms", save_json, "ms");
  add("hercules.snapshot_mb", traced.snapshot_bytes / 1e6, "MB");
  add("hercules.recover_ms", traced.recover_project_ms, "ms");
  add("hercules.frame_ns", frame_ns, "ns");
  add("exec.us_per_run",
      ratio(mean(execute_call) * static_cast<double>(execute_call.size()),
            static_cast<double>(rung3_runs)),
      "us");
  add("core.replan_task_us", mean(replan_call.empty() ? leaves.replan_us : replan_call),
      "us");
  add("core.track_project_us", median(leaves.track_project_us), "us");
  add("core.cpm_solve_us", cpm_us, "us");
  add("query.execute_us", mean(leaves.query_us), "us");
  add("query.cache_hit_share", ratio(k.cache_hits, queries), "ratio");
  add("query.rows_per_query", ratio(k.rows_scanned, queries), "count");
  add("track.status_us", median(leaves.status_us), "us");
  add("gantt.render_us", median(leaves.gantt_us), "us");
  add("obs.events_per_run",
      ratio(static_cast<double>(events), static_cast<double>(rung3_runs)),
      "count");
  add("trace.span_ns", span_ns, "ns");
  add("trace.overhead_share", ratio(t50 - u50, u50), "ratio");
  if (framed == 0)
    rep.mismatches.push_back("ladder: frame_journal_line produced nothing");
  return rep;
}

}  // namespace perfbench
