#include "cli/cli.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "adapters/trace.hpp"
#include "exec/fault.hpp"
#include "core/compare.hpp"
#include "core/risk.hpp"
#include "core/whatif.hpp"
#include "gantt/gantt.hpp"
#include "gantt/svg.hpp"
#include "hercules/journal.hpp"
#include "hercules/persist.hpp"
#include "query/query.hpp"
#include "srv/client.hpp"
#include "track/report.hpp"
#include "track/utilization.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"

namespace herc::cli {

namespace {

constexpr const char* kHelp = R"(commands:
  new <schema-file> [epoch YYYY-MM-DD]     create a project from a schema file
  schema <inline-dsl>                      create a project from inline DSL
  show schema|db|task <name>
  tool <instance> <type> <nominal> [noise <frac>] [fail <rate>]
  resource <name> [kind] [capacity]
  vacation <resource> <start-date> <days>   (leveled plans and dispatch wait for it)
  task <name> <target-type> [stop <type> ...]
  bind <task> <type> <instance>
  estimate <activity> <duration> | estimate fallback <duration>
  plan <task> [strategy intuition|last|mean|ewma|pert] [level] [deadline <dur>]
  replan <task> [strategy ...] [level] [deadline <dur>]
  execute <task> <designer>
  dispatch <task> <designer>  (concurrent execution; plan assignments apply)
  run <task> <activity> <designer>
  refresh <task> <designer>   (re-run only stale/missing activities)
  stale                       (design data whose inputs moved on)
  drag <task>                 (where optimisation buys schedule)
  link <task> <activity>
  gantt <task> | portfolio <task>... | svg <task> | status <task>
  lineage <task> | diff <task>   (plan evolution; what the re-plan changed)
  report <task> (HTML) | utilization <task>
  risk <task> [samples] [seed] [threads]   (Monte Carlo completion risk)
  query <statement>
  explain <statement>           (chosen access path: index vs scan, cache)
  browse | select <id> | display | delete
  whatif delay <task> <activity> <duration>
  whatif crash <task> <deadline, duration from epoch>
  retry <max> [backoff <dur>] [timeout <dur>] [tool <instance>]
  onfail abort|retry|continue   (what execution does when a run fails)
  faults seed <n>               (deterministic fault injection)
  faults tool <inst> [fail <p>] [latency <f>] [failon <k>...] [crashon <k>...]
  faults crashafter <n> | faults show | faults off
  journal on <file> | journal off  (crash-safe run journal; snapshot first)
  recover <snapshot> <journal>     (rebuild a crashed project, ready to run)
  advance <duration> | now
  trace on <file> | trace off   (Chrome/Perfetto trace of the project)
  stats [json]                  (event-bus counters and latency histograms)
  save <file> | open <file>     (the whole project but its faults; save
                                replaces the file atomically)
  remote connect unix:/path|tcp:host:port   (talk to a herc_srv instance)
  remote ping | projects | stats | disconnect
  remote open <name> [seed=N] [shape=S] [size=K] | remote close <name>
  remote <project> <op> [key=value ...]     (generic op passthrough)
  quit
)";

constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

// Every number a command takes goes through one of these two readers.
// Anything else (a sign, a suffix, spaces, an exponent) is refused, and the
// command then changes nothing.

/// Reads `text` into `out` when it is a whole number in [lo, hi] written in
/// decimal digits only; false otherwise.
template <typename T>
bool read_number(const std::string& text, std::uint64_t lo, std::uint64_t hi, T& out) {
  std::uint64_t n = 0;
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      std::from_chars(text.data(), text.data() + text.size(), n).ec != std::errc{} ||
      n < lo || n > hi)
    return false;
  out = static_cast<T>(n);
  return true;
}

/// Reads `text` into `out` when it is a plain decimal: digits, optionally
/// followed by a point and more digits ("3", "0.25"); false otherwise.
bool read_decimal(const std::string& text, double& out) {
  auto digits = [](std::string_view s) {
    return !s.empty() && s.find_first_not_of("0123456789") == std::string_view::npos;
  };
  const std::string_view v(text);
  const std::size_t dot = v.find('.');
  if (!digits(v.substr(0, dot)) || (dot != v.npos && !digits(v.substr(dot + 1))))
    return false;
  out = std::strtod(text.c_str(), nullptr);
  return true;
}

std::string join_from(const std::vector<std::string>& args, std::size_t from) {
  std::vector<std::string> rest(args.begin() + static_cast<std::ptrdiff_t>(from),
                                args.end());
  return util::join(rest, " ");
}

}  // namespace

CliSession::~CliSession() {
  // Mirror `trace off`: an unclosed trace still reaches its file.
  if (exporter_ && !trace_path_.empty()) (void)exporter_->write_file(trace_path_);
}

void CliSession::adopt(std::unique_ptr<hercules::WorkflowManager> manager) {
  // Subscribers follow the session, not the project: detach from the old
  // manager's bus before it dies, re-attach to the new one.
  metrics_->detach();
  if (exporter_) exporter_->detach();
  manager_ = std::move(manager);
  browser_.reset();
  if (manager_) {
    metrics_->attach(manager_->bus());
    if (exporter_) exporter_->attach(manager_->bus());
  }
}

util::Result<hercules::WorkflowManager*> CliSession::need_manager() {
  if (!manager_)
    return util::conflict("no project; use 'new <schema-file>' or 'schema <dsl>'");
  return manager_.get();
}

util::Result<std::string> CliSession::execute_line(const std::string& line) {
  std::string_view trimmed = util::trim(line);
  if (trimmed.empty() || trimmed.front() == '#') return std::string{};
  try {
    // `schema` and `query` take the rest of the line verbatim.
    auto args = util::split_ws(trimmed);
    if (args[0] == "schema" && args.size() > 1)
      return cmd_schema(std::string(util::trim(trimmed.substr(6))));
    if (args[0] == "query") {
      auto m = need_manager();
      if (!m.ok()) return m.error();
      if (args.size() < 2) return util::invalid("query: missing statement");
      return m.value()->query(util::trim(trimmed.substr(5)));
    }
    if (args[0] == "explain") {
      auto m = need_manager();
      if (!m.ok()) return m.error();
      if (args.size() < 2) return util::invalid("explain: missing statement");
      return m.value()->explain(util::trim(trimmed.substr(7)));
    }
    return dispatch(args);
  } catch (const exec::InjectedCrash& crash) {
    // A fault-plan crash point fired mid-command: the simulated process
    // death.  The in-memory project is now whatever the crash left behind —
    // exactly the state `recover` rebuilds from snapshot + journal.
    return util::unsupported(std::string("simulated crash: ") + crash.what());
  }
}

util::Result<std::string> CliSession::dispatch(const Args& args) {
  const std::string& cmd = args[0];
  if (cmd == "help") return std::string(kHelp);
  if (cmd == "quit" || cmd == "exit") {
    quit_ = true;
    return std::string("bye\n");
  }
  if (cmd == "new") return cmd_new(args);
  if (cmd == "show") return cmd_show(args);
  if (cmd == "tool") return cmd_tool(args);
  if (cmd == "resource") return cmd_resource(args);
  if (cmd == "vacation") return cmd_vacation(args);
  if (cmd == "task") return cmd_task(args);
  if (cmd == "bind") return cmd_bind(args);
  if (cmd == "estimate") return cmd_estimate(args);
  if (cmd == "plan") return cmd_plan(args, /*replan=*/false);
  if (cmd == "replan") return cmd_plan(args, /*replan=*/true);
  if (cmd == "execute") return cmd_execute(args);
  if (cmd == "run") return cmd_run(args);
  if (cmd == "link") return cmd_link(args);
  if (cmd == "whatif") return cmd_whatif(args);
  if (cmd == "retry") return cmd_retry(args);
  if (cmd == "onfail") return cmd_onfail(args);
  if (cmd == "faults") return cmd_faults(args);
  if (cmd == "journal") return cmd_journal(args);
  if (cmd == "recover") return cmd_recover(args);
  if (cmd == "trace") return cmd_trace(args);
  if (cmd == "stats") return cmd_stats(args);
  if (cmd == "browse" || cmd == "select" || cmd == "display" || cmd == "delete")
    return cmd_browse_ops(args);
  if (cmd == "save") return cmd_save(args);
  if (cmd == "open") return cmd_open(args);
  if (cmd == "remote") return cmd_remote(args);

  auto m = need_manager();
  if (!m.ok()) return m.error();
  auto* manager = m.value();

  if (cmd == "gantt") {
    if (args.size() != 2) return util::invalid("gantt <task>");
    return manager->gantt(args[1]);
  }
  if (cmd == "svg") {
    if (args.size() != 2) return util::invalid("svg <task>");
    auto plan = manager->plan_of(args[1]);
    if (!plan) return util::conflict("task '" + args[1] + "' has no plan");
    return gantt::render_gantt_svg(manager->schedule_space(), manager->calendar(),
                                   *plan, manager->clock().now());
  }
  if (cmd == "status") {
    if (args.size() != 2) return util::invalid("status <task>");
    return manager->status_report(args[1]);
  }
  if (cmd == "report") {
    if (args.size() != 2) return util::invalid("report <task>");
    auto plan = manager->plan_of(args[1]);
    if (!plan) return util::conflict("task '" + args[1] + "' has no plan");
    return track::render_html_report(manager->schedule_space(), manager->db(),
                                     manager->calendar(), *plan,
                                     manager->clock().now());
  }
  if (cmd == "risk") {
    if (args.size() < 2 || args.size() > 5)
      return util::invalid("risk <task> [samples] [seed] [threads]");
    auto plan = manager->plan_of(args[1]);
    if (!plan) return util::conflict("task '" + args[1] + "' has no plan");
    sched::RiskOptions opt;
    opt.bus = &manager->bus();
    if ((args.size() > 2 && !read_number(args[2], 1, kMaxInt, opt.samples)) ||
        (args.size() > 3 && !read_number(args[3], 0, kMaxU64, opt.seed)) ||
        (args.size() > 4 && !read_number(args[4], 0, kMaxInt, opt.threads)))
      return util::invalid("risk: [samples] [seed] [threads] must be whole numbers, "
                           "samples at least 1");
    auto risk =
        sched::analyze_risk(manager->schedule_space(), manager->db(), *plan, opt);
    if (!risk.ok()) return risk.error();
    return risk.value().render(manager->calendar());
  }
  if (cmd == "utilization") {
    if (args.size() != 2) return util::invalid("utilization <task>");
    auto plan = manager->plan_of(args[1]);
    if (!plan) return util::conflict("task '" + args[1] + "' has no plan");
    auto report = track::utilization(manager->schedule_space(), manager->db(), *plan);
    if (!report.ok()) return report.error();
    return report.value().render(manager->calendar());
  }
  if (cmd == "portfolio") {
    if (args.size() < 2) return util::invalid("portfolio <task> [<task> ...]");
    std::vector<sched::ScheduleRunId> plans;
    for (std::size_t i = 1; i < args.size(); ++i) {
      auto plan = manager->plan_of(args[i]);
      if (!plan) return util::conflict("task '" + args[i] + "' has no plan");
      plans.push_back(*plan);
    }
    return gantt::render_portfolio_gantt(manager->schedule_space(),
                                         manager->calendar(), plans,
                                         manager->clock().now());
  }
  if (cmd == "dispatch") {
    if (args.size() != 3) return util::invalid("dispatch <task> <designer>");
    // Resource assignments come from the task's plan when one exists.
    exec::Executor::DispatchOptions opt;
    if (auto plan = manager->plan_of(args[1])) {
      for (sched::ScheduleNodeId nid : manager->schedule_space().plan(*plan).nodes) {
        const auto& n = manager->schedule_space().node(nid);
        if (!n.resources.empty()) opt.assignments[n.activity] = n.resources;
      }
    }
    auto result = manager->execute_task_concurrent(args[1], args[2], opt);
    if (!result.ok()) return result.error();
    std::string out;
    for (const auto& r : result.value().runs)
      out += manager->db().run(r.run).str() + "  [" +
             manager->calendar().format(manager->db().run(r.run).started_at) + " .. " +
             manager->calendar().format(manager->db().run(r.run).finished_at) + "]\n";
    if (result.value().success) {
      out += "dispatch complete at " +
             manager->calendar().format(manager->clock().now()) + "\n";
    } else if (!result.value().skipped.empty()) {
      out += "dispatch DEGRADED on failure; skipped:";
      for (const auto& s : result.value().skipped) out += " " + s;
      out += "\n";
    } else {
      out += "dispatch STOPPED on failure\n";
    }
    return out;
  }
  if (cmd == "refresh") {
    if (args.size() != 3) return util::invalid("refresh <task> <designer>");
    auto runs = manager->refresh_task(args[1], args[2]);
    if (!runs.ok()) return runs.error();
    if (runs.value().empty()) return std::string("everything up to date\n");
    std::string out;
    for (const auto& r : runs.value()) out += manager->db().run(r.run).str() + "\n";
    return out;
  }
  if (cmd == "stale") {
    auto trace = adapters::TraceGraph::capture(manager->db());
    auto stale = trace.stale_instances();
    if (stale.empty()) return std::string("no stale design data\n");
    std::string out = "stale (inputs have newer versions):\n";
    for (auto id : stale) out += "  " + manager->db().instance(id).str() + "\n";
    return out;
  }
  if (cmd == "drag") {
    if (args.size() != 2) return util::invalid("drag <task>");
    auto plan = manager->plan_of(args[1]);
    if (!plan) return util::conflict("task '" + args[1] + "' has no plan");
    std::string out = "critical-path drag (completion gained if the activity "
                      "took zero time):\n";
    for (const auto& d : sched::plan_drag(manager->schedule_space(), *plan))
      out += "  " + util::pad_right(d.activity, 16) +
             d.drag.str(manager->calendar().minutes_per_day()) + "\n";
    return out;
  }
  if (cmd == "diff") {
    if (args.size() != 2) return util::invalid("diff <task>");
    auto plan = manager->plan_of(args[1]);
    if (!plan) return util::conflict("task '" + args[1] + "' has no plan");
    auto prev = manager->schedule_space().plan(*plan).derived_from;
    if (!prev.valid())
      return util::conflict("task '" + args[1] +
                            "' has only one plan generation; nothing to diff");
    auto cmp = sched::compare_plans(manager->schedule_space(), prev, *plan);
    if (!cmp.ok()) return cmp.error();
    return cmp.value().render(manager->calendar());
  }
  if (cmd == "lineage") {
    if (args.size() != 2) return util::invalid("lineage <task>");
    auto plan = manager->plan_of(args[1]);
    if (!plan) return util::conflict("task '" + args[1] + "' has no plan");
    query::QueryEngine engine(manager->db(), manager->schedule_space());
    return engine.plan_lineage(*plan).render(&manager->calendar());
  }
  if (cmd == "advance") {
    if (args.size() < 2) return util::invalid("advance <duration>");
    auto d = manager->calendar().parse_duration(join_from(args, 1));
    if (!d.ok()) return d.error();
    auto advanced = manager->advance_clock(d.value());
    if (!advanced.ok()) return advanced.error();
    return "now: " + manager->calendar().format(manager->clock().now()) + "\n";
  }
  if (cmd == "now")
    return "now: " + manager->calendar().format(manager->clock().now()) + "\n";

  return util::not_found("unknown command '" + cmd + "' (try 'help')");
}

util::Result<std::string> CliSession::cmd_new(const Args& args) {
  if (args.size() != 2 && args.size() != 4)
    return util::invalid("new <schema-file> [epoch YYYY-MM-DD]");
  auto dsl = util::read_file(args[1]);
  if (!dsl.ok()) return dsl.error();
  cal::WorkCalendar::Config cfg;
  if (args.size() == 4) {
    if (args[2] != "epoch") return util::invalid("new <schema-file> [epoch <date>]");
    auto epoch = cal::Date::parse(args[3]);
    if (!epoch.ok()) return epoch.error();
    cfg.epoch = epoch.value();
  }
  auto created = hercules::WorkflowManager::create(dsl.value(), cfg);
  if (!created.ok()) return created.error();
  adopt(std::move(created).take());
  return "project created from '" + args[1] + "' (schema '" +
         manager_->schema().name() + "')\n";
}

util::Result<std::string> CliSession::cmd_schema(const std::string& rest) {
  auto created = hercules::WorkflowManager::create(rest);
  if (!created.ok()) return created.error();
  adopt(std::move(created).take());
  return "project created (schema '" + manager_->schema().name() + "')\n";
}

util::Result<std::string> CliSession::cmd_show(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() >= 2 && args[1] == "schema") {
    std::string out = m.value()->schema().describe();
    auto warnings = m.value()->schema().lint();
    for (const auto& w : warnings) out += "  warning: " + w + "\n";
    return out;
  }
  if (args.size() >= 2 && args[1] == "db") return m.value()->dump_database();
  if (args.size() == 3 && args[1] == "task") {
    auto tree = m.value()->task(args[2]);
    if (!tree.ok()) return tree.error();
    return tree.value()->render();
  }
  return util::invalid("show schema|db|task <name>");
}

util::Result<std::string> CliSession::cmd_tool(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() < 4)
    return util::invalid("tool <instance> <type> <nominal> [noise <f>] [fail <r>]");
  exec::ToolSpec spec;
  spec.instance_name = args[1];
  spec.tool_type = args[2];
  auto nominal = m.value()->calendar().parse_duration(args[3]);
  if (!nominal.ok()) return nominal.error();
  spec.nominal = nominal.value();
  for (std::size_t i = 4; i + 1 < args.size(); i += 2) {
    double* value = args[i] == "noise" ? &spec.noise_frac
                    : args[i] == "fail" ? &spec.fail_rate
                                        : nullptr;
    if (value == nullptr) return util::invalid("tool: unknown option '" + args[i] + "'");
    if (!read_decimal(args[i + 1], *value))
      return util::invalid("tool: bad number '" + args[i + 1] + "'");
  }
  auto st = m.value()->register_tool(std::move(spec));
  if (!st.ok()) return st.error();
  return "tool '" + args[1] + "' registered\n";
}

util::Result<std::string> CliSession::cmd_resource(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() < 2 || args.size() > 4)
    return util::invalid("resource <name> [kind] [capacity]");
  std::string kind = args.size() > 2 ? args[2] : "person";
  int capacity = 1;
  if (args.size() > 3 && !read_number(args[3], 1, kMaxInt, capacity))
    return util::invalid("resource: bad capacity '" + args[3] + "' (need at least 1)");
  auto id = m.value()->add_resource(args[1], kind, capacity);
  return "resource '" + args[1] + "' " + id.str() + " added\n";
}

util::Result<std::string> CliSession::cmd_vacation(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() != 4) return util::invalid("vacation <resource> <start-date> <days>");
  auto rid = m.value()->db().find_resource(args[1]);
  if (!rid) return util::not_found("no resource '" + args[1] + "'");
  auto date = cal::Date::parse(args[2]);
  if (!date.ok()) return date.error();
  int days = 0;
  if (!read_number(args[3], 1, kMaxInt, days))
    return util::invalid("vacation: bad day count '" + args[3] + "' (need at least one)");
  const auto& calendar = m.value()->calendar();
  cal::WorkInstant from = calendar.at_start_of(date.value());
  cal::WorkInstant to =
      from + cal::WorkDuration::minutes(days * calendar.minutes_per_day());
  auto st = m.value()->db().add_time_off(*rid, from, to);
  if (!st.ok()) return st.error();
  return args[1] + " off " + calendar.format_date(from) + " for " +
         std::to_string(days) + " workday(s)\n";
}

util::Result<std::string> CliSession::cmd_task(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() < 3) return util::invalid("task <name> <target-type> [stop <t>...]");
  std::unordered_set<std::string> stops;
  if (args.size() > 3) {
    if (args[3] != "stop") return util::invalid("task <name> <target> [stop <t>...]");
    for (std::size_t i = 4; i < args.size(); ++i) stops.insert(args[i]);
  }
  auto st = m.value()->extract_task(args[1], args[2], stops);
  if (!st.ok()) return st.error();
  return "task '" + args[1] + "' extracted:\n" + m.value()->task(args[1]).value()->render();
}

util::Result<std::string> CliSession::cmd_bind(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() != 4) return util::invalid("bind <task> <type> <instance>");
  auto st = m.value()->bind(args[1], args[2], args[3]);
  if (!st.ok()) return st.error();
  return "bound " + args[2] + " = " + args[3] + "\n";
}

util::Result<std::string> CliSession::cmd_estimate(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() < 3) return util::invalid("estimate <activity|fallback> <duration>");
  auto d = m.value()->calendar().parse_duration(join_from(args, 2));
  if (!d.ok()) return d.error();
  if (args[1] == "fallback") {
    m.value()->estimator().set_fallback(d.value());
    return std::string("fallback estimate set\n");
  }
  if (!m.value()->schema().find_rule_by_activity(args[1]))
    return util::not_found("no activity '" + args[1] + "' in the schema");
  m.value()->estimator().set_intuition(args[1], d.value());
  return "estimate for " + args[1] + " set to " +
         d.value().str(m.value()->calendar().minutes_per_day()) + "\n";
}

util::Result<std::string> CliSession::cmd_plan(const Args& args, bool replan) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() < 2) return util::invalid("plan <task> [strategy <s>] [level]");
  sched::PlanRequest req;
  req.anchor = m.value()->clock().now();
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "strategy" && i + 1 < args.size()) {
      auto s = sched::parse_estimate_strategy(args[++i]);
      if (!s.ok()) return s.error();
      req.strategy = s.value();
    } else if (args[i] == "level") {
      req.level_resources = true;
    } else if (args[i] == "deadline" && i + 1 < args.size()) {
      auto d = m.value()->calendar().parse_duration(args[++i]);
      if (!d.ok()) return d.error();
      req.deadline = cal::WorkInstant(d.value().count_minutes());
    } else {
      return util::invalid("plan: unknown option '" + args[i] + "'");
    }
  }
  auto plan = replan ? m.value()->replan_task(args[1], req)
                     : m.value()->plan_task(args[1], req);
  if (!plan.ok()) return plan.error();
  return m.value()->schedule_space().plan(plan.value()).str() + " created\n" +
         m.value()->gantt(args[1]).value();
}

util::Result<std::string> CliSession::cmd_execute(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() != 3) return util::invalid("execute <task> <designer>");
  auto result = m.value()->execute_task(args[1], args[2]);
  if (!result.ok()) return result.error();
  std::string out;
  for (const auto& r : result.value().runs) {
    const auto& run = m.value()->db().run(r.run);
    out += run.str() + "\n";
  }
  if (result.value().success) {
    out += "execution complete\n";
  } else if (!result.value().skipped.empty()) {
    out += "execution DEGRADED on failure; skipped:";
    for (const auto& s : result.value().skipped) out += " " + s;
    out += "\n";
  } else {
    out += "execution STOPPED on failure\n";
  }
  return out;
}

util::Result<std::string> CliSession::cmd_run(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() != 4) return util::invalid("run <task> <activity> <designer>");
  auto result = m.value()->run_activity(args[1], args[2], args[3]);
  if (!result.ok()) return result.error();
  return m.value()->db().run(result.value().run).str() + "\n";
}

util::Result<std::string> CliSession::cmd_link(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() != 3) return util::invalid("link <task> <activity>");
  auto st = m.value()->link_completion(args[1], args[2]);
  if (!st.ok()) return st.error();
  return "linked final " + args[2] + " data to its schedule instance\n";
}

util::Result<std::string> CliSession::cmd_whatif(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  auto* manager = m.value();
  const std::int64_t mpd = manager->calendar().minutes_per_day();
  if (args.size() >= 5 && args[1] == "delay") {
    auto plan = manager->plan_of(args[2]);
    if (!plan) return util::conflict("task '" + args[2] + "' has no plan");
    auto d = manager->calendar().parse_duration(join_from(args, 4));
    if (!d.ok()) return d.error();
    auto impact =
        sched::simulate_delay(manager->schedule_space(), *plan, args[3], d.value());
    if (!impact.ok()) return impact.error();
    const auto& i = impact.value();
    std::string out = "if " + i.activity + " slips " + i.delay.str(mpd) + ": ";
    if (i.absorbed) {
      out += "absorbed by slack; completion stays " +
             manager->calendar().format_date(i.old_finish) + "\n";
    } else {
      out += "completion moves " + manager->calendar().format_date(i.old_finish) +
             " -> " + manager->calendar().format_date(i.new_finish) + " (slip " +
             i.project_slip.str(mpd) + ")\n";
    }
    if (!i.shifted_activities.empty())
      out += "shifted: " + util::join(i.shifted_activities, ", ") + "\n";
    return out;
  }
  if (args.size() >= 4 && args[1] == "crash") {
    auto plan = manager->plan_of(args[2]);
    if (!plan) return util::conflict("task '" + args[2] + "' has no plan");
    auto d = manager->calendar().parse_duration(join_from(args, 3));
    if (!d.ok()) return d.error();
    auto crash = sched::crash_to_deadline(manager->schedule_space(), *plan,
                                          cal::WorkInstant(d.value().count_minutes()));
    if (!crash.ok()) return crash.error();
    const auto& c = crash.value();
    std::string out = "deadline " + manager->calendar().format_date(c.deadline) +
                      ", projected " +
                      manager->calendar().format_date(c.projected_finish) + "\n";
    if (c.shortfall.count_minutes() <= 0) return out + "deadline already met\n";
    out += c.feasible ? "feasible with cuts:\n" : "INFEASIBLE even with cuts:\n";
    for (const auto& step : c.steps)
      out += "  shorten " + step.activity + " by " + step.reduction.str(mpd) +
             " (currently " + step.current.str(mpd) + ")\n";
    return out;
  }
  return util::invalid("whatif delay <task> <activity> <duration> | "
                       "whatif crash <task> <deadline>");
}

util::Result<std::string> CliSession::cmd_retry(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() < 2)
    return util::invalid("retry <max> [backoff <dur>] [timeout <dur>] [tool <inst>]");
  exec::RetryPolicy policy;
  if (!read_number(args[1], 1, kMaxInt, policy.max_attempts))
    return util::invalid("retry: bad attempt count '" + args[1] + "' (need at least 1)");
  std::string tool;
  for (std::size_t i = 2; i + 1 < args.size(); i += 2) {
    if (args[i] == "backoff" || args[i] == "timeout") {
      auto d = m.value()->calendar().parse_duration(args[i + 1]);
      if (!d.ok()) return d.error();
      (args[i] == "backoff" ? policy.backoff : policy.timeout) = d.value();
    } else if (args[i] == "tool") {
      tool = args[i + 1];
    } else {
      return util::invalid("retry: unknown option '" + args[i] + "'");
    }
  }
  auto options = m.value()->exec_options();
  if (tool.empty())
    options.retry = policy;
  else
    options.tool_retry[tool] = policy;
  m.value()->set_exec_options(std::move(options));
  std::string out = "retry policy" + (tool.empty() ? "" : " for '" + tool + "'") +
                    ": " + std::to_string(policy.max_attempts) + " attempt(s)\n";
  if (m.value()->exec_options().on_failure == exec::FailurePolicy::kAbort &&
      policy.max_attempts > 1)
    out += "note: onfail is 'abort'; retries apply after 'onfail retry' or "
           "'onfail continue'\n";
  return out;
}

util::Result<std::string> CliSession::cmd_onfail(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() != 2) return util::invalid("onfail abort|retry|continue");
  auto options = m.value()->exec_options();
  if (args[1] == "abort") options.on_failure = exec::FailurePolicy::kAbort;
  else if (args[1] == "retry") options.on_failure = exec::FailurePolicy::kRetryThenAbort;
  else if (args[1] == "continue")
    options.on_failure = exec::FailurePolicy::kContinueIndependent;
  else return util::invalid("onfail abort|retry|continue");
  m.value()->set_exec_options(std::move(options));
  return "on failure: " + args[1] + "\n";
}

util::Result<std::string> CliSession::cmd_faults(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  auto* manager = m.value();
  if (args.size() < 2)
    return util::invalid("faults seed|tool|crashafter|show|off ...");

  // Start from the installed scenario so successive commands compose.
  std::uint64_t seed = 1;
  exec::FaultPlan plan;
  if (const auto* injector = manager->fault_injector()) {
    seed = injector->seed();
    plan = injector->plan();
  }

  if (args[1] == "off") {
    manager->clear_faults();
    return std::string("fault injection off\n");
  }
  if (args[1] == "show") {
    if (!manager->fault_injector()) return std::string("fault injection off\n");
    std::string out = "fault seed " + std::to_string(seed) + "\n";
    if (plan.crash_after_total > 0)
      out += "  crash after " + std::to_string(plan.crash_after_total) +
             " total invocations\n";
    for (const auto& [name, f] : plan.tools) {
      out += "  " + name + ": fail " + std::to_string(f.fail_prob) + ", latency x" +
             std::to_string(f.latency_factor);
      if (!f.fail_on.empty()) {
        out += ", failon";
        for (int k : f.fail_on) out += " " + std::to_string(k);
      }
      if (!f.crash_on.empty()) {
        out += ", crashon";
        for (int k : f.crash_on) out += " " + std::to_string(k);
      }
      out += "\n";
    }
    return out;
  }
  if (args[1] == "seed") {
    if (args.size() != 3) return util::invalid("faults seed <n>");
    if (!read_number(args[2], 0, kMaxU64, seed))
      return util::invalid("faults: bad seed '" + args[2] + "'");
    manager->set_faults(seed, std::move(plan));
    return "fault seed " + std::to_string(seed) + "\n";
  }
  if (args[1] == "crashafter") {
    if (args.size() != 3) return util::invalid("faults crashafter <n>");
    if (!read_number(args[2], 0, kMaxU64, plan.crash_after_total))
      return util::invalid("faults: bad invocation count '" + args[2] + "'");
    manager->set_faults(seed, std::move(plan));
    return "crash after " + args[2] + " total invocations\n";
  }
  if (args[1] == "tool") {
    if (args.size() < 3)
      return util::invalid(
          "faults tool <inst> [fail <p>] [latency <f>] [failon <k>...] [crashon <k>...]");
    exec::ToolFaults& f = plan.tools[args[2]];
    const util::Error bad_number = util::invalid("faults: bad number in tool options");
    std::size_t i = 3;
    while (i < args.size()) {
      if ((args[i] == "fail" || args[i] == "latency") && i + 1 < args.size()) {
        double& value = args[i] == "fail" ? f.fail_prob : f.latency_factor;
        if (!read_decimal(args[i + 1], value)) return bad_number;
        i += 2;
      } else if (args[i] == "failon" || args[i] == "crashon") {
        auto& list = args[i] == "failon" ? f.fail_on : f.crash_on;
        std::size_t j = i + 1;
        for (int k = 0; j < args.size() && (std::isdigit(args[j][0]) != 0); ++j) {
          if (!read_number(args[j], 1, kMaxInt, k)) return bad_number;
          list.push_back(k);
        }
        if (j == i + 1) return util::invalid("faults: " + args[i] + " needs indices");
        i = j;
      } else {
        return util::invalid("faults: unknown option '" + args[i] + "'");
      }
    }
    const std::string name = args[2];
    manager->set_faults(seed, std::move(plan));
    return "faults set for tool '" + name + "'\n";
  }
  return util::invalid("faults seed|tool|crashafter|show|off ...");
}

util::Result<std::string> CliSession::cmd_journal(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() == 3 && args[1] == "on") {
    auto st = m.value()->enable_journal(args[2]);
    if (!st.ok()) return st.error();
    return "journaling runs to '" + args[2] +
           "' (snapshot with 'save' so recovery has a base)\n";
  }
  if (args.size() == 2 && args[1] == "off") {
    if (!m.value()->journal()) return util::conflict("journaling is not on");
    m.value()->disable_journal();
    return std::string("journaling off\n");
  }
  return util::invalid("journal on <file> | journal off");
}

util::Result<std::string> CliSession::cmd_recover(const Args& args) {
  if (args.size() != 3) return util::invalid("recover <snapshot> <journal>");
  auto recovered = hercules::recover_project(args[1], args[2]);
  if (!recovered.ok()) return recovered.error();
  adopt(std::move(recovered).take());
  return "project recovered from '" + args[1] + "' + journal '" + args[2] +
         "' (" + std::to_string(manager_->db().run_count()) + " runs)\n";
}

util::Result<std::string> CliSession::cmd_trace(const Args& args) {
  if (args.size() == 3 && args[1] == "on") {
    auto m = need_manager();
    if (!m.ok()) return m.error();
    if (exporter_) return util::conflict("already tracing to '" + trace_path_ + "'");
    exporter_ = std::make_unique<obs::ChromeTraceExporter>();
    exporter_->attach(m.value()->bus());
    trace_path_ = args[2];
    return "tracing to '" + trace_path_ + "' (chrome://tracing / Perfetto)\n";
  }
  if (args.size() == 2 && args[1] == "off") {
    if (!exporter_) return util::conflict("not tracing; use 'trace on <file>'");
    exporter_->detach();
    auto st = exporter_->write_file(trace_path_);
    std::string out = "wrote " + std::to_string(exporter_->event_count()) +
                      " events to '" + trace_path_ + "'\n";
    // Tracing ends either way; a failed write must not leave the session
    // stuck "already tracing" to an unwritable path.
    exporter_.reset();
    trace_path_.clear();
    if (!st.ok())
      return util::invalid(st.error().message + " (trace discarded)");
    return out;
  }
  return util::invalid("trace on <file> | trace off");
}

util::Result<std::string> CliSession::cmd_stats(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  // Snapshot health rides along with the metrics: which epoch the project
  // is at, how many views were ever published, and how many are still
  // pinned (live > 1 means a retired epoch is held by some reader).
  const std::int64_t live = m.value()->snapshots_live();
  if (args.size() == 2 && args[1] == "json") {
    auto j = metrics_->json();
    util::JsonObject sn;
    sn.set("epoch", static_cast<std::int64_t>(m.value()->snapshot_epoch()));
    sn.set("published",
           static_cast<std::int64_t>(m.value()->snapshots_published()));
    sn.set("live", live);
    sn.set("retired_unreclaimed", live > 1 ? live - 1 : 0);
    j.as_object().set("snapshots", util::Json(std::move(sn)));
    return j.dump() + "\n";
  }
  if (args.size() != 1) return util::invalid("stats [json]");
  std::string out = metrics_->text();
  out += "snapshots:\n  epoch " + std::to_string(m.value()->snapshot_epoch()) +
         "  published " + std::to_string(m.value()->snapshots_published()) +
         "  live " + std::to_string(live) + "  retired-unreclaimed " +
         std::to_string(live > 1 ? live - 1 : 0) + "\n";
  return out;
}

util::Result<std::string> CliSession::cmd_browse_ops(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (!browser_) {
    browser_ = std::make_unique<gantt::ScheduleBrowser>(
        m.value()->schedule_space(), m.value()->db(), m.value()->calendar());
  }
  if (args[0] == "browse") return browser_->list();
  if (args[0] == "select") {
    if (args.size() != 2) return util::invalid("select <id>");
    std::uint64_t id = 0;
    if (!read_number(args[1], 0, kMaxU64, id))
      return util::invalid("select: bad id '" + args[1] + "'");
    auto st = browser_->select(sched::ScheduleNodeId{id});
    if (!st.ok()) return st.error();
    return "selected " + sched::ScheduleNodeId{id}.str() + "\n";
  }
  if (args[0] == "display") return browser_->display();
  // delete
  auto st = browser_->delete_selected();
  if (!st.ok()) return st.error();
  return std::string("deleted\n");
}

util::Result<std::string> CliSession::cmd_save(const Args& args) {
  auto m = need_manager();
  if (!m.ok()) return m.error();
  if (args.size() != 2) return util::invalid("save <file>");
  auto st = hercules::save_project_file(*m.value(), args[1]);
  if (!st.ok()) return st.error();
  return "saved to '" + args[1] + "'\n";
}

util::Result<std::string> CliSession::cmd_open(const Args& args) {
  if (args.size() != 2) return util::invalid("open <file>");
  auto text = util::read_file(args[1]);
  if (!text.ok()) return text.error();
  auto loaded = hercules::load_from_json(text.value());
  if (!loaded.ok()) return loaded.error();
  adopt(std::move(loaded).take());
  return "project loaded from '" + args[1] + "'\n";
}

util::Result<std::string> CliSession::cmd_remote(const Args& args) {
  if (args.size() < 2)
    return util::invalid(
        "remote connect <addr> | disconnect | ping | projects | stats | "
        "open <name> [seed N] [shape S] [size K] | close <name> | "
        "<project> <op> [key=value ...]");
  const std::string& sub = args[1];

  if (sub == "connect") {
    if (args.size() != 3)
      return util::invalid("remote connect unix:/path|tcp:host:port");
    auto client = srv::Client::connect(args[2]);
    if (!client.ok()) return client.error();
    remote_ = std::move(client).take();
    return "connected to " + args[2] + "\n";
  }
  if (sub == "disconnect") {
    if (!remote_) return util::conflict("not connected");
    remote_.reset();
    return std::string("disconnected\n");
  }
  if (!remote_)
    return util::conflict("not connected; use 'remote connect <addr>'");

  // k=v pairs -> args object; integers pass through as numbers so ops like
  // advance {minutes} and open {scenario_seed} work from the command line.
  auto parse_kv = [](const Args& list, std::size_t from,
                     util::JsonObject& out) -> util::Status {
    for (std::size_t i = from; i < list.size(); ++i) {
      auto eq = list[i].find('=');
      if (eq == std::string::npos || eq == 0)
        return util::invalid("remote: expected key=value, got '" + list[i] + "'");
      std::string key = list[i].substr(0, eq);
      std::string value = list[i].substr(eq + 1);
      if (value == "true" || value == "false") {
        out.set(key, util::Json(value == "true"));
        continue;
      }
      try {
        std::size_t used = 0;
        std::int64_t n = std::stoll(value, &used);
        if (used == value.size()) {
          out.set(key, util::Json(n));
          continue;
        }
      } catch (const std::exception&) {
      }
      out.set(key, util::Json(std::move(value)));
    }
    return util::Status::ok_status();
  };

  std::string project;
  std::string op;
  util::JsonObject call_args;
  if (sub == "ping" || sub == "projects" || sub == "stats" ||
      sub == "shutdown") {
    op = sub;
  } else if (sub == "open" || sub == "close") {
    if (args.size() < 3) return util::invalid("remote " + sub + " <name> ...");
    op = sub;
    call_args.set("name", util::Json(args[2]));
    if (sub == "open") {
      // Friendly aliases for the open op's scenario knobs.
      util::JsonObject extra;
      auto st = parse_kv(args, 3, extra);
      if (!st.ok()) return st.error();
      for (const auto& [key, value] : extra) {
        if (key == "seed")
          call_args.set("scenario_seed", value);
        else
          call_args.set(key, value);
      }
    }
  } else {
    // Generic passthrough: remote <project> <op> [key=value ...]
    if (args.size() < 3)
      return util::invalid("remote <project> <op> [key=value ...]");
    project = sub;
    op = args[2];
    if (op == "query" || op == "explain") {
      // Statements contain spaces; take the rest of the line verbatim.
      if (args.size() < 4)
        return util::invalid("remote <project> " + op + " <statement>");
      call_args.set("statement", util::Json(join_from(args, 3)));
    } else {
      auto st = parse_kv(args, 3, call_args);
      if (!st.ok()) return st.error();
    }
  }

  auto result = remote_->invoke(project, op, std::move(call_args));
  if (!result.ok()) {
    // A transport error means the connection is gone; drop it so the next
    // command fails with "not connected" instead of writing to a dead fd.
    if (result.error().code == util::Error::Code::kUnbound) remote_.reset();
    return result.error();
  }
  return result.value().dump(2) + "\n";
}

}  // namespace herc::cli
