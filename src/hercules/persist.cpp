#include "hercules/persist.hpp"

#include <charconv>
#include <limits>
#include <map>

#include "hercules/journal.hpp"
#include "hercules/persist_detail.hpp"
#include "util/crc32c.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace herc::hercules {

using util::Json;
using util::JsonArray;
using util::JsonObject;

namespace {

Json instant_json(cal::WorkInstant t) { return Json(t.minutes_since_epoch()); }

Json optional_instant_json(const std::optional<cal::WorkInstant>& t) {
  if (!t) return Json(nullptr);
  return instant_json(*t);
}

cal::WorkInstant instant_of(const Json& j) { return cal::WorkInstant(j.as_int()); }

std::optional<cal::WorkInstant> optional_instant_of(const Json& j) {
  if (j.is_null()) return std::nullopt;
  return instant_of(j);
}

constexpr std::string_view kFormat = "hercsched-db-v2";

/// A configured duration (estimate, backoff, timeout): whole minutes, never
/// negative.
util::Result<cal::WorkDuration> config_minutes(const Json& j, const std::string& what) {
  if (j.as_int() < 0) return util::invalid(what + ": negative duration");
  return cal::WorkDuration::minutes(j.as_int());
}

Json retry_json(const exec::RetryPolicy& policy) {
  JsonObject o;
  o.set("max_attempts", policy.max_attempts);
  o.set("backoff", policy.backoff.count_minutes());
  o.set("timeout", policy.timeout.count_minutes());
  return Json(std::move(o));
}

util::Result<exec::RetryPolicy> retry_of(const Json& j, const std::string& what) {
  const JsonObject& o = j.as_object();
  const std::int64_t attempts = o.at("max_attempts").as_int();
  if (attempts < 1 || attempts > std::numeric_limits<int>::max())
    return util::invalid(what + ": max_attempts must be at least 1");
  auto backoff = config_minutes(o.at("backoff"), what);
  if (!backoff.ok()) return backoff.error();
  auto timeout = config_minutes(o.at("timeout"), what);
  if (!timeout.ok()) return timeout.error();
  return exec::RetryPolicy{.max_attempts = static_cast<int>(attempts),
                           .backoff = backoff.value(),
                           .timeout = timeout.value()};
}

}  // namespace

/// Friend of WorkflowManager; does the actual field-level work.
class Persistence {
 public:
  static std::string save(const WorkflowManager& m) {
    JsonObject root;
    root.set("format", std::string(kFormat));
    root.set("schema_dsl", m.schema_->to_dsl());

    // Calendar.
    {
      const auto& cfg = m.calendar_.config();
      JsonObject cal;
      cal.set("epoch", cfg.epoch.str());
      cal.set("minutes_per_day", cfg.minutes_per_day);
      cal.set("day_start_minute", cfg.day_start_minute);
      JsonArray week;
      for (bool w : cfg.workweek) week.emplace_back(w);
      cal.set("workweek", std::move(week));
      JsonArray holidays;
      for (cal::Date d : m.calendar_.holidays()) holidays.emplace_back(d.str());
      cal.set("holidays", std::move(holidays));
      root.set("calendar", std::move(cal));
    }

    root.set("clock", m.clock_.now().minutes_since_epoch());

    // Resources.
    {
      JsonArray arr;
      for (const auto& r : m.db_->resources()) {
        JsonObject o;
        o.set("name", r.name);
        o.set("kind", r.kind);
        o.set("capacity", r.capacity);
        JsonArray off;
        for (auto [from, to] : r.time_off) {
          JsonArray window;
          window.push_back(instant_json(from));
          window.push_back(instant_json(to));
          off.emplace_back(std::move(window));
        }
        o.set("time_off", std::move(off));
        arr.emplace_back(std::move(o));
      }
      root.set("resources", std::move(arr));
    }

    save_config(m, root);

    // Level 4.
    {
      JsonArray arr;
      for (const auto& d : m.store_->all()) arr.push_back(detail::data_object_json(d));
      root.set("data_objects", std::move(arr));
    }

    // Level 3, execution space.
    {
      JsonArray arr;
      for (const auto& e : m.db_->instances()) arr.push_back(detail::instance_json(e));
      root.set("instances", std::move(arr));
    }
    {
      JsonArray arr;
      for (const auto& r : m.db_->runs()) arr.push_back(detail::run_json(r));
      root.set("runs", std::move(arr));
    }

    // Level 3, schedule space.
    {
      JsonArray arr;
      for (const auto& p : m.space_->plans()) {
        JsonObject o;
        o.set("id", p.id.value());
        o.set("name", p.name);
        o.set("created", instant_json(p.created_at));
        o.set("anchor", instant_json(p.anchor));
        o.set("deadline", optional_instant_json(p.deadline));
        o.set("derived_from",
              p.derived_from.valid() ? Json(p.derived_from.value()) : Json(nullptr));
        o.set("status", std::string(p.status == sched::PlanStatus::kActive
                                        ? "active"
                                        : "superseded"));
        JsonArray deps;
        for (const auto& d : p.deps) {
          JsonArray pair;
          pair.emplace_back(d.from.value());
          pair.emplace_back(d.to.value());
          deps.emplace_back(std::move(pair));
        }
        o.set("deps", std::move(deps));
        arr.emplace_back(std::move(o));
      }
      root.set("plans", std::move(arr));
    }
    {
      JsonArray arr;
      for (std::size_t i = 1; i <= m.space_->node_count(); ++i) {
        const auto& n = m.space_->node(sched::ScheduleNodeId{i});
        JsonObject o;
        o.set("id", n.id.value());
        o.set("plan", n.plan.value());
        o.set("activity", n.activity);
        o.set("version", n.version);
        o.set("est_duration", n.est_duration.count_minutes());
        o.set("planned_start", instant_json(n.planned_start));
        o.set("planned_finish", instant_json(n.planned_finish));
        o.set("baseline_start", instant_json(n.baseline_start));
        o.set("baseline_finish", instant_json(n.baseline_finish));
        JsonArray res;
        for (auto r : n.resources) res.emplace_back(r.value());
        o.set("resources", std::move(res));
        o.set("total_slack", n.total_slack.count_minutes());
        o.set("free_slack", n.free_slack.count_minutes());
        o.set("critical", n.critical);
        o.set("actual_start", optional_instant_json(n.actual_start));
        o.set("actual_finish", optional_instant_json(n.actual_finish));
        o.set("completed", n.completed);
        o.set("deleted", n.deleted);
        arr.emplace_back(std::move(o));
      }
      root.set("schedule_nodes", std::move(arr));
    }
    {
      JsonArray arr;
      for (const auto& l : m.space_->links()) {
        JsonObject o;
        o.set("id", l.id.value());
        o.set("node", l.schedule_node.value());
        o.set("instance", l.entity_instance.value());
        o.set("linked_at", instant_json(l.linked_at));
        arr.emplace_back(std::move(o));
      }
      root.set("links", std::move(arr));
    }

    // Task trees: re-extraction is deterministic, so target + stop set +
    // per-node bindings fully reconstruct them.
    {
      JsonArray arr;
      for (const auto& [name, tree] : m.tasks_) {
        JsonObject o;
        o.set("name", name);
        o.set("target", tree.schema().type(tree.node(tree.root()).type).name);
        JsonArray stops;
        for (const auto& node : tree.nodes()) {
          if (node.kind == flow::NodeKind::kDataLeaf &&
              tree.schema().producer_of(node.type))
            stops.emplace_back(tree.schema().type(node.type).name);
        }
        o.set("stop_at", std::move(stops));
        JsonArray bindings;
        for (const auto& node : tree.nodes()) {
          if (node.kind != flow::NodeKind::kActivity && !node.binding.empty()) {
            JsonObject b;
            b.set("node", node.id.value());
            b.set("instance", node.binding);
            bindings.emplace_back(std::move(b));
          }
        }
        o.set("bindings", std::move(bindings));
        if (auto it = m.plan_by_task_.find(name); it != m.plan_by_task_.end())
          o.set("plan", it->second.value());
        else
          o.set("plan", nullptr);
        arr.emplace_back(std::move(o));
      }
      root.set("tasks", std::move(arr));
    }

    // The plan the tracker watches.
    root.set("watched_plan", m.tracker_->watched_plan()
                                 ? Json(m.tracker_->watched_plan()->value())
                                 : Json(nullptr));

    return Json(std::move(root)).dump(2) + "\n";
  }

  /// The project's configuration: the tool registry in registration order,
  /// the estimator (intuitions sorted by activity) and the execution
  /// options (per-tool retry sorted by instance).
  static void save_config(const WorkflowManager& m, JsonObject& root) {
    JsonArray tools;
    for (const auto& name : m.tools_->instances()) {
      const exec::ToolSpec& spec = m.tools_->spec(name);
      JsonObject o;
      o.set("instance", spec.instance_name);
      o.set("type", spec.tool_type);
      o.set("nominal", spec.nominal.count_minutes());
      o.set("noise_frac", spec.noise_frac);
      o.set("fail_rate", spec.fail_rate);
      tools.emplace_back(std::move(o));
    }
    root.set("tools", std::move(tools));

    JsonObject estimator;
    estimator.set("fallback", m.estimator_.fallback().count_minutes());
    JsonObject intuitions;
    for (const auto& [activity, d] :
         std::map(m.estimator_.intuitions().begin(), m.estimator_.intuitions().end()))
      intuitions.set(activity, d.count_minutes());
    estimator.set("intuitions", std::move(intuitions));
    root.set("estimator", std::move(estimator));

    const exec::ExecutionOptions& opts = m.exec_options_;
    JsonObject exec_o;
    exec_o.set("on_failure", exec::failure_policy_name(opts.on_failure));
    exec_o.set("retry", retry_json(opts.retry));
    JsonObject tool_retry;
    for (const auto& [instance, policy] :
         std::map(opts.tool_retry.begin(), opts.tool_retry.end()))
      tool_retry.set(instance, retry_json(policy));
    exec_o.set("tool_retry", std::move(tool_retry));
    root.set("exec_options", std::move(exec_o));
  }

  /// Restores save_config's sections.  Tools go through register_tool, so a
  /// spec registration refuses is refused here too.  The saved estimator
  /// replaces the one create() seeded from the schema's [est] attributes.
  static util::Status load_config(const JsonObject& root, WorkflowManager& m) {
    for (const auto& t : root.at("tools").as_array()) {
      const auto& o = t.as_object();
      auto st = m.register_tool(
          {.instance_name = o.at("instance").as_string(),
           .tool_type = o.at("type").as_string(),
           .nominal = cal::WorkDuration::minutes(o.at("nominal").as_int()),
           .noise_frac = o.at("noise_frac").as_double(),
           .fail_rate = o.at("fail_rate").as_double()});
      if (!st.ok()) return st;
    }

    const JsonObject& est_o = root.at("estimator").as_object();
    auto fallback = config_minutes(est_o.at("fallback"), "estimator fallback");
    if (!fallback.ok()) return fallback.error();
    sched::DurationEstimator estimator(fallback.value());
    for (const auto& [activity, minutes] : est_o.at("intuitions").as_object()) {
      auto d = config_minutes(minutes, "estimate for '" + activity + "'");
      if (!d.ok()) return d.error();
      estimator.set_intuition(activity, d.value());
    }
    m.estimator_ = std::move(estimator);

    const JsonObject& exec_o = root.at("exec_options").as_object();
    exec::ExecutionOptions opts;
    auto policy = exec::parse_failure_policy(exec_o.at("on_failure").as_string());
    if (!policy.ok()) return policy.error();
    opts.on_failure = policy.value();
    auto retry = retry_of(exec_o.at("retry"), "retry");
    if (!retry.ok()) return retry.error();
    opts.retry = retry.value();
    for (const auto& [instance, rj] : exec_o.at("tool_retry").as_object()) {
      auto per_tool = retry_of(rj, "retry for '" + instance + "'");
      if (!per_tool.ok()) return per_tool.error();
      opts.tool_retry.emplace(instance, per_tool.value());
    }
    m.set_exec_options(std::move(opts));
    return util::Status::ok_status();
  }

  static util::Result<std::unique_ptr<WorkflowManager>> load(std::string_view text) {
    auto parsed = Json::parse(text);
    if (!parsed.ok()) return parsed.error();
    const Json& root_json = parsed.value();
    if (!root_json.is_object()) return util::parse_error("database file: not an object");
    const JsonObject& root = root_json.as_object();

    try {
      if (root.at("format").as_string() != kFormat)
        return util::invalid("unknown database format '" +
                             root.at("format").as_string() + "'");

      // Calendar config first; the manager is built with it.
      const JsonObject& cal_o = root.at("calendar").as_object();
      cal::WorkCalendar::Config cfg;
      auto epoch = cal::Date::parse(cal_o.at("epoch").as_string());
      if (!epoch.ok()) return epoch.error();
      cfg.epoch = epoch.value();
      cfg.minutes_per_day = cal_o.at("minutes_per_day").as_int();
      cfg.day_start_minute = static_cast<int>(cal_o.at("day_start_minute").as_int());
      const auto& week = cal_o.at("workweek").as_array();
      if (week.size() != 7) return util::invalid("workweek must have 7 entries");
      for (int i = 0; i < 7; ++i) cfg.workweek[i] = week[static_cast<std::size_t>(i)].as_bool();

      auto created = WorkflowManager::create(root.at("schema_dsl").as_string(), cfg);
      if (!created.ok()) return created.error();
      std::unique_ptr<WorkflowManager> m = std::move(created).take();

      for (const auto& h : cal_o.at("holidays").as_array()) {
        auto d = cal::Date::parse(h.as_string());
        if (!d.ok()) return d.error();
        m->calendar_.add_holiday(d.value());
      }

      m->clock_.advance_to(cal::WorkInstant(root.at("clock").as_int()));

      for (const auto& r : root.at("resources").as_array()) {
        const auto& o = r.as_object();
        const std::int64_t capacity = o.at("capacity").as_int();
        if (capacity < 1 || capacity > std::numeric_limits<int>::max())
          return util::invalid("resource capacity " + std::to_string(capacity) +
                               " is outside 1.." +
                               std::to_string(std::numeric_limits<int>::max()));
        auto rid = m->db_->add_resource(o.at("name").as_string(),
                                        o.at("kind").as_string(),
                                        static_cast<int>(capacity));
        for (const auto& w : o.at("time_off").as_array()) {
          const auto& window = w.as_array();
          if (window.size() != 2)
            return util::parse_error("resource time_off window must have 2 entries");
          auto st = m->db_->add_time_off(rid, instant_of(window[0]),
                                         instant_of(window[1]));
          if (!st.ok()) return st.error();
        }
      }

      if (auto st = load_config(root, *m); !st.ok()) return st.error();

      for (const auto& d : root.at("data_objects").as_array()) {
        auto st = detail::restore_data_object(*m->store_, d.as_object());
        if (!st.ok()) return st.error();
      }

      for (const auto& e : root.at("instances").as_array()) {
        auto st = detail::restore_instance(*m->db_, e.as_object());
        if (!st.ok()) return st.error();
      }

      for (const auto& r : root.at("runs").as_array()) {
        auto st = detail::restore_run(*m->db_, *m->schema_, r.as_object());
        if (!st.ok()) return st.error();
      }

      for (const auto& p : root.at("plans").as_array()) {
        const auto& o = p.as_object();
        sched::ScheduleRunId derived;
        if (!o.at("derived_from").is_null())
          derived = sched::ScheduleRunId{
              static_cast<std::uint64_t>(o.at("derived_from").as_int())};
        auto pid = m->space_->create_plan(o.at("name").as_string(),
                                          instant_of(o.at("created")), derived);
        if (pid.value() != static_cast<std::uint64_t>(o.at("id").as_int()))
          return util::conflict("plan did not restore to the same id");
        auto& plan = m->space_->plan_mut(pid);
        plan.anchor = instant_of(o.at("anchor"));
        plan.deadline = optional_instant_of(o.at("deadline"));
        const std::string& status = o.at("status").as_string();
        if (status != "active" && status != "superseded")
          return util::parse_error("unknown plan status '" + status + "'");
        plan.status = status == "active" ? sched::PlanStatus::kActive
                                         : sched::PlanStatus::kSuperseded;
      }

      for (const auto& nj : root.at("schedule_nodes").as_array()) {
        const auto& o = nj.as_object();
        auto plan_id =
            sched::ScheduleRunId{static_cast<std::uint64_t>(o.at("plan").as_int())};
        const std::string activity = o.at("activity").as_string();
        auto rule = m->schema_->find_rule_by_activity(activity);
        if (!rule) return util::not_found("schedule node references unknown activity '" +
                                          activity + "'");
        auto nid = m->space_->create_node(plan_id, activity, *rule);
        auto& n = m->space_->node_mut(nid);
        if (n.id.value() != static_cast<std::uint64_t>(o.at("id").as_int()) ||
            n.version != static_cast<int>(o.at("version").as_int()))
          return util::conflict("schedule node did not restore to the same id/version");
        n.est_duration = cal::WorkDuration::minutes(o.at("est_duration").as_int());
        n.planned_start = instant_of(o.at("planned_start"));
        n.planned_finish = instant_of(o.at("planned_finish"));
        n.baseline_start = instant_of(o.at("baseline_start"));
        n.baseline_finish = instant_of(o.at("baseline_finish"));
        for (const auto& r : o.at("resources").as_array())
          n.resources.push_back(
              util::ResourceId{static_cast<std::uint64_t>(r.as_int())});
        n.total_slack = cal::WorkDuration::minutes(o.at("total_slack").as_int());
        n.free_slack = cal::WorkDuration::minutes(o.at("free_slack").as_int());
        n.critical = o.at("critical").as_bool();
        n.actual_start = optional_instant_of(o.at("actual_start"));
        n.actual_finish = optional_instant_of(o.at("actual_finish"));
        n.completed = o.at("completed").as_bool();
        n.deleted = o.at("deleted").as_bool();
      }

      // Plan deps reference node ids, so wire them after nodes exist.
      for (const auto& p : root.at("plans").as_array()) {
        const auto& o = p.as_object();
        auto pid = sched::ScheduleRunId{static_cast<std::uint64_t>(o.at("id").as_int())};
        for (const auto& d : o.at("deps").as_array()) {
          const auto& pair = d.as_array();
          if (pair.size() != 2)
            return util::parse_error("plan dep must have 2 entries");
          m->space_->add_dep(
              pid, sched::ScheduleNodeId{static_cast<std::uint64_t>(pair[0].as_int())},
              sched::ScheduleNodeId{static_cast<std::uint64_t>(pair[1].as_int())});
        }
      }

      for (const auto& lj : root.at("links").as_array()) {
        const auto& o = lj.as_object();
        auto lid = m->space_->add_link(
            sched::ScheduleNodeId{static_cast<std::uint64_t>(o.at("node").as_int())},
            meta::EntityInstanceId{static_cast<std::uint64_t>(o.at("instance").as_int())},
            instant_of(o.at("linked_at")));
        if (!lid.ok()) return lid.error();
        if (lid.value().value() != static_cast<std::uint64_t>(o.at("id").as_int()))
          return util::conflict("link did not restore to the same id");
      }

      for (const auto& tj : root.at("tasks").as_array()) {
        const auto& o = tj.as_object();
        const std::string name = o.at("name").as_string();
        std::unordered_set<std::string> stops;
        for (const auto& s : o.at("stop_at").as_array()) stops.insert(s.as_string());
        auto st = m->extract_task(name, o.at("target").as_string(), stops);
        if (!st.ok()) return st.error();
        auto tree = m->task(name);
        for (const auto& bj : o.at("bindings").as_array()) {
          const auto& b = bj.as_object();
          auto bound = tree.value()->bind(
              flow::TaskNodeId{static_cast<std::uint64_t>(b.at("node").as_int())},
              b.at("instance").as_string());
          if (!bound.ok()) return bound.error();
        }
        if (!o.at("plan").is_null())
          m->plan_by_task_[name] = sched::ScheduleRunId{
              static_cast<std::uint64_t>(o.at("plan").as_int())};
      }

      if (!root.at("watched_plan").is_null())
        m->tracker_->watch_plan(sched::ScheduleRunId{
            static_cast<std::uint64_t>(root.at("watched_plan").as_int())});

      return m;
    } catch (const std::out_of_range& e) {
      return util::parse_error(std::string("database file: missing field: ") + e.what());
    } catch (const std::bad_variant_access&) {
      return util::parse_error("database file: field has wrong JSON type");
    }
  }
};

std::string save_to_json(const WorkflowManager& manager) {
  return Persistence::save(manager);
}

namespace {
constexpr std::string_view kFooterMagic = "#herc-snapshot-crc32c ";
}  // namespace

std::string append_snapshot_footer(std::string text) {
  char crc_hex[8];
  util::crc32c_to_hex(util::crc32c(text), crc_hex);
  const std::string body_size = std::to_string(text.size());
  text.append(kFooterMagic);
  text.append(crc_hex, 8);
  text.push_back(' ');
  text.append(body_size);
  text.push_back('\n');
  return text;
}

util::Result<std::string_view> strip_snapshot_footer(std::string_view text,
                                                     RecoveryStats* stats) {
  // The footer is the final line; save_to_json bodies end in '\n', so search
  // back from the character before the trailing newline (if any).
  std::string_view trimmed = text;
  if (!trimmed.empty() && trimmed.back() == '\n') trimmed.remove_suffix(1);
  std::size_t nl = trimmed.find_last_of('\n');
  std::string_view last_line =
      nl == std::string_view::npos ? trimmed : trimmed.substr(nl + 1);
  if (last_line.substr(0, kFooterMagic.size()) != kFooterMagic)
    return text;  // pre-footer snapshot
  if (stats != nullptr) stats->snapshot_footer = true;

  auto corrupt = [&](const char* what) -> util::Error {
    if (stats != nullptr) {
      stats->snapshot_corrupt = true;
      stats->detail = std::string("snapshot: ") + what;
    }
    return util::parse_error(std::string("snapshot footer: ") + what);
  };

  std::string_view fields = last_line.substr(kFooterMagic.size());
  if (fields.size() < 10 || fields[8] != ' ')
    return corrupt("malformed checksum footer");
  bool crc_ok = false;
  const std::uint32_t stored = util::crc32c_from_hex(fields.substr(0, 8), &crc_ok);
  if (!crc_ok) return corrupt("malformed checksum footer");
  std::uint64_t declared = 0;
  const char* end = fields.data() + fields.size();
  auto [next, ec] = std::from_chars(fields.data() + 9, end, declared);
  if (ec != std::errc{} || next != end)
    return corrupt("malformed checksum footer");

  std::string_view body = text.substr(0, nl == std::string_view::npos ? 0 : nl + 1);
  if (body.size() != declared)
    return corrupt("body length does not match footer");
  if (util::crc32c(body) != stored)
    return corrupt("checksum mismatch (snapshot damaged on disk)");
  return body;
}

util::Status save_project_file(WorkflowManager& manager, const std::string& path,
                               bool durable) {
  auto st = util::write_file_atomic(
      path, append_snapshot_footer(save_to_json(manager)), durable);
  if (!st.ok()) return st;
  // The snapshot now covers everything the journal held; restart it so
  // recovery replays only runs recorded after this save.
  if (manager.journal()) return manager.journal()->restart();
  return util::Status::ok_status();
}

util::Result<std::unique_ptr<WorkflowManager>> load_from_json(std::string_view text,
                                                              RecoveryStats* stats) {
  auto body = strip_snapshot_footer(text, stats);
  if (!body.ok()) return body.error();
  return Persistence::load(body.value());
}

}  // namespace herc::hercules
