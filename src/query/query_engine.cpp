// Evaluation of parsed queries against the database + schedule space.
//
// Execution pipeline (see query_plan.hpp for the moving parts):
//   canonical text -> result-cache probe -> compile predicate -> plan access
//   path (index seek vs full scan) -> residual filter -> aggregate/order/
//   limit -> cache fill.  Every path produces byte-identical results; the
//   fast path only changes how few rows are touched.

#include <algorithm>
#include <charconv>
#include <map>
#include <numeric>
#include <string_view>

#include "query/query.hpp"
#include "query/query_plan.hpp"
#include "util/strings.hpp"

namespace herc::query {

namespace {

/// Appends the text value_str gives for `v`.
void append_value(std::string& out, const Value& v) {
  if (std::holds_alternative<std::monostate>(v)) {
    out += '-';
  } else if (const auto* n = std::get_if<std::int64_t>(&v)) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, *n).ptr);
  } else if (const auto* b = std::get_if<bool>(&v)) {
    out += *b ? "true" : "false";
  } else {
    out += std::get<std::string>(v);
  }
}

/// True if the column holds a work instant (formatted as a date on render).
bool is_time_column(const std::string& name) {
  return name == "started" || name == "finished" || name == "created" ||
         name == "linked_at" || util::ends_with(name, "_start") ||
         util::ends_with(name, "_finish");
}

}  // namespace

std::string value_str(const Value& v) {
  std::string out;
  append_value(out, v);
  return out;
}

int compare_values(const Value& a, const Value& b) {
  if (a.index() != b.index())
    return a.index() < b.index() ? -1 : 1;  // null < int < bool < string
  if (std::holds_alternative<std::monostate>(a)) return 0;
  if (std::holds_alternative<std::int64_t>(a)) {
    auto x = std::get<std::int64_t>(a), y = std::get<std::int64_t>(b);
    return x < y ? -1 : x > y ? 1 : 0;
  }
  if (std::holds_alternative<bool>(a)) {
    int x = std::get<bool>(a), y = std::get<bool>(b);
    return x - y;
  }
  const auto& x = std::get<std::string>(a);
  const auto& y = std::get<std::string>(b);
  return x < y ? -1 : x > y ? 1 : 0;
}

std::vector<std::string> QueryEngine::columns_for(Target t) {
  switch (t) {
    case Target::kRuns:
      return {"id",      "activity", "tool",     "designer", "status",
              "started", "finished", "duration", "output"};
    case Target::kInstances:
      return {"id", "type", "name", "version", "created", "produced_by"};
    case Target::kSchedule:
      return {"id",           "activity",       "plan",          "version",
              "est_duration", "planned_start",  "planned_finish", "baseline_start",
              "baseline_finish", "slack",       "critical",      "completed",
              "actual_start", "actual_finish",  "linked"};
    case Target::kPlans:
      return {"id", "name", "created", "derived_from", "status", "activities"};
    case Target::kLinks:
      return {"id", "node", "activity", "instance", "linked_at"};
  }
  return {};
}

QueryEngine::QueryEngine(const meta::Database& db, const sched::ScheduleSpace& space,
                         obs::EventBus* bus)
    : db_(&db), space_(&space), bus_(bus), cache_(std::make_unique<QueryCache>()) {}

QueryEngine::~QueryEngine() = default;

EngineStats QueryEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void QueryEngine::clear_cache() const {
  std::lock_guard<std::mutex> lock(mu_);
  cache_->clear();
}

/// Per-execution bookkeeping run() reports back to execute()/explain().
struct QueryEngine::ExecInfo {
  std::uint64_t rows_scanned = 0;
  bool index_seek = false;
  std::string seek_column, seek_key;
  std::size_t candidates = 0;
  std::size_t total_rows = 0;
  std::size_t leaf_count = 0;
};

util::Result<QueryResult> QueryEngine::run(const Query& q, ExecInfo& info,
                                           const meta::Database& db,
                                           const sched::ScheduleSpace& space) const {
  QueryResult result;
  result.columns = columns_for(q.target);
  const std::size_t ncols = result.columns.size();

  auto col_index = [&](const std::string& name) -> std::optional<std::size_t> {
    for (std::size_t i = 0; i < ncols; ++i)
      if (result.columns[i] == name) return i;
    return std::nullopt;
  };

  auto src = make_row_source(q.target, db, space);

  // Validate + compile the filter once (unknown fields error exactly like
  // the seed engine, first offender in depth-first order).
  auto compiled = compile_predicate(q.where.get(), q.target, result.columns, *src);
  if (!compiled.ok()) return compiled.error();
  const CompiledPredicate& pred = compiled.value();

  std::optional<std::size_t> order_col;
  if (q.order_by) {
    order_col = col_index(*q.order_by);
    if (!order_col)
      return util::not_found("query: target '" + std::string(target_name(q.target)) +
                             "' has no field '" + *q.order_by + "'");
  }
  std::optional<std::size_t> agg_col;
  if (q.aggregate && q.aggregate->fn != AggregateFn::kCount) {
    agg_col = col_index(q.aggregate->field);
    if (!agg_col)
      return util::not_found("query: target '" + std::string(target_name(q.target)) +
                             "' has no field '" + q.aggregate->field + "'");
  }
  std::optional<std::size_t> group_col;
  if (q.group_by) {
    group_col = col_index(*q.group_by);
    if (!group_col)
      return util::not_found("query: target '" + std::string(target_name(q.target)) +
                             "' has no field '" + *q.group_by + "'");
  }

  info.total_rows = src->count();
  info.leaf_count = pred.leaf_count();

  // Access path: index seek + residual filter when a conjunctive equality
  // leaf hits a secondary index; full scan otherwise.  Candidate rows are
  // ascending, so both paths emit rows in the same (id) order.
  AccessPath path;
  if (options_.use_index && q.where) path = plan_access(*q.where, q.target, db, space);

  std::vector<std::vector<Value>> kept;
  std::vector<char> scratch;
  auto emit = [&](std::size_t row) {
    std::vector<Value> cells;
    cells.reserve(ncols);
    for (std::size_t c = 0; c < ncols; ++c) cells.push_back(src->cell(row, c));
    kept.push_back(std::move(cells));
  };
  if (path.index) {
    info.index_seek = true;
    info.seek_column = path.column;
    info.seek_key = path.key;
    info.candidates = path.rows.size();
    for (std::size_t row : path.rows) {
      ++info.rows_scanned;
      if (pred.eval(*src, row, scratch)) emit(row);
    }
  } else {
    const std::size_t n = src->count();
    for (std::size_t row = 0; row < n; ++row) {
      ++info.rows_scanned;
      if (pred.eval(*src, row, scratch)) emit(row);
    }
  }

  // Aggregate: reduce to one row (or one per group).
  if (q.aggregate) {
    struct Acc {
      std::int64_t count = 0;
      std::int64_t sum = 0;
      std::optional<std::int64_t> min, max;
      std::int64_t numeric = 0;  // cells that participated
    };
    // std::map keeps groups sorted by value for deterministic output.
    std::map<std::string, Acc> groups;
    std::map<std::string, Value> group_values;
    for (const auto& row : kept) {
      Value key_value = group_col ? row[*group_col] : Value{std::monostate{}};
      std::string key = group_col ? value_str(key_value) : "";
      Acc& acc = groups[key];
      group_values.emplace(key, key_value);
      ++acc.count;
      if (agg_col && std::holds_alternative<std::int64_t>(row[*agg_col])) {
        std::int64_t v = std::get<std::int64_t>(row[*agg_col]);
        acc.sum += v;
        acc.min = acc.min ? std::min(*acc.min, v) : v;
        acc.max = acc.max ? std::max(*acc.max, v) : v;
        ++acc.numeric;
      }
    }
    if (groups.empty() && !group_col) groups[""];  // empty input: one row

    QueryResult agg_result;
    std::string agg_name = aggregate_fn_name(q.aggregate->fn);
    if (q.aggregate->fn != AggregateFn::kCount)
      agg_name += "(" + q.aggregate->field + ")";
    if (group_col) agg_result.columns.push_back(*q.group_by);
    agg_result.columns.push_back(agg_name);

    for (const auto& [key, acc] : groups) {
      std::vector<Value> row;
      if (group_col) row.push_back(group_values.at(key));
      switch (q.aggregate->fn) {
        case AggregateFn::kCount: row.emplace_back(acc.count); break;
        case AggregateFn::kSum: row.emplace_back(acc.sum); break;
        case AggregateFn::kAvg:
          row.push_back(acc.numeric ? Value{acc.sum / acc.numeric}
                                    : Value{std::monostate{}});
          break;
        case AggregateFn::kMin:
          row.push_back(acc.min ? Value{*acc.min} : Value{std::monostate{}});
          break;
        case AggregateFn::kMax:
          row.push_back(acc.max ? Value{*acc.max} : Value{std::monostate{}});
          break;
      }
      agg_result.rows.push_back(std::move(row));
    }
    if (q.limit && agg_result.rows.size() > static_cast<std::size_t>(*q.limit))
      agg_result.rows.resize(static_cast<std::size_t>(*q.limit));
    return agg_result;
  }

  // Order (stable so ties keep id order).
  if (order_col) {
    std::stable_sort(kept.begin(), kept.end(),
                     [&](const std::vector<Value>& a, const std::vector<Value>& b) {
                       int cmp = compare_values(a[*order_col], b[*order_col]);
                       return q.descending ? cmp > 0 : cmp < 0;
                     });
  }

  if (q.limit && kept.size() > static_cast<std::size_t>(*q.limit))
    kept.resize(static_cast<std::size_t>(*q.limit));

  result.rows = std::move(kept);
  return result;
}

util::Result<QueryResult> QueryEngine::execute(const Query& q) const {
  return execute(q, *db_, *space_);
}

util::Result<QueryResult> QueryEngine::execute(
    const Query& q, const meta::Database& db,
    const sched::ScheduleSpace& space) const {
  const bool observed = obs::on(bus_);
  const std::int64_t t0 = observed ? obs::EventBus::wall_now_ns() : 0;
  const std::string key = q.str();
  const VersionStamp stamp = target_stamp(q.target, db, space);

  bool cache_hit = false;
  ExecInfo info;
  util::Result<QueryResult> result = util::Result<QueryResult>(QueryResult{});
  if (options_.use_cache) {
    std::lock_guard<std::mutex> lock(mu_);
    const QueryResult* hit = cache_->find(key, stamp, options_.validate_cache);
    if (hit) {
      cache_hit = true;
      ++stats_.cache_hits;
      result = *hit;
    } else {
      ++stats_.cache_misses;
    }
  }
  if (!cache_hit) {
    result = run(q, info, db, space);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.rows_scanned += info.rows_scanned;
    if (info.index_seek) ++stats_.index_seeks;
    if (result.ok() && options_.use_cache)
      cache_->put(key, stamp, result.value());
  }

  if (observed) {
    obs::Event e;
    e.kind = obs::EventKind::kQueryExecuted;
    e.name = key;
    e.category = "query";
    e.duration_ns = obs::EventBus::wall_now_ns() - t0;
    e.failed = !result.ok();
    if (result.ok())
      e.args = {{"rows", std::to_string(result.value().rows.size())}};
    else
      e.args = {{"error", result.error().message}};
    e.args.emplace_back("rows_scanned", std::to_string(info.rows_scanned));
    e.args.emplace_back("index_seeks", info.index_seek ? "1" : "0");
    if (options_.use_cache) {
      e.args.emplace_back("cache_hits", cache_hit ? "1" : "0");
      e.args.emplace_back("cache_misses", cache_hit ? "0" : "1");
    }
    bus_->publish(std::move(e));
  }
  return result;
}

util::Result<QueryResult> QueryEngine::execute(std::string_view text) const {
  return execute(text, *db_, *space_);
}

util::Result<QueryResult> QueryEngine::execute(
    std::string_view text, const meta::Database& db,
    const sched::ScheduleSpace& space) const {
  auto q = parse_query(text);
  if (!q.ok()) {
    if (obs::on(bus_)) {
      obs::Event e;
      e.kind = obs::EventKind::kQueryExecuted;
      e.name = std::string(text);
      e.category = "query";
      e.failed = true;
      e.args = {{"error", q.error().message}};
      bus_->publish(std::move(e));
    }
    return q.error();
  }
  return execute(q.value(), db, space);
}

util::Result<std::string> QueryEngine::explain(const Query& q) const {
  return explain(q, *db_, *space_);
}

util::Result<std::string> QueryEngine::explain(
    const Query& q, const meta::Database& db,
    const sched::ScheduleSpace& space) const {
  const std::vector<std::string> columns = columns_for(q.target);
  auto src = make_row_source(q.target, db, space);
  auto compiled = compile_predicate(q.where.get(), q.target, columns, *src);
  if (!compiled.ok()) return compiled.error();

  // Validate the non-filter fields exactly like run() would.
  auto col_index = [&](const std::string& name) -> bool {
    return std::find(columns.begin(), columns.end(), name) != columns.end();
  };
  for (const std::string* field :
       {q.order_by ? &*q.order_by : nullptr,
        q.aggregate && q.aggregate->fn != AggregateFn::kCount ? &q.aggregate->field
                                                              : nullptr,
        q.group_by ? &*q.group_by : nullptr}) {
    if (field && !col_index(*field))
      return util::not_found("query: target '" + std::string(target_name(q.target)) +
                             "' has no field '" + *field + "'");
  }

  AccessPath path;
  if (options_.use_index && q.where) path = plan_access(*q.where, q.target, db, space);

  const std::string key = q.str();
  const std::size_t total = src->count();
  const std::size_t leaves = compiled.value().leaf_count();

  std::string out = "query:  " + key + "\n";
  if (path.index) {
    out += "access: index seek " + std::string(target_name(q.target)) + "." +
           path.column + " = \"" + path.key + "\" (" +
           std::to_string(path.rows.size()) + " of " + std::to_string(total) +
           " rows), residual filter on " + std::to_string(leaves - 1) +
           " condition(s)\n";
  } else {
    out += "access: full scan (" + std::to_string(total) + " rows), filter on " +
           std::to_string(leaves) + " condition(s)\n";
  }
  if (!options_.use_cache) {
    out += "cache:  disabled\n";
  } else {
    const VersionStamp stamp = target_stamp(q.target, db, space);
    std::lock_guard<std::mutex> lock(mu_);
    const bool hit = cache_->find(key, stamp, options_.validate_cache) != nullptr;
    out += hit ? "cache:  hit\n" : "cache:  cold\n";
  }
  return out;
}

util::Result<std::string> QueryEngine::explain(std::string_view text) const {
  return explain(text, *db_, *space_);
}

util::Result<std::string> QueryEngine::explain(
    std::string_view text, const meta::Database& db,
    const sched::ScheduleSpace& space) const {
  auto q = parse_query(text);
  if (!q.ok()) return q.error();
  return explain(q.value(), db, space);
}

QueryResult QueryEngine::plan_lineage(sched::ScheduleRunId plan) const {
  QueryResult result;
  result.columns = {"generation", "id", "name", "created", "status"};
  auto ids = space_->lineage(plan);
  std::int64_t gen = 0;
  for (sched::ScheduleRunId id : ids) {
    const auto& p = space_->plan(id);
    result.rows.push_back(
        {gen++, static_cast<std::int64_t>(p.id.value()), p.name,
         p.created_at.minutes_since_epoch(),
         std::string(p.status == sched::PlanStatus::kActive ? "active" : "superseded")});
  }
  return result;
}

std::string QueryResult::render(const cal::WorkCalendar* calendar) const {
  std::vector<char> dates(columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i)
    dates[i] = calendar != nullptr && is_time_column(columns[i]);

  // Format every cell once into one buffer, remembering where each ends, and
  // size the columns.
  std::vector<std::size_t> widths;
  widths.reserve(columns.size());
  for (const auto& c : columns) widths.push_back(c.size());
  std::string cells;
  std::vector<std::size_t> ends;
  ends.reserve(rows.size() * columns.size());
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      const std::size_t begin = cells.size();
      if (dates[i] && std::holds_alternative<std::int64_t>(row[i]))
        cells += calendar->format(cal::WorkInstant(std::get<std::int64_t>(row[i])));
      else
        append_value(cells, row[i]);
      widths[i] = std::max(widths[i], cells.size() - begin);
      ends.push_back(cells.size());
    }
  }

  const std::size_t line = std::accumulate(widths.begin(), widths.end(),
                                           widths.empty() ? 0 : 2 * (widths.size() - 1));
  std::string out;
  out.reserve((rows.size() + 2) * (line + 1) + 16);
  auto put = [&](std::size_t i, std::string_view text) {
    if (i) out += "  ";
    out += text;
    out.append(widths[i] - text.size(), ' ');
  };
  for (std::size_t i = 0; i < columns.size(); ++i) put(i, columns[i]);
  out += '\n';
  out.append(line, '-');
  out += '\n';
  const std::string_view text = cells;
  std::size_t cell = 0;
  std::size_t begin = 0;
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i, begin = ends[cell++])
      put(i, text.substr(begin, ends[cell] - begin));
    out += '\n';
  }
  out += "(" + std::to_string(rows.size()) + " row" + (rows.size() == 1 ? "" : "s") +
         ")\n";
  return out;
}

}  // namespace herc::query
