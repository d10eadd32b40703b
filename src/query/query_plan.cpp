#include "query/query_plan.hpp"

#include <algorithm>
#include <functional>

namespace herc::query {

namespace {

Value instant_value(cal::WorkInstant t) { return t.minutes_since_epoch(); }

Value optional_instant(const std::optional<cal::WorkInstant>& t) {
  if (!t) return std::monostate{};
  return t->minutes_since_epoch();
}

Value id_value(std::uint64_t v) { return static_cast<std::int64_t>(v); }

// Column order must match QueryEngine::columns_for exactly; the compiled
// leaves address columns by these indexes.

struct RunsSource final : RowSource {
  explicit RunsSource(const meta::Database& d) : db(&d) {}
  std::size_t count() const override { return db->run_count(); }
  Value cell(std::size_t row, std::size_t col) const override {
    const meta::Run& r = db->runs()[row];
    switch (col) {
      case 0: return id_value(r.id.value());
      case 1: return r.activity;
      case 2: return r.tool_binding;
      case 3: return r.designer;
      case 4: return std::string(meta::run_status_name(r.status));
      case 5: return instant_value(r.started_at);
      case 6: return instant_value(r.finished_at);
      case 7: return (r.finished_at - r.started_at).count_minutes();
      case 8:
        return r.output.valid() ? id_value(r.output.value()) : Value{std::monostate{}};
    }
    return std::monostate{};
  }
  bool symbol_col(std::size_t col) const override { return col >= 1 && col <= 3; }
  util::SymbolId sym(std::size_t row, std::size_t col) const override {
    const meta::Run& r = db->runs()[row];
    switch (col) {
      case 1: return r.activity_sym;
      case 2: return r.tool_sym;
      case 3: return r.designer_sym;
    }
    return {};
  }
  util::SymbolId probe(std::size_t col, const std::string& s) const override {
    return symbol_col(col) ? db->symbols().find(s) : util::SymbolId{};
  }
  const meta::Database* db;
};

struct InstancesSource final : RowSource {
  explicit InstancesSource(const meta::Database& d) : db(&d) {}
  std::size_t count() const override { return db->instance_count(); }
  Value cell(std::size_t row, std::size_t col) const override {
    const meta::EntityInstance& e = db->instances()[row];
    switch (col) {
      case 0: return id_value(e.id.value());
      case 1: return e.type_name;
      case 2: return e.name;
      case 3: return static_cast<std::int64_t>(e.version);
      case 4: return instant_value(e.created_at);
      case 5:
        return e.produced_by.valid() ? id_value(e.produced_by.value())
                                     : Value{std::monostate{}};
    }
    return std::monostate{};
  }
  bool symbol_col(std::size_t col) const override { return col == 1 || col == 2; }
  util::SymbolId sym(std::size_t row, std::size_t col) const override {
    const meta::EntityInstance& e = db->instances()[row];
    return col == 1 ? e.type_sym : col == 2 ? e.name_sym : util::SymbolId{};
  }
  util::SymbolId probe(std::size_t col, const std::string& s) const override {
    return symbol_col(col) ? db->symbols().find(s) : util::SymbolId{};
  }
  const meta::Database* db;
};

struct ScheduleSource final : RowSource {
  explicit ScheduleSource(const sched::ScheduleSpace& s) : space(&s) {}
  std::size_t count() const override { return space->node_count(); }
  Value cell(std::size_t row, std::size_t col) const override {
    const sched::ScheduleNode& n = space->node(sched::ScheduleNodeId{row + 1});
    switch (col) {
      case 0: return id_value(n.id.value());
      case 1: return n.activity;
      case 2: return id_value(n.plan.value());
      case 3: return static_cast<std::int64_t>(n.version);
      case 4: return n.est_duration.count_minutes();
      case 5: return instant_value(n.planned_start);
      case 6: return instant_value(n.planned_finish);
      case 7: return instant_value(n.baseline_start);
      case 8: return instant_value(n.baseline_finish);
      case 9: return n.total_slack.count_minutes();
      case 10: return n.critical;
      case 11: return n.completed;
      case 12: return optional_instant(n.actual_start);
      case 13: return optional_instant(n.actual_finish);
      case 14: return space->link_of(n.id).has_value();
    }
    return std::monostate{};
  }
  bool symbol_col(std::size_t col) const override { return col == 1; }
  util::SymbolId sym(std::size_t row, std::size_t col) const override {
    if (col != 1) return {};
    return space->node(sched::ScheduleNodeId{row + 1}).activity_sym;
  }
  util::SymbolId probe(std::size_t col, const std::string& s) const override {
    return col == 1 ? space->symbols().find(s) : util::SymbolId{};
  }
  const sched::ScheduleSpace* space;
};

struct PlansSource final : RowSource {
  explicit PlansSource(const sched::ScheduleSpace& s) : space(&s) {}
  std::size_t count() const override { return space->plans().size(); }
  Value cell(std::size_t row, std::size_t col) const override {
    const sched::ScheduleRun& p = space->plans()[row];
    switch (col) {
      case 0: return id_value(p.id.value());
      case 1: return p.name;
      case 2: return instant_value(p.created_at);
      case 3:
        return p.derived_from.valid() ? id_value(p.derived_from.value())
                                      : Value{std::monostate{}};
      case 4:
        return std::string(p.status == sched::PlanStatus::kActive ? "active"
                                                                  : "superseded");
      case 5: return static_cast<std::int64_t>(p.nodes.size());
    }
    return std::monostate{};
  }
  const sched::ScheduleSpace* space;
};

struct LinksSource final : RowSource {
  explicit LinksSource(const sched::ScheduleSpace& s) : space(&s) {}
  std::size_t count() const override { return space->links().size(); }
  Value cell(std::size_t row, std::size_t col) const override {
    const sched::Link& l = space->links()[row];
    switch (col) {
      case 0: return id_value(l.id.value());
      case 1: return id_value(l.schedule_node.value());
      case 2: return space->node(l.schedule_node).activity;
      case 3: return id_value(l.entity_instance.value());
      case 4: return instant_value(l.linked_at);
    }
    return std::monostate{};
  }
  bool symbol_col(std::size_t col) const override { return col == 2; }
  util::SymbolId sym(std::size_t row, std::size_t col) const override {
    if (col != 2) return {};
    return space->node(space->links()[row].schedule_node).activity_sym;
  }
  util::SymbolId probe(std::size_t col, const std::string& s) const override {
    return col == 2 ? space->symbols().find(s) : util::SymbolId{};
  }
  const sched::ScheduleSpace* space;
};

/// Seed-identical condition semantics for the generic (non-symbol) path.
bool matches_value(Op op, const Value& literal, const Value& v) {
  if (op == Op::kContains) {
    if (!std::holds_alternative<std::string>(v) ||
        !std::holds_alternative<std::string>(literal))
      return false;
    return std::get<std::string>(v).find(std::get<std::string>(literal)) !=
           std::string::npos;
  }
  int cmp = compare_values(v, literal);
  switch (op) {
    case Op::kEq: return cmp == 0;
    case Op::kNe: return cmp != 0;
    case Op::kLt: return cmp < 0;
    case Op::kLe: return cmp <= 0;
    case Op::kGt: return cmp > 0;
    case Op::kGe: return cmp >= 0;
    case Op::kContains: return false;  // handled above
  }
  return false;
}

void collect_conjunctive(const Expr& e, std::vector<const Condition*>& out) {
  if (e.kind == Expr::Kind::kCondition) {
    out.push_back(&e.condition);
  } else if (e.kind == Expr::Kind::kAnd) {
    for (const auto& child : e.children) collect_conjunctive(*child, out);
  }
}

template <class IdList>
std::vector<std::size_t> to_rows(const IdList& ids) {
  std::vector<std::size_t> rows;
  rows.reserve(ids.size());
  for (auto id : ids) rows.push_back(id.value() - 1);
  return rows;
}

}  // namespace

std::unique_ptr<RowSource> make_row_source(Target target, const meta::Database& db,
                                           const sched::ScheduleSpace& space) {
  switch (target) {
    case Target::kRuns: return std::make_unique<RunsSource>(db);
    case Target::kInstances: return std::make_unique<InstancesSource>(db);
    case Target::kSchedule: return std::make_unique<ScheduleSource>(space);
    case Target::kPlans: return std::make_unique<PlansSource>(space);
    case Target::kLinks: return std::make_unique<LinksSource>(space);
  }
  return std::make_unique<RunsSource>(db);
}

bool CompiledPredicate::eval(const RowSource& src, std::size_t row,
                             std::vector<char>& stack) const {
  if (code_.empty()) return true;
  stack.clear();
  for (const Instr& instr : code_) {
    switch (instr.op) {
      case OpCode::kLeaf: {
        const CompiledLeaf& leaf = leaves_[instr.arg];
        bool v;
        if (leaf.sym_compare) {
          const bool eq = src.sym(row, leaf.col) == leaf.sym;
          v = leaf.op == Op::kEq ? eq : !eq;
        } else {
          v = matches_value(leaf.op, leaf.literal, src.cell(row, leaf.col));
        }
        stack.push_back(v);
        break;
      }
      case OpCode::kNot:
        stack.back() = !stack.back();
        break;
      case OpCode::kAnd: {
        bool all = true;
        for (std::uint32_t i = 0; i < instr.arg; ++i) {
          all = all && stack.back();
          stack.pop_back();
        }
        stack.push_back(all);
        break;
      }
      case OpCode::kOr: {
        bool any = false;
        for (std::uint32_t i = 0; i < instr.arg; ++i) {
          any = any || stack.back();
          stack.pop_back();
        }
        stack.push_back(any);
        break;
      }
    }
  }
  return stack.back();
}

util::Result<CompiledPredicate> compile_predicate(
    const Expr* where, Target target, const std::vector<std::string>& columns,
    const RowSource& src) {
  CompiledPredicate out;
  if (!where) return out;

  auto col_index = [&](const std::string& name) -> std::optional<std::size_t> {
    for (std::size_t i = 0; i < columns.size(); ++i)
      if (columns[i] == name) return i;
    return std::nullopt;
  };

  // Depth-first, children before parent; first unknown field wins the error,
  // matching the seed engine's collect_conditions order.
  util::Status error = util::Status::ok_status();
  std::function<void(const Expr&)> emit = [&](const Expr& e) {
    if (!error.ok()) return;
    switch (e.kind) {
      case Expr::Kind::kCondition: {
        auto idx = col_index(e.condition.field);
        if (!idx) {
          error = util::not_found("query: target '" +
                                  std::string(target_name(target)) +
                                  "' has no field '" + e.condition.field + "'");
          return;
        }
        CompiledLeaf leaf;
        leaf.col = *idx;
        leaf.op = e.condition.op;
        leaf.literal = e.condition.literal;
        if ((leaf.op == Op::kEq || leaf.op == Op::kNe) &&
            src.symbol_col(leaf.col) &&
            std::holds_alternative<std::string>(leaf.literal)) {
          leaf.sym_compare = true;
          leaf.sym = src.probe(leaf.col, std::get<std::string>(leaf.literal));
        }
        out.leaves_.push_back(std::move(leaf));
        out.code_.push_back({CompiledPredicate::OpCode::kLeaf,
                             static_cast<std::uint32_t>(out.leaves_.size() - 1)});
        break;
      }
      case Expr::Kind::kNot:
        emit(*e.children[0]);
        out.code_.push_back({CompiledPredicate::OpCode::kNot, 0});
        break;
      case Expr::Kind::kAnd:
      case Expr::Kind::kOr:
        for (const auto& child : e.children) emit(*child);
        out.code_.push_back({e.kind == Expr::Kind::kAnd
                                 ? CompiledPredicate::OpCode::kAnd
                                 : CompiledPredicate::OpCode::kOr,
                             static_cast<std::uint32_t>(e.children.size())});
        break;
    }
  };
  emit(*where);
  if (!error.ok()) return error.error();
  return out;
}

AccessPath plan_access(const Expr& where, Target target, const meta::Database& db,
                       const sched::ScheduleSpace& space) {
  std::vector<const Condition*> conj;
  collect_conjunctive(where, conj);

  AccessPath best;
  bool have = false;
  for (const Condition* c : conj) {
    if (c->op != Op::kEq || !std::holds_alternative<std::string>(c->literal))
      continue;
    const std::string& key = std::get<std::string>(c->literal);
    bool applicable = false;
    std::vector<std::size_t> rows;
    switch (target) {
      case Target::kRuns:
        if (c->field == "activity") {
          rows = to_rows(db.runs_of_activity(key));
          applicable = true;
        } else if (c->field == "designer") {
          rows = to_rows(db.runs_of_designer(key));
          applicable = true;
        } else if (c->field == "tool") {
          rows = to_rows(db.runs_of_tool(key));
          applicable = true;
        } else if (c->field == "status") {
          applicable = true;  // an impossible literal seeks zero rows
          if (key == "completed")
            rows = to_rows(db.runs_with_status(meta::RunStatus::kCompleted));
          else if (key == "failed")
            rows = to_rows(db.runs_with_status(meta::RunStatus::kFailed));
        }
        break;
      case Target::kInstances:
        if (c->field == "type") {
          rows = to_rows(db.container(key));
          applicable = true;
        } else if (c->field == "name") {
          rows = to_rows(db.instances_named(key));
          applicable = true;
        }
        break;
      case Target::kSchedule:
        if (c->field == "activity") {
          rows = to_rows(space.container(key));
          applicable = true;
        }
        break;
      case Target::kPlans:
      case Target::kLinks:
        break;  // small spaces, no maintained indexes
    }
    if (!applicable) continue;
    if (!have || rows.size() < best.rows.size()) {
      best.index = true;
      best.column = c->field;
      best.key = key;
      best.rows = std::move(rows);
      have = true;
    }
  }
  return best;
}

}  // namespace herc::query
