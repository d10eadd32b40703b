#include "srv/op.hpp"

#include <optional>

namespace herc::srv::op {

namespace {

using util::Json;

/// Reads one request's args into an op's fields.  An absent key keeps the
/// field's default; the first refusal (a wrong JSON type, a missing field or
/// a bad value) is latched, and later reads are skipped.
class ArgReader {
 public:
  explicit ArgReader(const wire::Request& request) : request_(request) {}

  /// Each reader returns true when the key was present and well-typed.
  bool string(const std::string& key, std::string& out) {
    const Json* v = typed(key, &Json::is_string, "a string");
    if (v) out = v->as_string();
    return v != nullptr;
  }
  bool integer(const std::string& key, std::int64_t& out) {
    const Json* v = typed(key, &Json::is_int, "an integer");
    if (v) out = v->as_int();
    return v != nullptr;
  }
  bool boolean(const std::string& key, bool& out) {
    const Json* v = typed(key, &Json::is_bool, "a boolean");
    if (v) out = v->as_bool();
    return v != nullptr;
  }
  /// A string the op cannot do without.
  void required(const std::string& key, std::string& out) {
    if (!string(key, out)) fail("missing '" + key + "'");
  }
  /// A required string for which empty means missing.
  void nonempty(const std::string& key, std::string& out) {
    if (!string(key, out) || out.empty()) fail("missing '" + key + "'");
  }

  void fail(util::Error error) {
    if (!error_) error_ = std::move(error);
  }
  void fail(const std::string& what) { fail(util::invalid(request_.op + ": " + what)); }
  /// True while no refusal is latched.
  [[nodiscard]] bool ok() const { return !error_; }

  /// The parsed op, or the first refusal.
  template <class Op>
  util::Result<Op> finish(Op op) const {
    if (error_) return *error_;
    return op;
  }

 private:
  const Json* typed(const std::string& key, bool (Json::*is)() const, const char* type) {
    if (error_ || !request_.args.contains(key)) return nullptr;
    const Json& v = request_.args.at(key);
    if ((v.*is)()) return &v;
    fail("'" + key + "' must be " + type);
    return nullptr;
  }

  const wire::Request& request_;
  std::optional<util::Error> error_;
};

/// A name that stays a plain file name inside the data directory.
bool valid_project_name(const std::string& name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find_first_of(std::string("/\0", 2)) == std::string::npos;
}

util::Result<ServerOp> parse_open(const wire::Request& request) {
  ArgReader in(request);
  Open op;
  in.required("name", op.name);
  if (!valid_project_name(op.name))
    in.fail("'name' must be non-empty, not '.' or '..', with no '/' or NUL");
  const util::JsonObject& args = request.args;
  if (args.contains("scenario")) {
    auto scenario = gen::scenario_from_json(args.at("scenario"));
    if (scenario.ok())
      op.source = std::move(scenario).take();
    else
      in.fail(scenario.error());
  } else if (args.contains("scenario_seed")) {
    gen::ScenarioSpec spec;
    std::int64_t seed = 0;
    auto size = static_cast<std::int64_t>(spec.size);
    std::string shape;
    in.integer("scenario_seed", seed);
    spec.seed = static_cast<std::uint64_t>(seed);
    if (in.string("shape", shape)) {
      auto parsed = gen::parse_shape(shape);
      if (parsed.ok())
        spec.shape = parsed.value();
      else
        in.fail(parsed.error());
    }
    if (in.integer("size", size) && size < 0) in.fail("'size' must be non-negative");
    spec.size = static_cast<std::size_t>(size);
    // A refused request generates nothing.
    if (in.ok()) op.source = gen::generate(spec);
  } else {
    bool recover = false;
    in.boolean("recover", recover);
    if (!recover) in.fail("args need one of scenario / scenario_seed / recover: true");
    op.source = Recover{};
  }
  return in.finish(ServerOp(std::move(op)));
}

}  // namespace

util::Result<ProjectOp> parse_project_op(const wire::Request& request) {
  const std::string& name = request.op;
  ArgReader in(request);
  if (name == "query" || name == "explain") {
    Query op{.explain = name == "explain"};
    in.nonempty("statement", op.statement);
    return in.finish(ProjectOp(ReadOp(std::move(op))));
  }
  if (name == "status" || name == "gantt") {
    Report op{.gantt = name == "gantt"};
    in.string("task", op.task);
    return in.finish(ProjectOp(ReadOp(std::move(op))));
  }
  if (name == "plan" || name == "replan") {
    Plan op{.replan = name == "replan"};
    std::string strategy;
    in.string("task", op.task);
    in.string("name", op.name);
    if (in.string("strategy", strategy) && !strategy.empty()) {
      auto parsed = sched::parse_estimate_strategy(strategy);
      if (parsed.ok())
        op.strategy = parsed.value();
      else
        in.fail(parsed.error());
    }
    return in.finish(ProjectOp(WriteOp(std::move(op))));
  }
  if (name == "execute") {
    Execute op;
    std::string mode = "serial";
    in.string("task", op.task);
    in.string("designer", op.designer);
    in.string("mode", mode);
    if (mode != "serial" && mode != "concurrent") in.fail("mode must be serial|concurrent");
    op.concurrent = mode == "concurrent";
    return in.finish(ProjectOp(WriteOp(std::move(op))));
  }
  if (name == "run") {
    Run op;
    in.string("task", op.task);
    in.nonempty("activity", op.activity);
    in.string("designer", op.designer);
    return in.finish(ProjectOp(WriteOp(std::move(op))));
  }
  if (name == "link") {
    Link op;
    in.string("task", op.task);
    in.nonempty("activity", op.activity);
    return in.finish(ProjectOp(WriteOp(std::move(op))));
  }
  if (name == "advance") {
    Advance op;
    if (!in.integer("minutes", op.minutes))
      in.fail("missing 'minutes'");
    else if (op.minutes < 0)
      in.fail("'minutes' must be non-negative");
    return in.finish(ProjectOp(WriteOp(op)));
  }
  if (name == "save") return ProjectOp(WriteOp(Save{}));
  if (name == "stats") return ProjectOp(Stats{});
  return util::invalid("unknown op '" + name + "'");
}

util::Result<ServerOp> parse_server_op(const wire::Request& request) {
  const std::string& name = request.op;
  if (name == "ping") return ServerOp(Ping{});
  if (name == "projects") return ServerOp(Projects{});
  if (name == "stats") return ServerOp(Stats{});
  if (name == "shutdown") return ServerOp(Shutdown{});
  if (name == "open") return parse_open(request);
  if (name == "close") {
    ArgReader in(request);
    Close op;
    in.required("name", op.name);
    return in.finish(ServerOp(std::move(op)));
  }
  return util::invalid("unknown server op '" + name + "'");
}

}  // namespace herc::srv::op
