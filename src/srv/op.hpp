#pragma once
// The server's op vocabulary: one struct per op, with typed fields and the
// defaults a bare request gets.  parse_project_op and parse_server_op are the
// only code that reads an op name or an args document; the shard and the
// server dispatch on the parsed op with std::visit.
//
// A request is refused at parse, with kInvalid, when its op is unknown, a
// required field is missing, or a field has the wrong JSON type; the message
// names the op and the key.  Keys an op does not read are ignored.
//
// The lane is the op's type.  A project op is a ReadOp (run on a pinned
// epoch without the shard lock), a WriteOp (serialized under the shard lock,
// acknowledged once durable) or Stats (answered under the lock).

#include <cstdint>
#include <string>
#include <variant>

#include "core/estimate.hpp"
#include "gen/gen.hpp"
#include "srv/wire.hpp"

namespace herc::srv::op {

// --- project ops: read lane --------------------------------------------------

/// query | explain {statement}
struct Query {
  std::string statement;  ///< required, non-empty
  bool explain = false;
};

/// status | gantt {task}
struct Report {
  std::string task = "job";
  bool gantt = false;
};

// --- project ops: write lane -------------------------------------------------

/// plan | replan {task, name, strategy}
struct Plan {
  std::string task = "job";
  std::string name = "plan";
  sched::EstimateStrategy strategy = sched::EstimateStrategy::kIntuition;
  bool replan = false;
};

/// execute {task, designer, mode: "serial" | "concurrent"}
struct Execute {
  std::string task = "job";
  std::string designer = "designer";
  bool concurrent = false;
};

/// run {task, activity, designer}
struct Run {
  std::string task = "job";
  std::string activity;  ///< required, non-empty
  std::string designer = "designer";
};

/// link {task, activity}
struct Link {
  std::string task = "job";
  std::string activity;  ///< required, non-empty
};

/// advance {minutes}
struct Advance {
  std::int64_t minutes = 0;  ///< required, non-negative
};

/// save {}
struct Save {};

/// stats {}: a shard's counters, or with an empty project the server's.
struct Stats {};

using ReadOp = std::variant<Query, Report>;
using WriteOp = std::variant<Plan, Execute, Run, Link, Advance, Save>;
using ProjectOp = std::variant<ReadOp, WriteOp, Stats>;

// --- server ops (empty project) ----------------------------------------------

struct Ping {};
struct Projects {};
struct Shutdown {};

/// open's second source: rebuild the shard from its snapshot and WAL.
struct Recover {};

/// open {name, scenario | scenario_seed [shape] [size] | recover: true}, the
/// first source present winning.  A project is a scenario, given as a
/// document or generated at parse (gen::generate) from scenario_seed, shape
/// and size; or it is recovered from its directory.  `name` names the
/// shard's files in the data directory, so it must be non-empty, not "." or
/// "..", and hold no '/' or NUL.
struct Open {
  std::string name;
  std::variant<gen::Scenario, Recover> source;
};

/// close {name}
struct Close {
  std::string name;
};

using ServerOp = std::variant<Ping, Projects, Stats, Shutdown, Open, Close>;

[[nodiscard]] util::Result<ProjectOp> parse_project_op(const wire::Request& request);
[[nodiscard]] util::Result<ServerOp> parse_server_op(const wire::Request& request);

/// std::visit helper: one callable per alternative.
template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

}  // namespace herc::srv::op
