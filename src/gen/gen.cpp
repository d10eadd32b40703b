#include "gen/gen.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace herc::gen {

// --- flow graphs -------------------------------------------------------------

std::vector<std::string> FlowGraph::primary_inputs() const {
  std::unordered_set<std::string> produced;
  for (const auto& r : rules) produced.insert(r.output);
  std::vector<std::string> leaves;
  for (const auto& d : data_types)
    if (!produced.count(d)) leaves.push_back(d);
  return leaves;
}

std::string render_schema(const FlowGraph& graph) {
  std::string dsl = "schema " + graph.schema_name + " {\n  data";
  for (std::size_t i = 0; i < graph.data_types.size(); ++i)
    dsl += (i ? ", " : " ") + graph.data_types[i];
  dsl += ";\n  tool t;\n";
  for (const auto& r : graph.rules) {
    dsl += "  rule " + r.name + ": " + r.output + " <- t(";
    for (std::size_t i = 0; i < r.inputs.size(); ++i)
      dsl += (i ? ", " : "") + r.inputs[i];
    dsl += ");\n";
  }
  dsl += "}\n";
  return dsl;
}

// --- shapes ------------------------------------------------------------------

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kChain: return "chain";
    case Shape::kFanin: return "fanin";
    case Shape::kLayered: return "layered";
    case Shape::kRandom: return "random";
  }
  return "random";
}

util::Result<Shape> parse_shape(const std::string& name) {
  if (name == "chain") return Shape::kChain;
  if (name == "fanin") return Shape::kFanin;
  if (name == "layered") return Shape::kLayered;
  if (name == "random") return Shape::kRandom;
  return util::parse_error("unknown shape '" + name + "'");
}

const char* exec_mode_name(ExecMode m) {
  return m == ExecMode::kConcurrent ? "concurrent" : "serial";
}

const char* duration_dist_name(DurationDist d) {
  switch (d) {
    case DurationDist::kUniform: return "uniform";
    case DurationDist::kLognormal: return "lognormal";
    case DurationDist::kPareto: return "pareto";
  }
  return "uniform";
}

util::Result<DurationDist> parse_duration_dist(const std::string& name) {
  if (name == "uniform") return DurationDist::kUniform;
  if (name == "lognormal") return DurationDist::kLognormal;
  if (name == "pareto") return DurationDist::kPareto;
  return util::parse_error("unknown duration distribution '" + name + "'");
}

namespace {

util::Result<ExecMode> parse_exec_mode(const std::string& name) {
  if (name == "serial") return ExecMode::kSerial;
  if (name == "concurrent") return ExecMode::kConcurrent;
  return util::parse_error("unknown exec mode '" + name + "'");
}

}  // namespace

// --- legacy workload shapes --------------------------------------------------

FlowGraph chain_graph(std::size_t n) {
  FlowGraph g;
  g.schema_name = "chain";
  for (std::size_t i = 0; i <= n; ++i) g.data_types.push_back("d" + std::to_string(i));
  for (std::size_t i = 1; i <= n; ++i)
    g.rules.push_back({.name = "A" + std::to_string(i),
                       .output = "d" + std::to_string(i),
                       .inputs = {"d" + std::to_string(i - 1)}});
  g.target = "d" + std::to_string(n);
  return g;
}

std::string chain_schema(std::size_t n) { return render_schema(chain_graph(n)); }

FlowGraph fanin_graph(std::size_t width) {
  FlowGraph g;
  g.schema_name = "fanin";
  g.data_types.push_back("out");
  for (std::size_t i = 0; i < width; ++i)
    g.data_types.push_back("s" + std::to_string(i));
  GenRule merge{.name = "Merge", .output = "out", .inputs = {}};
  for (std::size_t i = 0; i < width; ++i) {
    g.rules.push_back({.name = "Make" + std::to_string(i),
                       .output = "s" + std::to_string(i),
                       .inputs = {}});
    merge.inputs.push_back("s" + std::to_string(i));
  }
  g.rules.push_back(std::move(merge));
  g.target = "out";
  return g;
}

std::string fanin_schema(std::size_t width) { return render_schema(fanin_graph(width)); }

FlowGraph layered_graph(std::size_t layers, std::size_t width) {
  auto d = [](std::size_t l, std::size_t w) {
    return "d" + std::to_string(l) + "_" + std::to_string(w);
  };
  FlowGraph g;
  g.schema_name = "layered";
  g.data_types.push_back("root");
  for (std::size_t l = 0; l <= layers; ++l)
    for (std::size_t w = 0; w < width; ++w) g.data_types.push_back(d(l, w));
  for (std::size_t l = 1; l <= layers; ++l)
    for (std::size_t w = 0; w < width; ++w)
      g.rules.push_back({.name = "A" + std::to_string(l) + "_" + std::to_string(w),
                         .output = d(l, w),
                         .inputs = {d(l - 1, w), d(l - 1, (w + 1) % width)}});
  GenRule join{.name = "Join", .output = "root", .inputs = {}};
  for (std::size_t w = 0; w < width; ++w) join.inputs.push_back(d(layers, w));
  g.rules.push_back(std::move(join));
  g.target = "root";
  return g;
}

std::string layered_schema(std::size_t layers, std::size_t width) {
  return render_schema(layered_graph(layers, width));
}

FlowGraph random_graph(util::Rng& rng, std::size_t inputs, std::size_t rules) {
  FlowGraph g;
  g.schema_name = "random";
  std::size_t total = inputs + rules;
  for (std::size_t i = 0; i < total; ++i) g.data_types.push_back("d" + std::to_string(i));
  for (std::size_t r = 0; r < rules; ++r) {
    std::size_t out = inputs + r;
    std::set<std::size_t> chosen;
    // At most `out` distinct earlier types exist; never demand more.  Always
    // consume the immediately previous type so the last rule's output
    // transitively covers everything, then add random extras.  (This draw
    // sequence is the seed property tests' random_schema, verbatim — the
    // historical seeds keep generating the historical flows.)
    auto n_inputs =
        std::min<std::size_t>(static_cast<std::size_t>(rng.uniform_int(1, 3)), out);
    chosen.insert(out - 1);
    while (chosen.size() < n_inputs)
      chosen.insert(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out) - 1)));
    GenRule rule{.name = "A" + std::to_string(r), .output = "d" + std::to_string(out)};
    for (std::size_t in : chosen) rule.inputs.push_back("d" + std::to_string(in));
    g.rules.push_back(std::move(rule));
  }
  g.target = "d" + std::to_string(total - 1);
  return g;
}

std::unique_ptr<hercules::WorkflowManager> make_bound_manager(const std::string& dsl,
                                                              const std::string& target,
                                                              cal::WorkDuration tool_time) {
  auto m = hercules::WorkflowManager::create(dsl, {}, /*tool_seed=*/1).take();
  m->register_tool({.instance_name = "t1", .tool_type = "t", .nominal = tool_time})
      .expect("gen tool");
  m->extract_task("job", target).expect("gen extract");
  // Bind the leaves actually present in the extracted tree: a random rule
  // set may leave some declared primary inputs unreachable from the target.
  auto& tree = *m->task("job").value();
  for (auto leaf : tree.leaves()) {
    const auto& node = tree.node(leaf);
    std::string instance = node.kind == flow::NodeKind::kToolLeaf
                               ? "t1"
                               : m->schema().type(node.type).name + ".in";
    tree.bind(leaf, instance).expect("gen bind");
  }
  m->estimator().set_fallback(cal::WorkDuration::hours(4));
  return m;
}

std::vector<sched::CpmActivity> random_cpm_network(std::size_t n, double edge_p,
                                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<sched::CpmActivity> acts(n);
  for (std::size_t i = 0; i < n; ++i) {
    acts[i].duration = rng.uniform_int(10, 480);
    // Bound preds per activity so density stays realistic at large n.
    for (std::size_t tries = 0; tries < 4 && i > 0; ++tries)
      if (rng.chance(edge_p))
        acts[i].preds.push_back(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1)));
  }
  return acts;
}

std::vector<sched::CpmActivity> random_cpm_dag(util::Rng& rng, std::size_t n,
                                               double edge_p) {
  std::vector<sched::CpmActivity> acts(n);
  for (std::size_t i = 0; i < n; ++i) {
    acts[i].duration = rng.uniform_int(0, 500);
    if (rng.chance(0.2)) acts[i].release = rng.uniform_int(0, 300);
    for (std::size_t j = 0; j < i; ++j)
      if (rng.chance(edge_p)) acts[i].preds.push_back(j);
  }
  return acts;
}

std::vector<sched::CpmActivity> chain_cpm_network(std::size_t n) {
  std::vector<sched::CpmActivity> acts(n);
  for (std::size_t i = 0; i < n; ++i) {
    acts[i].duration = 60;
    if (i > 0) acts[i].preds.push_back(i - 1);
  }
  return acts;
}

std::vector<sched::CpmActivity> mega_cpm_network(const MegaGraphSpec& spec) {
  const std::size_t n = spec.activities;
  const std::size_t width = std::max<std::size_t>(1, spec.width);
  const std::size_t max_preds = std::min<std::size_t>(spec.max_preds, 16);
  util::Rng rng(spec.seed);
  std::vector<sched::CpmActivity> acts(n);
  for (std::size_t i = 0; i < n; ++i) {
    sched::CpmActivity& a = acts[i];
    a.duration = rng.uniform_int(spec.minutes_lo, spec.minutes_hi);
    if (spec.release_p > 0 && rng.chance(spec.release_p))
      a.release = rng.uniform_int(0, spec.release_hi);
    if (spec.shape == Shape::kRandom) {
      for (std::size_t tries = 0; tries < max_preds && i > 0; ++tries)
        if (rng.chance(spec.edge_p))
          a.preds.push_back(static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(i) - 1)));
    } else {
      // Layered: level l = i / width depends on two slots of level l - 1,
      // which is always a full level, so every pred index is < i.
      const std::size_t level = i / width;
      const std::size_t slot = i % width;
      if (level > 0) {
        const std::size_t base = (level - 1) * width;
        a.preds.push_back(base + slot);
        const std::size_t wrap = base + (slot + 1) % width;
        if (wrap != base + slot) a.preds.push_back(wrap);
      }
    }
  }
  return acts;
}

// --- generation --------------------------------------------------------------

namespace {

template <typename T>
T clamp(T v, T lo, T hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// One estimate draw.  kUniform reproduces the historical draw sequence
/// exactly (one uniform_int per rule); the heavy-tailed families consume
/// their own draws, so a spec with kUniform stays byte-stable forever.
std::int64_t draw_est_minutes(util::Rng& rng, const ScenarioSpec& spec) {
  const std::int64_t cap = spec.est_minutes_hi * 64;
  switch (spec.duration_dist) {
    case DurationDist::kUniform:
      return rng.uniform_int(spec.est_minutes_lo, spec.est_minutes_hi);
    case DurationDist::kLognormal: {
      // Median at the geometric midpoint of [lo, hi]; sigma widens the tail.
      double mid = std::sqrt(static_cast<double>(spec.est_minutes_lo) *
                             static_cast<double>(spec.est_minutes_hi));
      double v = std::exp(rng.normal(std::log(mid), spec.dist_sigma));
      return clamp<std::int64_t>(static_cast<std::int64_t>(v), 1, cap);
    }
    case DurationDist::kPareto: {
      double alpha = spec.dist_alpha < 0.05 ? 0.05 : spec.dist_alpha;
      double u = 1.0 - rng.uniform();  // (0, 1]
      double v = static_cast<double>(spec.est_minutes_lo) *
                 std::pow(1.0 / u, 1.0 / alpha);
      return clamp<std::int64_t>(static_cast<std::int64_t>(v), 1, cap);
    }
  }
  return spec.est_minutes_lo;
}

}  // namespace

Scenario generate(const ScenarioSpec& spec_in) {
  ScenarioSpec spec = spec_in;
  spec.size = clamp<std::size_t>(spec.size, 1, 64);
  spec.width = clamp<std::size_t>(spec.width, 2, 8);
  spec.inputs = clamp<std::size_t>(spec.inputs, 1, 8);
  spec.resources = clamp(spec.resources, 1, 8);
  if (spec.tool_minutes_lo < 1) spec.tool_minutes_lo = 1;
  if (spec.tool_minutes_hi < spec.tool_minutes_lo)
    spec.tool_minutes_hi = spec.tool_minutes_lo;
  if (spec.est_minutes_lo < 1) spec.est_minutes_lo = 1;
  if (spec.est_minutes_hi < spec.est_minutes_lo) spec.est_minutes_hi = spec.est_minutes_lo;
  if (spec.minutes_per_day < 60) spec.minutes_per_day = 60;
  if (spec.max_attempts < 1) spec.max_attempts = 1;
  if (spec.timeout_minutes < 0) spec.timeout_minutes = 0;
  if (spec.backoff_minutes < 0) spec.backoff_minutes = 0;
  spec.dist_sigma = clamp(spec.dist_sigma, 0.0, 4.0);
  spec.dist_alpha = clamp(spec.dist_alpha, 0.05, 16.0);
  spec.adversity = clamp(spec.adversity, 0.0, 1.0);
  // Layered shapes explode as layers * width; keep the grid small.
  if (spec.shape == Shape::kLayered) spec.size = clamp<std::size_t>(spec.size, 1, 8);

  util::Rng rng(spec.seed);
  Scenario s;
  switch (spec.shape) {
    case Shape::kChain: s.graph = chain_graph(spec.size); break;
    case Shape::kFanin: s.graph = fanin_graph(spec.size); break;
    case Shape::kLayered: s.graph = layered_graph(spec.size, spec.width); break;
    case Shape::kRandom: s.graph = random_graph(rng, spec.inputs, spec.size); break;
  }
  for (auto& r : s.graph.rules) r.est_minutes = draw_est_minutes(rng, spec);
  s.tool_minutes = rng.uniform_int(spec.tool_minutes_lo, spec.tool_minutes_hi);
  s.fallback_minutes = rng.uniform_int(spec.est_minutes_lo, spec.est_minutes_hi);

  s.minutes_per_day = spec.minutes_per_day;
  s.resources = spec.resources;
  s.fault_seed = spec.fault_seed;
  if (spec.fault_seed != 0) {
    exec::ToolFaults tf;
    tf.fail_prob = spec.fail_prob;
    tf.latency_factor = spec.latency_factor;
    if (spec.fail_on > 0) tf.fail_on.push_back(spec.fail_on);
    s.faults.tools["*"] = std::move(tf);
  }
  s.mode = spec.mode;
  s.policy = spec.policy;
  s.max_attempts = spec.max_attempts;
  s.timeout_minutes = spec.timeout_minutes;
  s.backoff_minutes = spec.backoff_minutes;

  if (spec.adversity > 0 && !s.graph.rules.empty()) {
    const auto n_rules = static_cast<std::int64_t>(s.graph.rules.size());
    auto count = [&](double per_unit) {
      auto hi = static_cast<std::int64_t>(spec.adversity * per_unit + 0.5);
      return rng.uniform_int(1, hi < 1 ? 1 : hi);
    };
    for (std::int64_t i = 0, n = count(3.0); i < n; ++i)
      s.adversarial.replans.push_back(
          static_cast<int>(rng.uniform_int(1, n_rules)));
    std::sort(s.adversarial.replans.begin(), s.adversarial.replans.end());
    for (std::int64_t i = 0, n = count(4.0); i < n; ++i)
      s.adversarial.edits.push_back(
          {static_cast<std::size_t>(rng.uniform_int(0, n_rules - 1)),
           "designer" + std::to_string(rng.uniform_int(0, 3))});
    if (auto prim = s.graph.primary_inputs(); !prim.empty()) {
      for (std::int64_t i = 0, n = count(2.0); i < n; ++i)
        s.adversarial.input_revisions.push_back(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(prim.size()) - 1)));
    }
  }
  s.spec = spec;
  return s;
}

StructuralFacts facts(const Scenario& scenario) {
  StructuralFacts f;
  f.n_rules = scenario.graph.rules.size();
  f.n_data_types = scenario.graph.data_types.size();
  f.n_primary_inputs = scenario.graph.primary_inputs().size();
  f.target = scenario.graph.target;
  return f;
}

util::Result<std::unique_ptr<hercules::WorkflowManager>> make_manager(
    const Scenario& scenario) {
  cal::WorkCalendar::Config cfg;
  cfg.epoch = cal::Date(1995, 6, 12);  // a Monday; the paper's publication year
  cfg.minutes_per_day = scenario.minutes_per_day;
  auto created = hercules::WorkflowManager::create(
      scenario.dsl(), cfg,
      /*tool_seed=*/scenario.spec.seed ? scenario.spec.seed : 1);
  if (!created.ok()) return created;
  std::unique_ptr<hercules::WorkflowManager> m = std::move(created).take();

  auto st = m->register_tool({.instance_name = "t1", .tool_type = "t",
                              .nominal = cal::WorkDuration::minutes(scenario.tool_minutes)});
  if (!st.ok()) return st.error();
  for (int i = 0; i < scenario.resources; ++i)
    m->add_resource("r" + std::to_string(i));

  st = m->extract_task("job", scenario.graph.target);
  if (!st.ok()) return st.error();
  // Bind exactly the leaves present in the extracted tree (a random rule set
  // may leave some declared primary inputs unreachable from the target).
  auto task = m->task("job");
  if (!task.ok()) return task.error();
  flow::TaskTree& tree = *task.value();
  for (auto leaf : tree.leaves()) {
    const auto& n = tree.node(leaf);
    std::string instance = n.kind == flow::NodeKind::kToolLeaf
                               ? "t1"
                               : m->schema().type(n.type).name + ".in";
    st = tree.bind(leaf, instance);
    if (!st.ok()) return st.error();
  }

  for (const auto& r : scenario.graph.rules)
    m->estimator().set_intuition(r.name, cal::WorkDuration::minutes(r.est_minutes));
  m->estimator().set_fallback(cal::WorkDuration::minutes(scenario.fallback_minutes));

  exec::ExecutionOptions opts;
  opts.on_failure = scenario.policy;
  opts.retry.max_attempts = scenario.max_attempts;
  opts.retry.backoff = cal::WorkDuration::minutes(scenario.backoff_minutes);
  opts.retry.timeout = cal::WorkDuration::minutes(scenario.timeout_minutes);
  m->set_exec_options(std::move(opts));

  if (scenario.fault_seed != 0) m->set_faults(scenario.fault_seed, scenario.faults);
  return m;
}

std::vector<sched::CpmActivity> cpm_network(const Scenario& scenario) {
  std::unordered_map<std::string, std::size_t> producer;
  for (std::size_t i = 0; i < scenario.graph.rules.size(); ++i)
    producer[scenario.graph.rules[i].output] = i;
  std::vector<sched::CpmActivity> acts(scenario.graph.rules.size());
  for (std::size_t i = 0; i < scenario.graph.rules.size(); ++i) {
    acts[i].duration = scenario.graph.rules[i].est_minutes;
    for (const auto& in : scenario.graph.rules[i].inputs) {
      auto it = producer.find(in);
      if (it != producer.end()) acts[i].preds.push_back(it->second);
    }
  }
  return acts;
}

// --- serialization -----------------------------------------------------------

util::Json scenario_to_json(const Scenario& s) {
  using util::Json;
  using util::JsonArray;
  using util::JsonObject;

  JsonObject spec;
  spec.set("seed", static_cast<std::int64_t>(s.spec.seed));
  spec.set("shape", shape_name(s.spec.shape));
  spec.set("size", static_cast<std::int64_t>(s.spec.size));
  spec.set("width", static_cast<std::int64_t>(s.spec.width));
  spec.set("inputs", static_cast<std::int64_t>(s.spec.inputs));
  spec.set("resources", static_cast<std::int64_t>(s.spec.resources));
  spec.set("tool_minutes_lo", s.spec.tool_minutes_lo);
  spec.set("tool_minutes_hi", s.spec.tool_minutes_hi);
  spec.set("est_minutes_lo", s.spec.est_minutes_lo);
  spec.set("est_minutes_hi", s.spec.est_minutes_hi);
  spec.set("minutes_per_day", s.spec.minutes_per_day);
  spec.set("fault_seed", static_cast<std::int64_t>(s.spec.fault_seed));
  spec.set("fail_prob", s.spec.fail_prob);
  spec.set("fail_on", static_cast<std::int64_t>(s.spec.fail_on));
  spec.set("latency_factor", s.spec.latency_factor);
  spec.set("mode", exec_mode_name(s.spec.mode));
  spec.set("policy", exec::failure_policy_name(s.spec.policy));
  spec.set("max_attempts", static_cast<std::int64_t>(s.spec.max_attempts));
  spec.set("timeout_minutes", s.spec.timeout_minutes);
  spec.set("backoff_minutes", s.spec.backoff_minutes);
  spec.set("duration_dist", duration_dist_name(s.spec.duration_dist));
  spec.set("dist_sigma", s.spec.dist_sigma);
  spec.set("dist_alpha", s.spec.dist_alpha);
  spec.set("adversity", s.spec.adversity);

  JsonObject graph;
  graph.set("schema_name", s.graph.schema_name);
  JsonArray data;
  for (const auto& d : s.graph.data_types) data.emplace_back(d);
  graph.set("data_types", std::move(data));
  JsonArray rules;
  for (const auto& r : s.graph.rules) {
    JsonObject rule;
    rule.set("name", r.name);
    rule.set("output", r.output);
    JsonArray inputs;
    for (const auto& in : r.inputs) inputs.emplace_back(in);
    rule.set("inputs", std::move(inputs));
    rule.set("est_minutes", r.est_minutes);
    rules.push_back(Json(std::move(rule)));
  }
  graph.set("rules", std::move(rules));
  graph.set("target", s.graph.target);

  JsonObject doc;
  doc.set("spec", std::move(spec));
  doc.set("graph", std::move(graph));
  doc.set("minutes_per_day", s.minutes_per_day);
  doc.set("tool_minutes", s.tool_minutes);
  doc.set("fallback_minutes", s.fallback_minutes);
  doc.set("resources", static_cast<std::int64_t>(s.resources));
  doc.set("fault_seed", static_cast<std::int64_t>(s.fault_seed));
  doc.set("faults", exec::fault_plan_to_json(s.faults));
  doc.set("mode", exec_mode_name(s.mode));
  doc.set("policy", exec::failure_policy_name(s.policy));
  doc.set("max_attempts", static_cast<std::int64_t>(s.max_attempts));
  doc.set("timeout_minutes", s.timeout_minutes);
  doc.set("backoff_minutes", s.backoff_minutes);

  JsonObject adv;
  JsonArray replans;
  for (int k : s.adversarial.replans)
    replans.emplace_back(static_cast<std::int64_t>(k));
  adv.set("replans", std::move(replans));
  JsonArray edits;
  for (const auto& e : s.adversarial.edits) {
    JsonObject edit;
    edit.set("rule", static_cast<std::int64_t>(e.rule));
    edit.set("designer", e.designer);
    edits.push_back(Json(std::move(edit)));
  }
  adv.set("edits", std::move(edits));
  JsonArray revisions;
  for (std::size_t i : s.adversarial.input_revisions)
    revisions.emplace_back(static_cast<std::int64_t>(i));
  adv.set("input_revisions", std::move(revisions));
  doc.set("adversarial", std::move(adv));
  return doc;
}

util::Result<Scenario> scenario_from_json(const util::Json& json) {
  if (!json.is_object()) return util::parse_error("scenario: not an object");
  const auto& doc = json.as_object();
  Scenario s;
  try {
    const auto& spec = doc.at("spec").as_object();
    s.spec.seed = static_cast<std::uint64_t>(spec.at("seed").as_int());
    auto shape = parse_shape(spec.at("shape").as_string());
    if (!shape.ok()) return shape.error();
    s.spec.shape = shape.value();
    s.spec.size = static_cast<std::size_t>(spec.at("size").as_int());
    s.spec.width = static_cast<std::size_t>(spec.at("width").as_int());
    s.spec.inputs = static_cast<std::size_t>(spec.at("inputs").as_int());
    s.spec.resources = static_cast<int>(spec.at("resources").as_int());
    s.spec.tool_minutes_lo = spec.at("tool_minutes_lo").as_int();
    s.spec.tool_minutes_hi = spec.at("tool_minutes_hi").as_int();
    s.spec.est_minutes_lo = spec.at("est_minutes_lo").as_int();
    s.spec.est_minutes_hi = spec.at("est_minutes_hi").as_int();
    s.spec.minutes_per_day = spec.at("minutes_per_day").as_int();
    s.spec.fault_seed = static_cast<std::uint64_t>(spec.at("fault_seed").as_int());
    s.spec.fail_prob = spec.at("fail_prob").as_double();
    s.spec.fail_on = static_cast<int>(spec.at("fail_on").as_int());
    s.spec.latency_factor = spec.at("latency_factor").as_double();
    auto mode = parse_exec_mode(spec.at("mode").as_string());
    if (!mode.ok()) return mode.error();
    s.spec.mode = mode.value();
    auto policy = exec::parse_failure_policy(spec.at("policy").as_string());
    if (!policy.ok()) return policy.error();
    s.spec.policy = policy.value();
    s.spec.max_attempts = static_cast<int>(spec.at("max_attempts").as_int());
    s.spec.timeout_minutes = spec.at("timeout_minutes").as_int();
    // Newer fields parse optionally: corpus files from before they existed
    // must keep replaying (defaults match the historical behavior).
    if (spec.contains("duration_dist")) {
      auto dist = parse_duration_dist(spec.at("duration_dist").as_string());
      if (!dist.ok()) return dist.error();
      s.spec.duration_dist = dist.value();
    }
    if (spec.contains("dist_sigma")) s.spec.dist_sigma = spec.at("dist_sigma").as_double();
    if (spec.contains("dist_alpha")) s.spec.dist_alpha = spec.at("dist_alpha").as_double();
    if (spec.contains("adversity")) s.spec.adversity = spec.at("adversity").as_double();
    if (spec.contains("backoff_minutes"))
      s.spec.backoff_minutes = spec.at("backoff_minutes").as_int();

    const auto& graph = doc.at("graph").as_object();
    s.graph.schema_name = graph.at("schema_name").as_string();
    s.graph.data_types.clear();
    for (const auto& d : graph.at("data_types").as_array())
      s.graph.data_types.push_back(d.as_string());
    for (const auto& rj : graph.at("rules").as_array()) {
      const auto& ro = rj.as_object();
      GenRule r;
      r.name = ro.at("name").as_string();
      r.output = ro.at("output").as_string();
      for (const auto& in : ro.at("inputs").as_array())
        r.inputs.push_back(in.as_string());
      r.est_minutes = ro.at("est_minutes").as_int();
      s.graph.rules.push_back(std::move(r));
    }
    s.graph.target = graph.at("target").as_string();

    s.minutes_per_day = doc.at("minutes_per_day").as_int();
    s.tool_minutes = doc.at("tool_minutes").as_int();
    s.fallback_minutes = doc.at("fallback_minutes").as_int();
    s.resources = static_cast<int>(doc.at("resources").as_int());
    s.fault_seed = static_cast<std::uint64_t>(doc.at("fault_seed").as_int());
    auto faults = exec::fault_plan_from_json(doc.at("faults"));
    if (!faults.ok()) return faults.error();
    s.faults = std::move(faults).take();
    auto mode2 = parse_exec_mode(doc.at("mode").as_string());
    if (!mode2.ok()) return mode2.error();
    s.mode = mode2.value();
    auto policy2 = exec::parse_failure_policy(doc.at("policy").as_string());
    if (!policy2.ok()) return policy2.error();
    s.policy = policy2.value();
    s.max_attempts = static_cast<int>(doc.at("max_attempts").as_int());
    s.timeout_minutes = doc.at("timeout_minutes").as_int();
    if (doc.contains("backoff_minutes"))
      s.backoff_minutes = doc.at("backoff_minutes").as_int();
    if (doc.contains("adversarial")) {
      const auto& adv = doc.at("adversarial").as_object();
      for (const auto& k : adv.at("replans").as_array())
        s.adversarial.replans.push_back(static_cast<int>(k.as_int()));
      for (const auto& ej : adv.at("edits").as_array()) {
        const auto& eo = ej.as_object();
        s.adversarial.edits.push_back(
            {static_cast<std::size_t>(eo.at("rule").as_int()),
             eo.at("designer").as_string()});
      }
      for (const auto& i : adv.at("input_revisions").as_array())
        s.adversarial.input_revisions.push_back(
            static_cast<std::size_t>(i.as_int()));
    }
  } catch (const std::out_of_range& e) {
    return util::parse_error(std::string("scenario: missing field: ") + e.what());
  } catch (const std::bad_variant_access&) {
    return util::parse_error("scenario: field has wrong JSON type");
  }
  return s;
}

// --- server request streams --------------------------------------------------

std::vector<GenRequest> request_stream(const RequestStreamSpec& spec) {
  util::Rng rng(spec.seed);
  const int designers = spec.designers < 1 ? 1 : spec.designers;
  double read_f = spec.read_fraction < 0 ? 0 : spec.read_fraction;
  double advance_f = spec.advance_fraction < 0 ? 0 : spec.advance_fraction;
  if (read_f + advance_f > 1.0) {
    double scale = 1.0 / (read_f + advance_f);
    read_f *= scale;
    advance_f *= scale;
  }

  std::vector<GenRequest> out;
  out.reserve(spec.count);
  // Streams open with a plan: status reads against an unplanned task are
  // errors, and real sessions plan before they track anyway.
  if (spec.count > 0) {
    GenRequest plan;
    plan.op = "plan";
    plan.args.set("name", "plan");
    out.push_back(std::move(plan));
  }
  bool status_next = true;  // reads alternate status / stats
  for (std::size_t i = 1; i < spec.count; ++i) {
    GenRequest r;
    const double roll = rng.uniform();
    if (roll < advance_f) {
      r.op = "advance";
      r.args.set("minutes", util::Json(rng.uniform_int(spec.advance_minutes_lo,
                                                       spec.advance_minutes_hi)));
    } else if (roll < advance_f + read_f) {
      r.op = status_next ? "status" : "stats";
      status_next = !status_next;
    } else {
      r.op = "execute";
      r.args.set("designer",
                 "designer" + std::to_string(rng.uniform_int(0, designers - 1)));
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace herc::gen
