#include "exec/tools.hpp"

#include <cstdio>
#include <limits>

#include "data/data_store.hpp"

namespace herc::exec {

util::Status ToolRegistry::add(ToolSpec spec) {
  if (spec.instance_name.empty()) return util::invalid("tool instance name is empty");
  if (spec.tool_type.empty()) return util::invalid("tool type is empty");
  if (spec.nominal.count_minutes() <= 0)
    return util::invalid("tool '" + spec.instance_name +
                         "': nominal duration must be positive");
  if (!(spec.noise_frac >= 0 && spec.noise_frac <= 1) ||
      !(spec.fail_rate >= 0 && spec.fail_rate <= 1))
    return util::invalid("tool '" + spec.instance_name +
                         "': noise and fail rate must lie in [0, 1]");
  if (tools_.count(spec.instance_name))
    return util::conflict("duplicate tool instance '" + spec.instance_name + "'");
  order_.push_back(spec.instance_name);
  tools_.emplace(spec.instance_name, std::move(spec));
  return util::Status::ok_status();
}

bool ToolRegistry::contains(const std::string& instance_name) const {
  return tools_.count(instance_name) > 0;
}

const ToolSpec& ToolRegistry::spec(const std::string& instance_name) const {
  return tools_.at(instance_name);
}

std::vector<std::string> ToolRegistry::instances_of(const std::string& tool_type) const {
  std::vector<std::string> out;
  for (const auto& name : order_)
    if (tools_.at(name).tool_type == tool_type) out.push_back(name);
  return out;
}

std::uint64_t ToolRegistry::invocations(const std::string& instance_name) const {
  auto it = invocation_counts_.find(instance_name);
  return it == invocation_counts_.end() ? 0 : it->second;
}

util::Result<ToolOutcome> ToolRegistry::invoke(const std::string& instance_name,
                                               const std::string& expected_tool_type,
                                               const ToolInvocation& inv) {
  auto it = tools_.find(instance_name);
  if (it == tools_.end())
    return util::not_found("unknown tool instance '" + instance_name + "'");
  const ToolSpec& spec = it->second;
  if (spec.tool_type != expected_tool_type)
    return util::invalid("tool '" + instance_name + "' is a " + spec.tool_type +
                         ", activity '" + inv.activity + "' needs a " +
                         expected_tool_type);

  // Only validated invocations count: the fault plan's 1-based indices refer
  // to runs that actually reached the tool.
  const std::uint64_t k = ++invocation_counts_[instance_name];
  const std::uint64_t total = ++total_invocations_;
  FaultInjector::Decision fault;
  if (faults_) fault = faults_->decide(instance_name, k, total);
  if (fault.crash) throw InjectedCrash(instance_name, k);

  ToolOutcome out;
  double factor = 1.0;
  if (spec.noise_frac > 0)
    factor += rng_.uniform(-spec.noise_frac, spec.noise_frac);
  factor *= fault.latency_factor;
  // A product of 2^63 or more has no int64 value: saturate, and the
  // executor refuses a run that would end past the calendar.
  const double scaled = static_cast<double>(spec.nominal.count_minutes()) * factor;
  std::int64_t minutes = scaled >= 0x1p63 ? std::numeric_limits<std::int64_t>::max()
                                          : static_cast<std::int64_t>(scaled);
  if (minutes < 1) minutes = 1;
  out.duration = cal::WorkDuration::minutes(minutes);

  if (fault.fail) {
    out.success = false;
    out.fault_injected = true;
    out.log = instance_name + ": FAULT INJECTED during " + inv.activity +
              " (invocation " + std::to_string(k) + ")";
    return out;
  }
  if (spec.fail_rate > 0 && rng_.chance(spec.fail_rate)) {
    out.success = false;
    out.log = instance_name + ": FAILED during " + inv.activity;
    return out;
  }

  out.content = default_tool_content(inv);
  out.log = instance_name + ": produced " + inv.output_type + " (" +
            std::to_string(out.content.size()) + " bytes)";
  return out;
}

std::string default_tool_content(const ToolInvocation& inv) {
  std::uint64_t h = 0;
  for (const auto& c : inv.input_contents) h ^= data::content_hash(c);
  char hash_buf[24];
  std::snprintf(hash_buf, sizeof hash_buf, "%016llx",
                static_cast<unsigned long long>(h));
  std::string out = "# " + inv.output_type + " produced by activity " + inv.activity +
                    " (attempt " + std::to_string(inv.attempt) + ")\n";
  out += "# derived-from-hash: " + std::string(hash_buf) + "\n";
  for (const auto& name : inv.input_names) out += "# input: " + name + "\n";
  out += "payload " + inv.output_type + " " + std::string(hash_buf) + " attempt " +
         std::to_string(inv.attempt) + "\n";
  return out;
}

}  // namespace herc::exec
