#pragma once
// Simulated CAD tools.
//
// The paper ran real Mentor/Odyssey tools; we substitute deterministic
// simulated tools (see DESIGN.md).  A ToolSpec registers one *tool instance*
// (e.g. "spice3f5@server1") of a Level-1 tool type with a duration model
// (nominal run time, optional multiplicative noise) and a failure rate.  A
// spec is plain data, so a project snapshot carries its registry
// (hercules/persist.hpp); a successful run's output is default_tool_content
// of its inputs.  All randomness comes from one seeded RNG in the registry, so
// whole experiments replay bit-identically.

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "calendar/work_calendar.hpp"
#include "exec/fault.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace herc::exec {

/// What a tool sees when invoked.
struct ToolInvocation {
  std::string activity;                ///< construction-rule activity name
  std::string output_type;             ///< data type to produce
  std::vector<std::string> input_names;
  std::vector<std::string> input_contents;
  int attempt = 1;                     ///< 1-based iteration count of this activity
};

/// What a tool produces.
struct ToolOutcome {
  bool success = true;
  std::string content;       ///< synthetic design data (empty on failure)
  cal::WorkDuration duration;///< how long the run took, in work time
  std::string log;           ///< one-line tool log for the run record
  bool fault_injected = false;  ///< failure came from the FaultInjector
};

/// Registration record for one tool instance.
struct ToolSpec {
  std::string instance_name;  ///< unique binding name, e.g. "spice3f5@server1"
  std::string tool_type;      ///< Level-1 tool type it instantiates
  cal::WorkDuration nominal = cal::WorkDuration::hours(4);
  double noise_frac = 0.0;    ///< uniform +-fraction applied to nominal
  double fail_rate = 0.0;     ///< probability a run fails
};

/// Registry of tool instances, keyed by instance name.
class ToolRegistry {
 public:
  explicit ToolRegistry(std::uint64_t seed = 1) : rng_(seed) {}

  /// Fails on duplicate instance names (kConflict), empty names, a nominal
  /// that is not positive, or a noise_frac / fail_rate outside [0, 1]
  /// (kInvalid).
  util::Status add(ToolSpec spec);

  [[nodiscard]] bool contains(const std::string& instance_name) const;
  [[nodiscard]] const ToolSpec& spec(const std::string& instance_name) const;

  /// All registered instances of a tool type.
  [[nodiscard]] std::vector<std::string> instances_of(const std::string& tool_type) const;
  /// Every registered instance, in registration order.
  [[nodiscard]] const std::vector<std::string>& instances() const { return order_; }

  /// Runs the simulated tool.  kNotFound if the binding is unknown;
  /// kInvalid if its type differs from `expected_tool_type`.  Throws
  /// InjectedCrash when the installed fault injector hits a crash point.
  [[nodiscard]] util::Result<ToolOutcome> invoke(const std::string& instance_name,
                                                 const std::string& expected_tool_type,
                                                 const ToolInvocation& inv);

  /// Installs (or clears, with nullptr) a fault injector consulted on every
  /// invoke.  Borrowed; the caller keeps it alive while installed.
  void set_fault_injector(const FaultInjector* injector) { faults_ = injector; }
  [[nodiscard]] const FaultInjector* fault_injector() const { return faults_; }

  /// 1-based count of invoke() calls that reached `instance_name` so far
  /// (the index the fault plan's fail_on/crash_on lists refer to).
  [[nodiscard]] std::uint64_t invocations(const std::string& instance_name) const;
  [[nodiscard]] std::uint64_t total_invocations() const { return total_invocations_; }

 private:
  std::unordered_map<std::string, ToolSpec> tools_;
  std::vector<std::string> order_;  // registration order
  util::Rng rng_;
  const FaultInjector* faults_ = nullptr;
  std::unordered_map<std::string, std::uint64_t> invocation_counts_;
  std::uint64_t total_invocations_ = 0;
};

/// Default content synthesizer: a small readable artifact that mixes the
/// activity, output type and a hash of the inputs, so downstream content
/// changes whenever any upstream content changes (needed for the versioning
/// tests).
[[nodiscard]] std::string default_tool_content(const ToolInvocation& inv);

}  // namespace herc::exec
