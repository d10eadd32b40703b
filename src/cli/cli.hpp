#pragma once
// Command-line session over the workflow manager.
//
// The paper's Hercules exposed its operations through a Motif GUI (Fig. 8);
// this is the scriptable equivalent: one command per line covering the full
// procedure (schema -> tools -> task -> bind -> estimate -> plan -> execute
// -> link -> status) plus queries, what-if analysis, the browser, the clock
// and persistence.  `examples/herc_shell` wraps it in a REPL; tests drive it
// line by line.
//
// Commands (run `help` for the same list):
//
//   new <schema-file> [epoch YYYY-MM-DD]     create a project from a schema
//   schema <inline-dsl>                      create a project from inline DSL
//   show schema|db|task <name>
//   tool <instance> <type> <nominal> [noise <frac>] [fail <rate>]
//   resource <name> [kind] [capacity]
//   task <name> <target-type> [stop <type> ...]
//   bind <task> <type> <instance>
//   estimate <activity> <duration>           e.g. estimate Route 2d 4h
//   estimate fallback <duration>
//   plan <task> [strategy intuition|last|mean|ewma|pert] [level]
//   replan <task> [strategy ...] [level]
//   execute <task> <designer>
//   run <task> <activity> <designer>
//   link <task> <activity>
//   gantt <task>            svg <task>
//   status <task>           lineage <task>
//   query <statement>
//   browse | select <id> | display | delete
//   whatif delay <task> <activity> <duration>
//   whatif crash <task> <deadline-duration-from-epoch>
//   retry <max> [backoff <dur>] [timeout <dur>] [tool <instance>]
//   onfail abort|retry|continue
//   faults seed|tool|crashafter|show|off ...   (deterministic fault injection)
//   journal on <file> | journal off            (crash-safe run journal)
//   recover <snapshot> <journal>
//   advance <duration>      now
//   save <file> | open <file>                  (the whole project but its
//                                              faults; save is atomic)
//   remote connect unix:/path|tcp:host:port    talk to a herc_srv instance
//   remote ping|projects|stats|disconnect
//   remote open <name> [seed=N] [shape=S] [size=K]   remote close <name>
//   remote <project> <op> [key=value ...]      generic server op passthrough
//   quit

#include <memory>
#include <string>

#include "gantt/browser.hpp"
#include "hercules/workflow_manager.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "srv/client.hpp"

namespace herc::cli {

class CliSession {
 public:
  CliSession() = default;
  /// Flushes an active trace to its file (best effort) before teardown.
  ~CliSession();

  // Movable (the bus points at the heap-allocated subscribers, which do not
  // move with the session), not copyable.
  CliSession(CliSession&&) = default;
  CliSession& operator=(CliSession&&) = default;

  /// Executes one command line; returns the text to display.  Unknown
  /// commands, bad arguments and subsystem failures come back as errors.
  /// Blank lines and '#' comments return empty output.
  [[nodiscard]] util::Result<std::string> execute_line(const std::string& line);

  [[nodiscard]] bool quit_requested() const { return quit_; }

  /// The managed project; null until `new`/`schema`/`open` succeeds.
  [[nodiscard]] hercules::WorkflowManager* manager() { return manager_.get(); }

  /// Installs a manager built elsewhere (tests, embedding).
  void adopt(std::unique_ptr<hercules::WorkflowManager> manager);

 private:
  using Args = std::vector<std::string>;

  util::Result<std::string> dispatch(const Args& args);
  util::Result<std::string> cmd_new(const Args& args);
  util::Result<std::string> cmd_schema(const std::string& rest);
  util::Result<std::string> cmd_show(const Args& args);
  util::Result<std::string> cmd_tool(const Args& args);
  util::Result<std::string> cmd_resource(const Args& args);
  util::Result<std::string> cmd_vacation(const Args& args);
  util::Result<std::string> cmd_task(const Args& args);
  util::Result<std::string> cmd_bind(const Args& args);
  util::Result<std::string> cmd_estimate(const Args& args);
  util::Result<std::string> cmd_plan(const Args& args, bool replan);
  util::Result<std::string> cmd_execute(const Args& args);
  util::Result<std::string> cmd_run(const Args& args);
  util::Result<std::string> cmd_link(const Args& args);
  util::Result<std::string> cmd_whatif(const Args& args);
  util::Result<std::string> cmd_retry(const Args& args);
  util::Result<std::string> cmd_onfail(const Args& args);
  util::Result<std::string> cmd_faults(const Args& args);
  util::Result<std::string> cmd_journal(const Args& args);
  util::Result<std::string> cmd_recover(const Args& args);
  util::Result<std::string> cmd_browse_ops(const Args& args);
  util::Result<std::string> cmd_trace(const Args& args);
  util::Result<std::string> cmd_stats(const Args& args);
  util::Result<std::string> cmd_save(const Args& args);
  util::Result<std::string> cmd_open(const Args& args);
  util::Result<std::string> cmd_remote(const Args& args);

  /// Fails unless a project exists.
  util::Result<hercules::WorkflowManager*> need_manager();

  std::unique_ptr<hercules::WorkflowManager> manager_;
  std::unique_ptr<gantt::ScheduleBrowser> browser_;
  // Session-wide observability: metrics always follow the current project's
  // bus; the exporter exists only between `trace on` and `trace off`.
  // Declared after manager_ so they detach from the bus before it dies.
  std::unique_ptr<obs::MetricsRegistry> metrics_ =
      std::make_unique<obs::MetricsRegistry>();
  std::unique_ptr<obs::ChromeTraceExporter> exporter_;
  std::string trace_path_;
  // `remote connect` session against a herc_srv instance; local project
  // commands keep working side by side (the CLI is then a thin wire client
  // for the remote ops and a full workflow manager for the local ones).
  std::unique_ptr<srv::Client> remote_;
  bool quit_ = false;
};

}  // namespace herc::cli
