// perfbench_srv — the server benchmark.
//
//   perfbench_srv --workload flow-exec|dashboard|replan --seed N --seconds S
//                 --trace 0|1
//
// --trace 0 runs the workload once and prints the end-to-end metrics;
// --trace 1 runs it untraced, then traced, then replays its ops down the
// layer ladder (ladder.hpp) and prints the per-layer metrics.  Human-readable
// diagnostics come first; the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any output check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ladder.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// All digits as measured; a value a failed run could not measure is 0.
std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// p50 and p90 of one timing, refused (a check failure) under the
/// ten-beyond rule.
bool percentiles(const char* what, const std::vector<double>& ms, double& p50,
                 double& p90, RunResult& r) {
  auto a = percentile(ms, 0.5);
  auto b = percentile(ms, 0.9);
  if (!a || !b) {
    r.mismatch(std::string(what) + ": " + std::to_string(ms.size()) +
               " samples, too few for p90");
    return false;
  }
  p50 = *a;
  p90 = *b;
  return true;
}

/// The workload's headline: what `throughput_per_s`, `p50_ms` and `p90_ms`
/// measure on it.
struct Headline {
  const char* throughput;  ///< name of the rate in the diagnostics
  const char* latency;     ///< name of the timed op
  double per_s = 0.0;
  const std::vector<double>* ms = nullptr;
};

Headline headline(Workload w, const RunResult& r) {
  const auto rate = [](std::uint64_t n, double s) { return static_cast<double>(n) / s; };
  switch (w) {
    case Workload::kFlowExec:
      return {"runs_per_s", "exec", rate(r.runs, r.timed_s), &headline_ms(w, r)};
    case Workload::kDashboard:
      return {"reads_per_s", "read", rate(r.reads, r.read_span_s), &headline_ms(w, r)};
    case Workload::kReplan:
      return {"cycles_per_s", "replan", rate(r.cycles, r.timed_s), &headline_ms(w, r)};
  }
  return {};
}

std::vector<Metric> end_to_end(Workload w, RunResult& r) {
  const Headline h = headline(w, r);
  double p50 = 0, p90 = 0, e50 = 0, e90 = 0;
  percentiles(h.latency, *h.ms, p50, p90, r);
  percentiles("exec", r.exec_ms, e50, e90, r);
  return {
      {"setup_s", median(r.setup_s), "s"},
      {"ok_share", 1.0 - r.failures.share(r.attempted), "ratio"},
      {"cpu_us_per_op", r.cpu.us_per_op(r.completed), "us"},
      {"throughput_per_s", h.per_s, "1/s"},
      {"p50_ms", p50, "ms"},
      {"p90_ms", p90, "ms"},
      {"exec_p50_ms", e50, "ms"},
      {"exec_p90_ms", e90, "ms"},
      {"recover_s", median(r.recover_s), "s"},
  };
}

void print_diagnostics(Workload w, const RunResult& r, const char* tag) {
  const Headline h = headline(w, r);
  auto p = [](const std::vector<double>& v, double q) {
    auto x = percentile(v, q);
    return x ? json_number(*x) : std::string("n/a");
  };
  std::printf("[%s] %s: %zu %s samples, %s %.1f, timed %.3f s, cpu %.3f s, "
              "steal %.1f%%\n",
              tag, workload_name(w), h.ms->size(), h.latency, h.throughput, h.per_s,
              r.timed_s, r.cpu.seconds(), 100.0 * r.steal());
  std::printf("[%s]   attempted %llu completed %llu; failures: transport %llu, "
              "hard %llu, shed %llu\n",
              tag, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.failures.transport),
              static_cast<unsigned long long>(r.failures.hard),
              static_cast<unsigned long long>(r.failures.shed));
  struct Timing {
    const char* name;
    const std::vector<double>* ms;
  };
  for (const Timing& t : {Timing{"exec", &r.exec_ms}, Timing{"read", &r.read_ms},
                          Timing{"replan", &r.replan_ms}}) {
    if (t.ms->empty()) continue;
    std::printf("[%s]   %s ms: n=%zu p50 %s p90 %s p99 %s\n", tag, t.name, t.ms->size(),
                p(*t.ms, 0.5).c_str(), p(*t.ms, 0.9).c_str(), p(*t.ms, 0.99).c_str());
  }
  if (!r.lateness_ms.empty())
    std::printf("[%s]   writer lateness ms: p50 %s p90 %s; %zu writes, "
                "%.1f/s over the reads\n",
                tag, p(r.lateness_ms, 0.5).c_str(), p(r.lateness_ms, 0.9).c_str(),
                r.exec_ms.size(), static_cast<double>(r.exec_ms.size()) / r.read_span_s);
  std::printf("[%s]   by round: host steal, requests/s, journal lines per commit:", tag);
  for (std::size_t i = 0; i < r.round_steal.size(); ++i)
    std::printf(" %.1f%% %.0f/s %.1f;", 100.0 * r.round_steal[i], r.round_rate[i],
                r.round_batch[i]);
  std::printf("\n[%s]   srv_queue_depth max %lld; setup_s", tag,
              static_cast<long long>(r.queue_depth_max));
  for (double s : r.setup_s) std::printf(" %.4f", s);
  std::printf("; recover_s");
  for (double s : r.recover_s) std::printf(" %.4f", s);
  std::printf("\n");
}

void print_result(bool correct, const RunResult& r, const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failures.total()) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool report_mismatches(const std::vector<std::string>& mismatches) {
  for (std::size_t i = 0; i < mismatches.size() && i < 20; ++i)
    std::printf("MISMATCH: %s\n", mismatches[i].c_str());
  if (mismatches.size() > 20)
    std::printf("MISMATCH: ... %zu in all\n", mismatches.size());
  return mismatches.empty();
}

/// Writes the traced run's spans — the workload's client spans and the
/// ladder's — as a Chrome trace (one process per rung).
std::string write_trace(const Options& o, const Plan& plan, const RunResult& traced,
                        const LayerReport& layers) {
  const std::string path = std::string(".bench_build/perfbench-trace-") +
                           workload_name(o.workload) + "-" + std::to_string(o.seed) +
                           ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return "";
  const std::int64_t origin = traced.spans.empty() ? 0 : traced.spans.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  auto event = [&](const std::string& name, int pid, std::uint64_t tid, std::uint32_t id,
                   std::int64_t start, std::int64_t end) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %u}}",
                 first ? "" : ",\n", name.c_str(), pid,
                 static_cast<unsigned long long>(tid),
                 static_cast<double>(start - origin) / 1e3,
                 static_cast<double>(end - start) / 1e3, id);
    first = false;
  };
  for (const Span& s : traced.spans)
    event(plan.timed[s.conn][s.op].op, 0, s.conn, s.op, s.start_ns, s.end_ns);
  for (const TraceSpan& s : layers.spans)
    event(s.name, s.rung, 0, s.id, s.start_ns, s.end_ns);
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return path;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_srv --workload flow-exec|dashboard|replan --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

int run(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      auto w = parse_workload(value);
      if (!w) return usage();
      options.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage();
    } else if (key == "--seconds") {
      const long seconds = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || seconds < 1 || seconds > 3600) return usage();
      options.seconds = static_cast<int>(seconds);
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();

  const Plan plan = make_plan(options);
  const IdlePoller poller;  // for the whole run: set-up, timed phases, recovery, ladder
  RunResult untraced = run_workload(options, plan, false);
  std::vector<Metric> e2e = end_to_end(options.workload, untraced);
  print_diagnostics(options.workload, untraced, "untraced");
  if (!options.trace) {
    const bool correct = report_mismatches(untraced.mismatches);
    print_result(correct, untraced, e2e);
    return correct ? 0 : 1;
  }

  RunResult traced = run_workload(options, plan, true);
  std::vector<Metric> traced_e2e = end_to_end(options.workload, traced);
  print_diagnostics(options.workload, traced, "traced");
  for (std::size_t i = 0; i < e2e.size(); ++i)
    std::printf("[trace] %s untraced %s traced %s %s\n", e2e[i].name.c_str(),
                json_number(e2e[i].value).c_str(),
                json_number(traced_e2e[i].value).c_str(), e2e[i].unit.c_str());
  LayerReport layers = run_ladder(options, plan, untraced, traced);
  std::vector<std::string> mismatches = untraced.mismatches;
  mismatches.insert(mismatches.end(), traced.mismatches.begin(), traced.mismatches.end());
  mismatches.insert(mismatches.end(), layers.mismatches.begin(), layers.mismatches.end());
  const std::string trace_path = write_trace(options, plan, traced, layers);
  std::printf("[trace] %zu spans written to %s\n",
              traced.spans.size() + layers.spans.size(),
              trace_path.empty() ? "nowhere (cannot open the file)" : trace_path.c_str());
  const bool correct = report_mismatches(mismatches);
  print_result(correct, traced, layers.metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const int code = perfbench::run(argc, argv);
  perfbench::remove_dir(perfbench::run_root());
  return code;
}
