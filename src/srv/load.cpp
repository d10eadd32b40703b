#include "srv/load.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>
#include <utility>

#include "srv/client.hpp"
#include "util/rng.hpp"

namespace herc::srv {

namespace {

using util::Error;
using util::Json;
using util::JsonObject;
using util::Result;
using util::Status;

using Clock = std::chrono::steady_clock;

std::string project_name(int index) { return "load" + std::to_string(index); }

/// What one designer thread accumulated.
struct WorkerTally {
  std::vector<std::int64_t> read_latencies_us;
  std::vector<std::int64_t> write_latencies_us;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t shed = 0;  ///< retryable refusals (io_error)
  std::uint64_t runs = 0;
};

/// The read-mix rotation: one shard-read-lane op per slot.  Reads run on the
/// shard's published epoch: a repeat within one epoch is a ReadView memo
/// hit, and each execute that lands publishes a new epoch, which the next
/// read of each slot evaluates afresh.
Result<wire::Response> issue_read(Client& client, const std::string& proj,
                                  const std::string& who, int slot) {
  switch (slot % 5) {
    case 0:
      return client.call(proj, "status");
    case 1:
    case 2:
    case 3: {
      static const char* kStatements[] = {
          "select plans", "select links",
          "select schedule where critical = true"};
      JsonObject args;
      args.set("statement", std::string(kStatements[slot % 5 - 1]));
      return client.call(proj, "query", std::move(args));
    }
    default: {
      JsonObject args;
      args.set("statement", "select runs where designer = \"" + who + "\"");
      return client.call(proj, "query", std::move(args));
    }
  }
}

void drive_one(const LoadOptions& options, int project, int designer,
               Clock::time_point deadline, WorkerTally& tally,
               std::atomic<bool>& abort) {
  auto client = Client::connect(options.address);
  if (!client.ok()) {
    ++tally.errors;
    return;
  }
  const std::string proj = project_name(project);
  const std::string who = "designer" + std::to_string(designer);
  util::Rng rng(options.seed * 1000003u + static_cast<std::uint64_t>(project) * 131u +
                static_cast<std::uint64_t>(designer));

  // Role split under --read-mix: the first ceil(mix% * M) designers only
  // read, the rest only write.  Their runs queries target a writer's name so
  // the scan touches real rows.
  const bool reader_role =
      options.read_mix >= 0 &&
      (designer + 1) * 100 <= options.read_mix * options.designers;
  const std::string writer_name =
      "designer" + std::to_string(options.designers - 1);

  // Read-mix writers are paced (arrivals at --rate): real execution
  // requests arrive when work is ready, they are not issued back-to-back.
  // A closed-loop writer would saturate the write lane 100% of the wall
  // clock, which models no real project and leaves nothing to contrast.
  // Readers stay closed-loop: dashboards poll as fast as they are allowed.
  const bool paced = options.read_mix >= 0 && !reader_role;
  const auto interval = std::chrono::nanoseconds(
      paced && options.rate_per_designer > 0
          ? static_cast<std::int64_t>(1e9 / options.rate_per_designer)
          : 0);
  // The arrival schedule is fixed up front; latency is measured from the
  // SCHEDULED time, so server backlog is charged to the requests that
  // queued behind it (no coordinated omission).
  auto next_arrival = Clock::now() +
                      std::chrono::nanoseconds(static_cast<std::int64_t>(
                          interval.count() * rng.uniform()));

  int n = 0;
  while (!abort.load(std::memory_order_relaxed)) {
    Clock::time_point issued;
    if (paced) {
      if (next_arrival >= deadline) break;
      std::this_thread::sleep_until(next_arrival);
      issued = next_arrival;
      next_arrival += interval;
    } else {
      issued = Clock::now();
      if (issued >= deadline) break;
    }

    ++n;
    const bool is_read = options.read_mix >= 0
                             ? reader_role
                             : options.read_every > 0 && n % options.read_every == 0;
    Result<wire::Response> response =
        Error{Error::Code::kInvalid, "unsent"};
    if (is_read) {
      response = issue_read(*client.value(), proj,
                            options.read_mix >= 0 ? writer_name : who, n);
    } else {
      JsonObject args;
      args.set("designer", who);
      response = client.value()->call(proj, "execute", std::move(args));
    }
    auto done = Clock::now();

    ++tally.requests;
    if (!response.ok()) {
      ++tally.errors;
      return;  // transport gone; this designer is done
    }
    if (!response.value().ok) {
      // Retryable refusals (a degraded shard) are the server working as
      // designed; a closed loop simply tries again.
      if (response.value().error.retryable()) {
        ++tally.shed;
      } else {
        ++tally.errors;
      }
      continue;
    }
    if (response.value().result.is_object() &&
        response.value().result.as_object().contains("runs")) {
      tally.runs += static_cast<std::uint64_t>(
          response.value().result.as_object().at("runs").as_int());
    }
    auto& bucket = is_read ? tally.read_latencies_us : tally.write_latencies_us;
    bucket.push_back(
        std::chrono::duration_cast<std::chrono::microseconds>(done - issued)
            .count());
  }
}

std::int64_t percentile(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  auto index = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

}  // namespace

Json LoadReport::to_json() const {
  JsonObject o;
  o.set("requests", Json(static_cast<std::int64_t>(requests)));
  o.set("errors", Json(static_cast<std::int64_t>(errors)));
  o.set("shed", Json(static_cast<std::int64_t>(shed)));
  o.set("runs", Json(static_cast<std::int64_t>(runs)));
  o.set("elapsed_sec", Json(elapsed_sec));
  o.set("runs_per_sec", Json(runs_per_sec));
  o.set("requests_per_sec", Json(requests_per_sec));
  o.set("p50_us", Json(p50_us));
  o.set("p99_us", Json(p99_us));
  o.set("max_us", Json(max_us));
  o.set("reads", Json(static_cast<std::int64_t>(reads)));
  o.set("writes", Json(static_cast<std::int64_t>(writes)));
  o.set("reads_per_sec", Json(reads_per_sec));
  o.set("read_p50_us", Json(read_p50_us));
  o.set("read_p99_us", Json(read_p99_us));
  o.set("write_p50_us", Json(write_p50_us));
  o.set("write_p99_us", Json(write_p99_us));
  o.set("journal_lines", Json(journal_lines));
  o.set("group_commits", Json(group_commits));
  return Json(std::move(o));
}

std::string LoadReport::summary() const {
  std::ostringstream out;
  out << requests << " reqs (" << errors << " errors, " << shed
      << " shed), " << runs << " runs in "
      << elapsed_sec << "s = " << runs_per_sec << " runs/s; latency p50 "
      << p50_us << "us p99 " << p99_us << "us; " << journal_lines
      << " journal lines in " << group_commits << " flushes";
  if (reads > 0 && writes > 0) {
    out << "\n  reads: " << reads << " (" << reads_per_sec << "/s) p50 "
        << read_p50_us << "us p99 " << read_p99_us << "us; writes: " << writes
        << " p50 " << write_p50_us << "us p99 " << write_p99_us << "us";
  }
  return out.str();
}

Result<LoadReport> run_load(const LoadOptions& options) {
  auto control = Client::connect(options.address);
  if (!control.ok()) return control.error();

  for (int p = 0; p < options.projects; ++p) {
    JsonObject args;
    args.set("name", project_name(p));
    args.set("scenario_seed", Json(static_cast<std::int64_t>(options.seed + p)));
    args.set("shape", options.shape);
    args.set("size", Json(static_cast<std::int64_t>(options.size)));
    auto opened = control.value()->invoke("", "open", std::move(args));
    if (!opened.ok()) return opened.error();
  }
  // Plan each project once so the read mix's status op has a plan to report
  // against (mirrors a real session: plan, then track).
  for (int p = 0; p < options.projects; ++p) {
    auto planned = control.value()->invoke(project_name(p), "plan");
    if (!planned.ok()) return planned.error();
  }

  // Warmup: grow each project to mid-flight size before the clock starts.
  for (int p = 0; p < options.projects; ++p) {
    for (int w = 0; w < options.warmup_executes; ++w) {
      JsonObject args;
      args.set("designer",
               "designer" + std::to_string(options.designers - 1));
      auto r = control.value()->invoke(project_name(p), "execute",
                                       std::move(args));
      if (!r.ok()) return r.error();
    }
  }

  auto stats_before = control.value()->invoke("", "stats");
  if (!stats_before.ok()) return stats_before.error();

  const int threads_n = options.projects * options.designers;
  std::vector<WorkerTally> tallies(static_cast<std::size_t>(threads_n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(threads_n));
  std::atomic<bool> abort{false};

  auto start = Clock::now();
  auto deadline = start + options.duration;
  for (int p = 0; p < options.projects; ++p) {
    for (int d = 0; d < options.designers; ++d) {
      WorkerTally& tally = tallies[static_cast<std::size_t>(
          p * options.designers + d)];
      threads.emplace_back([&options, p, d, deadline, &tally, &abort] {
        drive_one(options, p, d, deadline, tally, abort);
      });
    }
  }
  for (auto& thread : threads) thread.join();
  auto elapsed = Clock::now() - start;

  LoadReport report;
  std::vector<std::int64_t> latencies, reads, writes;
  for (auto& tally : tallies) {
    report.requests += tally.requests;
    report.errors += tally.errors;
    report.shed += tally.shed;
    report.runs += tally.runs;
    reads.insert(reads.end(), tally.read_latencies_us.begin(),
                 tally.read_latencies_us.end());
    writes.insert(writes.end(), tally.write_latencies_us.begin(),
                  tally.write_latencies_us.end());
  }
  latencies.reserve(reads.size() + writes.size());
  latencies.insert(latencies.end(), reads.begin(), reads.end());
  latencies.insert(latencies.end(), writes.begin(), writes.end());
  std::sort(latencies.begin(), latencies.end());
  std::sort(reads.begin(), reads.end());
  std::sort(writes.begin(), writes.end());
  report.p50_us = percentile(latencies, 0.50);
  report.p99_us = percentile(latencies, 0.99);
  report.max_us = latencies.empty() ? 0 : latencies.back();
  report.reads = reads.size();
  report.writes = writes.size();
  report.read_p50_us = percentile(reads, 0.50);
  report.read_p99_us = percentile(reads, 0.99);
  report.write_p50_us = percentile(writes, 0.50);
  report.write_p99_us = percentile(writes, 0.99);
  report.elapsed_sec =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  if (report.elapsed_sec > 0) {
    report.runs_per_sec = static_cast<double>(report.runs) / report.elapsed_sec;
    report.requests_per_sec =
        static_cast<double>(report.requests) / report.elapsed_sec;
    report.reads_per_sec = static_cast<double>(report.reads) / report.elapsed_sec;
  }

  // Durability accounting: flushes/lines attributable to the drive window.
  auto stats_after = control.value()->invoke("", "stats");
  if (stats_after.ok() && stats_after.value().is_object() &&
      stats_before.value().is_object()) {
    auto totals = [](const Json& stats, const char* key) -> std::int64_t {
      const JsonObject& o = stats.as_object();
      if (!o.contains("totals")) return 0;
      const JsonObject& t = o.at("totals").as_object();
      return t.contains(key) ? t.at(key).as_int() : 0;
    };
    report.journal_lines = totals(stats_after.value(), "journal_lines") -
                           totals(stats_before.value(), "journal_lines");
    report.group_commits = totals(stats_after.value(), "srv_group_commits") -
                           totals(stats_before.value(), "srv_group_commits");
  }
  return report;
}

}  // namespace herc::srv
