#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/strings.hpp"

namespace herc::obs {

namespace {

/// Renders ns durations like "1.25ms" for the text dump.
std::string ns_str(double ns) {
  char buf[32];
  if (ns < 1e3) std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  else if (ns < 1e6) std::snprintf(buf, sizeof(buf), "%.2fus", ns / 1e3);
  else if (ns < 1e9) std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  else std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  return buf;
}

}  // namespace

void Histogram::record(std::int64_t ns) {
  if (ns < 0) ns = 0;
  int bucket = 0;
  while (bucket + 1 < kBuckets && (std::int64_t{1} << (bucket + 1)) <= ns) ++bucket;
  ++buckets_[bucket];
  if (count_ == 0 || ns < min_) min_ = ns;
  if (ns > max_) max_ = ns;
  ++count_;
  sum_ += ns;
}

std::int64_t Histogram::quantile_ns(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) return std::int64_t{1} << (i + 1);
  }
  return max_;
}

void MetricsRegistry::attach(EventBus& bus) {
  detach();
  bus_ = &bus;
  bus.subscribe(this);
}

void MetricsRegistry::detach() {
  if (bus_ == nullptr) return;
  bus_->unsubscribe(this);
  bus_ = nullptr;
}

void MetricsRegistry::add(const std::string& counter, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[counter] += delta;
}

void MetricsRegistry::record_latency(const std::string& histogram, std::int64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[histogram].record(ns);
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  histograms_.clear();
}

void MetricsRegistry::on_event(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (event.kind) {
    case EventKind::kRunStarted:
      ++counters_["runs_started"];
      break;
    case EventKind::kRunFinished:
      ++counters_["runs_executed"];
      if (event.failed) ++counters_["runs_failed"];
      break;
    case EventKind::kInstanceCreated:
      ++counters_["instances_created"];
      break;
    case EventKind::kSchedulePlanned:
      ++counters_["plans_computed"];
      for (const auto& [key, value] : event.args)
        if (key == "derived_from") ++counters_["replans"];
      break;
    case EventKind::kActivityPlanned:
      ++counters_["activities_planned"];
      break;
    case EventKind::kActivityLinked:
      ++counters_["completions_linked"];
      break;
    case EventKind::kSlipPropagated:
      // A failed projection left the plan's displayed dates stale — count it
      // apart so it never hides inside the normal re-projection traffic.
      if (event.failed) {
        ++counters_["project_failures"];
        break;
      }
      // Every re-projection invalidates the previously displayed dates and
      // runs one CPM pass over the watched plan.
      ++counters_["replan_invalidations"];
      ++counters_["cpm_passes"];
      if (event.duration_ns >= 0)
        histograms_["slip_projection"].record(event.duration_ns);
      break;
    case EventKind::kQueryExecuted:
      ++counters_["queries_executed"];
      if (event.failed) ++counters_["queries_failed"];
      if (event.duration_ns >= 0)
        histograms_["query_latency"].record(event.duration_ns);
      // Query fast-path counters ride along as args-as-deltas (same carrier
      // idiom as the "cpm.solver" scope below).
      for (const auto& [key, value] : event.args) {
        char* end = nullptr;
        const std::uint64_t delta = std::strtoull(value.c_str(), &end, 10);
        if (end == value.c_str()) continue;
        if (key == "rows_scanned") counters_["rows_scanned"] += delta;
        else if (key == "index_seeks") counters_["index_seeks"] += delta;
        else if (key == "cache_hits") counters_["query_cache_hits"] += delta;
        else if (key == "cache_misses") counters_["query_cache_misses"] += delta;
      }
      break;
    case EventKind::kScope:
      if (event.name == "cpm") ++counters_["cpm_passes"];
      // Scheduling-kernel stats carrier (see sched::publish_solver_stats):
      // args hold counter deltas instead of a wall-clock duration.
      if (event.name == "cpm.solver") {
        for (const auto& [key, value] : event.args) {
          char* end = nullptr;
          const std::uint64_t delta = std::strtoull(value.c_str(), &end, 10);
          if (end == value.c_str()) continue;
          if (key == "compiles") counters_["solver_compiles"] += delta;
          else if (key == "solves") counters_["solver_solves"] += delta;
          else if (key == "resolves") counters_["solver_incremental_solves"] += delta;
          else if (key == "batched") counters_["solver_batched_lanes"] += delta;
        }
      }
      // Executor fault-tolerance stats carrier (see
      // exec::Executor::publish_fault_stats): same args-as-deltas idiom.
      if (event.name == "exec.faults") {
        for (const auto& [key, value] : event.args) {
          char* end = nullptr;
          const std::uint64_t delta = std::strtoull(value.c_str(), &end, 10);
          if (end == value.c_str()) continue;
          if (key == "retries") counters_["run_retries"] += delta;
          else if (key == "timeouts") counters_["run_timeouts"] += delta;
          else if (key == "degraded") counters_["runs_degraded"] += delta;
        }
      }
      if (event.duration_ns >= 0)
        histograms_["scope." + event.name].record(event.duration_ns);
      break;
  }
}

std::string MetricsRegistry::text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "counters:\n";
  if (counters_.empty()) out += "  (none)\n";
  for (const auto& [name, value] : counters_)
    out += "  " + util::pad_right(name, 24) + std::to_string(value) + "\n";
  out += "latency histograms:\n";
  if (histograms_.empty()) out += "  (none)\n";
  for (const auto& [name, h] : histograms_) {
    out += "  " + util::pad_right(name, 24) + "count=" + std::to_string(h.count()) +
           " mean=" + ns_str(h.mean_ns()) +
           " min=" + ns_str(static_cast<double>(h.min_ns())) +
           " max=" + ns_str(static_cast<double>(h.max_ns())) +
           " p90<=" + ns_str(static_cast<double>(h.quantile_ns(0.9))) + "\n";
  }
  return out;
}

util::Json MetricsRegistry::json() const {
  std::lock_guard<std::mutex> lock(mu_);
  util::JsonObject counters;
  for (const auto& [name, value] : counters_)
    counters.set(name, static_cast<std::int64_t>(value));
  util::JsonObject histograms;
  for (const auto& [name, h] : histograms_) {
    util::JsonObject one;
    one.set("count", static_cast<std::int64_t>(h.count()));
    one.set("sum_ns", h.sum_ns());
    one.set("min_ns", h.min_ns());
    one.set("max_ns", h.max_ns());
    one.set("mean_ns", h.mean_ns());
    util::JsonArray buckets;
    // Trailing empty buckets are elided; index i covers [2^i, 2^(i+1)) ns.
    int last = Histogram::kBuckets;
    while (last > 0 && h.buckets()[last - 1] == 0) --last;
    for (int i = 0; i < last; ++i)
      buckets.push_back(static_cast<std::int64_t>(h.buckets()[i]));
    one.set("log2_buckets", std::move(buckets));
    histograms.set(name, std::move(one));
  }
  util::JsonObject root;
  root.set("counters", std::move(counters));
  root.set("histograms", std::move(histograms));
  return root;
}

}  // namespace herc::obs
