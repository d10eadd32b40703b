#pragma once
// Load driver for the server: N projects x M simulated designers, each
// designer a thread with its own connection, all hammering `execute` (plus
// a sprinkling of reads) until a deadline.  It measures throughput, latency
// and group-commit batching under real socket + shard contention, which the
// in-process microbenches cannot.
//
// Designers run a closed loop: each issues its next request the moment the
// previous response lands, so offered load tracks capacity and latencies
// measure service time under full contention.  Under --read-mix the writers
// are paced instead: each issues executes on a fixed schedule (rate/sec,
// deterministically jittered) whatever the completions, and latency is
// measured from the scheduled time, so backlog is charged to the requests
// that queued behind it (coordinated-omission safe).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/result.hpp"

namespace herc::srv {

struct LoadOptions {
  std::string address;  ///< server to drive ("unix:..." / "tcp:...")
  int projects = 8;
  int designers = 4;  ///< per project
  std::chrono::milliseconds duration{5000};

  double rate_per_designer = 20.0;  ///< read-mix writers: executes/sec each

  /// Every Kth request is a read (`status` op) instead of an `execute`;
  /// 0 = mutations only.
  int read_every = 0;

  /// Percentage (0-100) of DESIGNERS dedicated to reads; -1 = off (use
  /// read_every).  With `--read-mix 90 --designers 8 --projects 1`, 7
  /// threads are managers polling the project (status + a query rotation:
  /// `select plans`, `select links`, `select schedule where critical =
  /// true`, `select runs where designer = ...`) while 1 thread executes
  /// flows at rate_per_designer.  Roles are dedicated — not a per-request
  /// coin flip — because that is the contended shape: in a closed loop a
  /// mixed designer cannot read while its own write is in flight, which
  /// pins read throughput to a fixed multiple of write throughput and hides
  /// exactly the blocking this workload exists to measure.  This is the
  /// MVCC headline (readers must not stall behind the writer's lock).
  int read_mix = -1;

  std::uint64_t seed = 1;        ///< scenario seeds: seed, seed+1, ...
  std::string shape = "layered";
  std::size_t size = 3;          ///< kept small: latency, not flow width

  /// Executes issued per project before the measured window starts, so the
  /// drive hits a mid-flight project (thousands of recorded runs) rather
  /// than a freshly planned one.  Identical state for every config under
  /// comparison; 0 = drive the fresh project.
  int warmup_executes = 0;
};

struct LoadReport {
  std::uint64_t requests = 0;  ///< responses received
  std::uint64_t errors = 0;    ///< transport errors + HARD ok=false responses
  /// Responses the server declined with a RETRYABLE error (a read-only
  /// shard's `io_error`).  Counted apart from `errors`: a degraded shard is
  /// the server protecting itself, not the workload failing — CI asserts
  /// errors == 0 while a shed count merely dents throughput.
  std::uint64_t shed = 0;
  std::uint64_t runs = 0;      ///< tool runs the executes produced
  double elapsed_sec = 0.0;
  double runs_per_sec = 0.0;
  double requests_per_sec = 0.0;
  // Latency percentiles over per-request wall time, microseconds.
  std::int64_t p50_us = 0;
  std::int64_t p99_us = 0;
  std::int64_t max_us = 0;
  // Read/write split (reads = query/status/..., writes = execute).  Reads
  // and writes have wildly different service times, so the combined
  // percentiles above say little under --read-mix; these are the headline.
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double reads_per_sec = 0.0;
  std::int64_t read_p50_us = 0;
  std::int64_t read_p99_us = 0;
  std::int64_t write_p50_us = 0;
  std::int64_t write_p99_us = 0;
  // Durability accounting from the server's `stats` op: how many physical
  // flushes covered how many journal lines.
  std::int64_t journal_lines = 0;
  std::int64_t group_commits = 0;

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] std::string summary() const;  ///< one human line
};

/// Runs the workload to completion.  Fails fast if the server is
/// unreachable or a project cannot be opened.
[[nodiscard]] util::Result<LoadReport> run_load(const LoadOptions& options);

}  // namespace herc::srv
