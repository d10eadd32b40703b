#pragma once
// Storage chaos harness: sweeps every injected IO fault and crash point
// through a deterministic shard workload and checks the durability contract
// after each one.
//
// One trial = one fresh ProjectShard in its own scratch directory, driven
// through a fixed op sequence (executes with periodic snapshot `save`s)
// under an installed util::FaultFs that fails exactly one IO point — EIO,
// ENOSPC, a short write, a torn write (prefix lands, then the "process
// dies"), or a crash at the point.  The sweep enumerates the workload's IO
// points with a clean counting pass, then replays the workload once per
// (point, fault kind) pair, plus a batch of seeded probabilistic trials.
//
// After the faulted run the shard is discarded and the project recovered
// from whatever bytes actually reached the directory.  The contract checked
// (the same one srv_recovery_test asserts for whole-process kills):
//
//   1. recovery always succeeds — a fault can lose unacknowledged work,
//      never the ability to come back up;
//   2. acknowledged => recovered: the recovered run count is at least the
//      run count at the last acknowledged op;
//   3. byte-identity: when the recovered run count equals the count at an
//      acknowledged op, the recovered state serializes byte-identically to
//      the state captured at that ack;
//   4. recovery is a fixed point: recovering the recovered directory again
//      reproduces the same bytes;
//   5. fail-safe degradation: once an op fails on a storage fault the shard
//      is read-only — reads and stats still answer, mutations are rejected
//      with a RETRYABLE error.
//
// The harness drives each shard from one thread, and FaultFs decisions are
// a pure function of (seed, IO op index).  The shard's group committer
// writes on the thread that waits for the ack, so every IO happens on the
// harness's thread in program order: runs with the same options sweep the
// same IO points, each trial hits the same request, and the reports match.
// (Under concurrent load which request owns an index may vary; see
// util/faultfs.hpp.)

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/result.hpp"

namespace herc::srv {

struct ChaosOptions {
  std::string dir = "chaos.tmp";  ///< scratch root; trials use subdirs
  std::uint64_t seed = 1;
  int ops = 6;         ///< execute ops per trial
  int save_every = 3;  ///< every Kth op is a snapshot `save`; 0 = never
  std::size_t flow_size = 3;   ///< generated scenario size (layered)
  std::size_t max_points = 0;  ///< cap swept IO points; 0 = sweep all
  int random_trials = 4;       ///< extra trials with per-op fail probability
  double fail_prob = 0.05;     ///< probability for the random trials
};

struct ChaosReport {
  std::uint64_t io_points = 0;  ///< IO ops in the clean pass (sweep range)
  std::uint64_t trials = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t acked_ops = 0;
  std::uint64_t failed_ops = 0;  ///< unacknowledged ops (expected under faults)
  std::uint64_t read_only_trials = 0;  ///< trials that latched read-only
  std::uint64_t recoveries = 0;
  /// Contract violations, one human-readable line each.  Empty = pass.
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] std::string summary() const;
};

/// Runs the sweep.  Fails only on harness errors (cannot create the scratch
/// directory, cannot build the scenario); contract violations are reported
/// in the ChaosReport, not as an error.
[[nodiscard]] util::Result<ChaosReport> run_chaos(const ChaosOptions& options);

}  // namespace herc::srv
