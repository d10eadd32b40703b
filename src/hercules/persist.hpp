#pragma once
// Persistence of the Hercules database to JSON.
//
// A snapshot (format "hercsched-db-v2") holds the whole project: schema (as
// DSL), calendar, virtual clock, resources, the configuration — tool
// registry (instance, type, nominal, noise, fail rate; registration order),
// estimator (fallback and every intuition, including those the schema's
// [est] attributes seeded) and execution options (failure policy, retry,
// per-tool retry) — then the Level-4 data objects, both Level-3 spaces
// (instances/runs and plans/schedule-nodes/links), extracted task trees with
// their bindings, and which plan each task tracks.  A loaded project plans
// and executes like the one saved, with no setup after the load.
//
// NOT saved: the fault injector and the tool RNG position.  Both are cursors
// over the running process's tool-invocation counts, which journal replay
// does not advance, so a saved fault plan would re-fire its indexed faults
// after every restart; a loaded project has no injector and a fresh RNG.
// Any other format is refused.  save -> load -> save is a byte-identical
// fixed point (tested).

#include <memory>
#include <string>

#include "hercules/workflow_manager.hpp"
#include "util/result.hpp"

namespace herc::hercules {

struct RecoveryStats;  // journal.hpp

/// Serializes the full manager state.
[[nodiscard]] std::string save_to_json(const WorkflowManager& manager);

/// Appends the integrity footer save_project_file writes after the
/// serialized state:
///   `#herc-snapshot-crc32c <crc32c-hex8> <body-bytes>\n`
/// The checksum covers every byte before the footer line, so a snapshot
/// damaged in place after the atomic rename is detected at load instead of
/// being deserialized into a silently wrong project.
[[nodiscard]] std::string append_snapshot_footer(std::string text);

/// Verifies and strips the integrity footer, returning the body it covers.
/// Text without a footer is returned unchanged (pre-footer snapshots stay
/// loadable).  A footer that is malformed or does not match the body is a
/// kParse error; with `stats`, RecoveryStats::snapshot_corrupt is also set
/// so recover_project can quarantine the file.
[[nodiscard]] util::Result<std::string_view> strip_snapshot_footer(
    std::string_view text, RecoveryStats* stats = nullptr);

/// Reconstructs a manager from save_to_json output, with or without the
/// integrity footer.  Fails with kParse on malformed JSON or a checksum
/// mismatch, kInvalid/kConflict on semantic mismatches (e.g. version
/// counters that do not reproduce).  `stats` reports footer presence and
/// corruption (see strip_snapshot_footer).
[[nodiscard]] util::Result<std::unique_ptr<WorkflowManager>> load_from_json(
    std::string_view text, RecoveryStats* stats = nullptr);

/// Crash-safe snapshot: serializes the manager and atomically replaces
/// `path` (write to `path + ".tmp"`, then rename), so a crash mid-save never
/// leaves a truncated database file.  If the manager has an active run
/// journal it is restarted (truncated) afterwards — the snapshot subsumes
/// its contents.  With `durable` the replacement is fsynced (file + parent
/// directory) before the journal restarts, so a machine crash between
/// snapshot and truncation cannot lose both.
[[nodiscard]] util::Status save_project_file(WorkflowManager& manager,
                                             const std::string& path,
                                             bool durable = false);

}  // namespace herc::hercules
