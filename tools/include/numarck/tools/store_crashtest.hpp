// Crash-injection campaign for the tiered checkpoint store (src/store/).
//
// Each trial drives a seed-replayable operation schedule — puts (delta and
// forced-full), kBest promotions, prunes, compactions — against a
// CheckpointStore whose sinks are crash-injected, kills the "process" at a
// random byte budget, and then verifies the store's durability contract on
// the survivor directory:
//   * the reopen succeeds (recovery-by-default: stale tmps swept, orphans
//     quarantined) and the directory is left clean and writable;
//   * the published manifest never references a missing or damaged file —
//     checked read-only, before recovery is allowed to repair anything;
//   * the listed iterations are exactly the state after the last
//     acknowledged operation (or after the one in flight, when its manifest
//     publish won the race with the kill);
//   * every acknowledged kBest pin survives, and nothing is pinned that the
//     schedule never pinned;
//   * every retained iteration reconstructs bit-exactly against the
//     decoder's ground truth.
//
// All three run on the shared byte-budget skeleton (crashtest.hpp,
// run_fault_trial). Three death mechanisms:
//   * throw     — in-process InjectedCrash at an exact byte budget;
//   * sigkill   — a forked child SIGKILLs itself mid-operation, reporting
//                 acknowledged operations through an append-only ack log;
//   * compactor — the budget is scoped to standalone-merge writes
//                 (*.epoch.nck.tmp), so the kill lands in the background
//                 compactor thread (or a prune's chain rewrite) specifically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace numarck::tools {

struct StoreCrashTrialConfig {
  /// Store directory for the trial; "<dir>.ack" is used as scratch.
  std::string dir;
  std::size_t points = 96;
  /// Operations in the schedule (puts/promotes/prunes/compactions).
  std::size_t operations = 14;
  double error_bound = 0.01;
  /// StoreOptions::epoch_every for the trial store.
  std::size_t epoch_every = 3;
  /// Master seed: the schedule, the synthetic data, and the crash budget all
  /// derive from it, so any failing trial replays exactly.
  std::uint64_t seed = 1;
};

struct StoreCrashTrialResult {
  /// Byte budget the crash fired at (0 when the trial ran uninjected).
  std::uint64_t crash_point = 0;
  bool crash_fired = false;
  /// Operations known acknowledged before the kill.
  std::size_t acked_ops = 0;
  /// Entries the reopened store listed.
  std::size_t listed_entries = 0;
  /// Empty when every post-crash assertion held; otherwise what broke.
  std::string failure;

  [[nodiscard]] bool ok() const noexcept { return failure.empty(); }
};

/// In-process trial: every store sink throws InjectedCrash at the budget.
StoreCrashTrialResult run_store_throw_trial(const StoreCrashTrialConfig& cfg);

/// Fork-and-SIGKILL trial: true process death mid-operation, acknowledged
/// operations recovered post-mortem from the child's ack log.
StoreCrashTrialResult run_store_sigkill_trial(const StoreCrashTrialConfig& cfg);

/// Background-compactor trial: the child runs the schedule with the
/// compactor thread live (1 ms scan interval) and the crash budget scoped to
/// standalone-merge writes, so SIGKILL strikes mid-compaction.
StoreCrashTrialResult run_store_compactor_trial(
    const StoreCrashTrialConfig& cfg);

/// Deletes the trial's store directory and scratch files.
void remove_store_trial_files(const StoreCrashTrialConfig& cfg);

}  // namespace numarck::tools
