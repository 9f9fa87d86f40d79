// Crash-injection trial harness behind `numarck-crashtest` and the
// crash_resilience tests.
//
// Each trial simulates one node death during distributed checkpointing and
// verifies the paper's resiliency contract end to end: restart recovers
// exactly the last globally complete iteration, bit-identical to what the
// decoder would have produced, within the configured error bound of the
// original data — and refuses to fabricate anything beyond it.
//
// Every byte-budget trial, distributed or store (store_crashtest.hpp), runs
// on one skeleton, run_fault_trial: a clean sizing run under a counting
// io::FaultPlan, a crash point drawn from the seed below that count, the
// faulty run under a plan that tears the write crossing it, then the
// trial's own verification. Three death mechanisms, from most surgical to
// most realistic:
//   * injected  — the faulty run happens in process and the plan throws
//                 InjectedCrash at the byte budget;
//   * sigkill   — a forked child performs the write and SIGKILLs itself at
//                 the byte budget (true process death: no unwinding, no
//                 destructors, the kernel keeps whatever write(2)s landed);
//   * world     — an mpisim FaultPlan kills one rank at a scheduled
//                 collective; survivors observe RankFailedError and the
//                 recovery path (distributed::recover_from_checkpoint) must
//                 restore the state the dead rank last completed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "numarck/io/fault.hpp"
#include "numarck/util/rng.hpp"

namespace numarck::tools {

struct CrashTrialConfig {
  /// Checkpoint base: files land at <base>.rankK.ckpt / <base>.manifest.
  std::string base;
  std::size_t ranks = 3;
  std::size_t points_per_rank = 96;
  std::size_t iterations = 6;
  double error_bound = 0.01;
  /// Master seed: victim choice, crash budget, and the synthetic data all
  /// derive from it, so any failing trial replays exactly.
  std::uint64_t seed = 1;
};

struct CrashTrialResult {
  std::size_t victim = 0;  ///< rank whose write was killed
  /// Byte budget the crash fired at (injected/sigkill) or the victim's
  /// scheduled operation index (world).
  std::uint64_t crash_point = 0;
  bool crash_fired = false;
  /// The engine's recovered iteration; nullopt when the tear destroyed even
  /// the first full record (a legitimate outcome — the trial then verifies
  /// the engine *refuses* to reconstruct).
  std::optional<std::size_t> recovered_iteration;
  bool degraded = false;
  /// Empty when every post-crash assertion held; otherwise what broke.
  std::string failure;

  [[nodiscard]] bool ok() const noexcept { return failure.empty(); }
};

/// In-process trial: the victim's plan throws InjectedCrash at the budget.
CrashTrialResult run_injected_crash_trial(const CrashTrialConfig& cfg);

/// Fork-and-SIGKILL trial: the child dies mid-write with no cleanup at all.
CrashTrialResult run_sigkill_crash_trial(const CrashTrialConfig& cfg);

/// mpisim node-death trial: FaultPlan kills one rank at a collective;
/// verifies survivor error propagation plus checkpoint-based recovery.
CrashTrialResult run_world_fault_trial(const CrashTrialConfig& cfg);

/// Deletes the trial's checkpoint files (<base>.rank*.ckpt, manifest, tmp,
/// ack log).
void remove_trial_files(const CrashTrialConfig& cfg);

/// One byte-budget crash trial, as run_fault_trial runs it.
struct FaultTrialSpec {
  /// kThrow runs the faulty run in process; kSigkill runs it in a forked
  /// child that appends one byte to `ack_path` per acknowledged operation.
  io::FaultPlan::Death death = io::FaultPlan::Death::kThrow;
  /// Only files whose path ends in this are counted and torn (empty: all).
  std::string path_suffix;
  std::string ack_path;
  /// A sizing count too small to tear runs the faulty run uninjected;
  /// otherwise it fails the trial.
  bool allow_uninjected = false;
  /// Resets the trial's files; runs before the sizing and the faulty run.
  std::function<void()> reset;
  using Run = std::function<void(const io::SinkFactory& files,
                                 const std::function<void()>& ack)>;
  /// The workload: opens every file through `files` and calls `ack` after
  /// each operation that returned. Runs both the sizing and the faulty
  /// run, so it must write the same byte stream each time.
  Run run;
};

struct FaultTrialOutcome {
  std::uint64_t crash_point = 0;  ///< 0 when the faulty run was uninjected
  bool crash_fired = false;
  std::size_t acked = 0;  ///< operations acknowledged before the death
  std::string failure;    ///< empty unless the run itself misbehaved
};

/// Sizes the spec's write stream, draws a crash point from `rng` in
/// [16, count), and runs the faulty run. The caller verifies the survivor
/// files when `failure` is empty.
FaultTrialOutcome run_fault_trial(const FaultTrialSpec& spec,
                                  util::Pcg32& rng);

}  // namespace numarck::tools
