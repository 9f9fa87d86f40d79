// Dynamic checkpoint frequency — the paper's §V future work ("determining
// dynamic checkpointing frequency based on how evolving distributions
// change") made concrete.
//
// The AdaptiveCheckpointer is a controller over one core::VariableCompressor,
// which produces every record it writes and receives only the snapshots it
// writes. Per simulation snapshot it decides between three actions:
//   kSkip  — the state has barely drifted from the last written checkpoint;
//            writing now would buy almost no recovery value;
//   kDelta — drift exceeded the budget (or the max interval elapsed): write
//            a delta against the compressor's reference (the last written
//            snapshot, or its reconstruction in closed-loop mode);
//   kFull  — the change distribution degraded (incompressible ratio above
//            the rebase threshold — the encoding is no longer paying for
//            itself) or the rebase interval elapsed: write a fresh lossless
//            full checkpoint and restart the delta chain.
//
// Drift is estimated cheaply from a strided sample of relative changes
// against the same reference, so skipped iterations cost O(n/stride).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "numarck/core/compressor.hpp"
#include "numarck/util/thread_annotations.hpp"

namespace numarck::adaptive {

enum class Action : std::uint8_t { kSkip = 0, kDelta = 1, kFull = 2 };

const char* to_string(Action a) noexcept;

struct AdaptiveOptions {
  /// Codec settings for the written records. codec.codec_id selects the
  /// delta backend; the codec::kAutoId sentinel (auto mode) means NUMARCK
  /// deltas, with lossless FPC fulls entering only where the rebase rules
  /// below put them. codec.reference is honoured: kReconstructedPrevious
  /// codes each delta (and estimates drift) against what restart will hold.
  /// codec.predictor is ignored (records are always first-order) — the
  /// linear predictor needs an unbroken every-iteration history, which the
  /// skip action intentionally destroys.
  core::Options codec;

  /// Write a delta once the estimated mean |change ratio| since the last
  /// written checkpoint exceeds this budget.
  double drift_budget = 0.01;

  /// Never let more than this many snapshots pass without writing.
  std::size_t max_interval = 8;

  /// Never write more often than this (1 = no lower bound).
  std::size_t min_interval = 1;

  /// Rebase to a full checkpoint when a written delta's incompressible
  /// ratio exceeds this (the distribution no longer matches the model).
  double gamma_rebase = 0.35;

  /// Rebase at least every this many *written* records.
  std::size_t rebase_interval = 64;

  /// Sampling stride for the drift estimate.
  std::size_t sample_stride = 13;
};

struct StepDecision {
  Action action = Action::kSkip;
  core::CompressedStep step;       ///< populated unless action == kSkip
  double estimated_drift = 0.0;    ///< mean |ratio| vs last written state
  std::size_t bytes_written = 0;   ///< serialized size of `step` (0 on skip)
};

class AdaptiveCheckpointer {
 public:
  explicit AdaptiveCheckpointer(const AdaptiveOptions& opts);

  /// Feeds the next simulation snapshot and returns the decision. The first
  /// snapshot is always a full checkpoint. Serialized by mu_: the drift
  /// reference and interval counters form one consistent stream, so the
  /// controller is safe to drive from any thread (e.g. a writer pool).
  StepDecision push(std::span<const double> snapshot) EXCLUDES(mu_);

  struct Stats {
    std::size_t snapshots = 0;
    std::size_t fulls = 0;
    std::size_t deltas = 0;
    std::size_t skips = 0;
    std::size_t bytes_written = 0;
  };
  /// Drops the delta chain: the next push writes a full checkpoint whatever
  /// its drift. For writers whose last record never reached storage (a
  /// failed store put), so no later record chains against it; staleness()
  /// goes back to what it was before that push, plus the push itself.
  void restart_chain() EXCLUDES(mu_);

  /// Snapshot of the counters; by value so the caller's copy cannot tear
  /// against a concurrent push().
  [[nodiscard]] Stats stats() const EXCLUDES(mu_) {
    util::MutexLock lk(mu_);
    return stats_;
  }

  /// Snapshots elapsed since the last written record (staleness a failure
  /// right now would cost).
  [[nodiscard]] std::size_t staleness() const EXCLUDES(mu_) {
    util::MutexLock lk(mu_);
    return since_write_;
  }

 private:
  [[nodiscard]] double estimate_drift(std::span<const double> snapshot) const
      REQUIRES(mu_);

  /// Writes a lossless full checkpoint into `d` as the first push of a
  /// fresh compressor, restarting the delta chain.
  void write_full(std::span<const double> snapshot, StepDecision& d)
      REQUIRES(mu_);

  /// Immutable after construction; codec_id is resolved (never kAutoId) and
  /// the predictor forced to kPrevious.
  AdaptiveOptions opts_;
  mutable util::Mutex mu_;
  /// Produces every record; its reference() is the drift and delta
  /// reference. Fresh (no iterations) until the first full is written.
  core::VariableCompressor comp_ GUARDED_BY(mu_);
  std::size_t since_write_ GUARDED_BY(mu_) = 0;
  /// since_write_ had the last push written nothing: what restart_chain()
  /// restores when that write never reached storage.
  std::size_t unacked_staleness_ GUARDED_BY(mu_) = 0;
  std::size_t writes_since_full_ GUARDED_BY(mu_) = 0;
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace numarck::adaptive
