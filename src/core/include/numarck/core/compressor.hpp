// Stateful per-variable pipelines implementing Algorithm 1 end to end.
//
// VariableCompressor consumes a time series of snapshots for one simulation
// variable. The first snapshot becomes the full checkpoint C0 (losslessly
// FPC-compressed, Algorithm 1 line 1); every later snapshot is encoded as a
// NUMARCK delta against the reference configured by Options::reference
// (true previous = paper behaviour, reconstructed previous = closed-loop
// extension).
//
// VariableReconstructor replays the records in order and maintains the
// reconstructed state D'_i — the restart path of §II-D.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "numarck/core/codec.hpp"
#include "numarck/core/encoded.hpp"
#include "numarck/core/options.hpp"

namespace numarck::core {

/// One step of compressed output: a payload tagged with the codec that
/// produced it (wire ids in numarck/codec/codec.hpp). The payload is the
/// exact byte string the container stores — any post-pass has already been
/// applied — so stored_bytes() matches the on-disk record payload exactly.
struct CompressedStep {
  std::uint8_t codec_id = 0;  ///< codec wire id of the payload
  bool is_full = false;       ///< lossless full checkpoint (rebase point)
  std::size_t point_count = 0;
  std::vector<std::uint8_t> payload;

  /// Encoder-side accounting (zeroed for full steps; for non-NUMARCK delta
  /// codecs, exact_out_of_bound counts patched points).
  IterationStats stats;
  /// Eq. 3-style compression ratio in percent, as reported by the codec.
  double paper_ratio_pct = 0.0;

  /// Bytes this step occupies on disk (payload only).
  [[nodiscard]] std::size_t stored_bytes() const noexcept {
    return payload.size();
  }

  /// A lossless full checkpoint (FPC codec) of `snapshot`.
  static CompressedStep full_from(std::span<const double> snapshot);
};

class VariableCompressor {
 public:
  explicit VariableCompressor(Options opts);

  /// Compresses the next snapshot. All snapshots must have identical length.
  CompressedStep push(std::span<const double> snapshot);

  /// Number of snapshots consumed so far.
  [[nodiscard]] std::size_t iterations() const noexcept { return iter_; }

  /// The reference the *next* snapshot will be coded against (empty before
  /// the first push). True previous values in paper mode; reconstructed
  /// values in closed-loop mode.
  [[nodiscard]] const std::vector<double>& reference() const noexcept {
    return reference_;
  }

  [[nodiscard]] const Options& options() const noexcept { return opts_; }

 private:
  Options opts_;
  std::vector<double> reference_;    ///< D_{i-1} (true or reconstructed)
  /// D_{i-2}; held only under Predictor::kLinear, empty otherwise.
  std::vector<double> reference2_;
  std::size_t iter_ = 0;
};

class VariableReconstructor {
 public:
  /// Applies one compressed step, dispatching decode through the codec
  /// registry; must be fed the exact sequence the compressor produced,
  /// starting with the full record. Reference-free (spatial) delta codecs
  /// may also start a stream on their own.
  ///
  /// `keep_previous` says whether D'_{i-1} must survive this step, because
  /// the next record may be a linear-coded delta that reads it; it is then
  /// copied into a buffer the reconstructor reuses. A delta that reads no
  /// D'_{i-2} decodes into the state in place; if that decode throws, the
  /// reconstructor resets and expects a chain start again.
  void push(const CompressedStep& step, bool keep_previous = true);

  /// Current reconstructed snapshot D'_i.
  [[nodiscard]] const std::vector<double>& state() const noexcept { return state_; }

  /// Moves D'_i out; the reconstructor resets and expects a chain start.
  [[nodiscard]] std::vector<double> release_state() noexcept;

  [[nodiscard]] std::size_t iterations() const noexcept { return iter_; }

 private:
  std::vector<double> state_;
  /// D'_{i-1} for a linear-coded next delta; empty (capacity kept) when no
  /// record may read it.
  std::vector<double> state2_;
  std::size_t iter_ = 0;
};

/// True when decoding `step` may read D'_{i-2}: a linear-coded delta, or a
/// record of a codec the registry does not know.
[[nodiscard]] bool reads_previous2(const CompressedStep& step) noexcept;

/// True when a record decodes without a predecessor, so a replay chain may
/// start at it: a full record, or a record whose codec is not temporal
/// (spatial codecs stand alone). Unknown codec ids never start a chain.
[[nodiscard]] bool starts_chain(bool is_full, std::uint8_t codec_id) noexcept;

/// Forward replay of delta chains — the single restore routine of
/// io::RestartEngine and store::CheckpointStore (restores and rewrites).
/// Each variable keeps its own VariableReconstructor, chain start and
/// position reached; positions are the caller's (container iterations,
/// store entry indices). The first call decodes every chain start on the
/// caller (FPC fulls, whose decoder keeps a 1 MB table pair per thread that
/// runs it); after that the deltas of each variable replay on one chunk of
/// the global pool. Targets ascend, each call continuing from where every
/// variable stands, so a caller can hand records over in windows. Records
/// load one position ahead of the one decoding, so each delta before the
/// target decodes in place and D'_{i-1} is kept only for a linear-coded
/// successor. A throw resets the replay to its chain starts.
class ChainReplay {
 public:
  /// Returns variable `variable`'s record at `position`. Called
  /// concurrently for distinct variables.
  using Loader =
      std::function<CompressedStep(std::size_t variable, std::size_t position)>;

  /// Variable v replays its chain from position `starts[v]`.
  explicit ChainReplay(const std::vector<std::size_t>& starts);

  /// Brings every variable to `target`, which is at or after every start
  /// and every earlier target.
  void replay_to(std::size_t target, const Loader& load);

  /// Variable `v`'s state at the last target.
  [[nodiscard]] const std::vector<double>& state(std::size_t v) const {
    return chains_.at(v).recon.state();
  }

  /// replay_to() for a restore that ends at `target`: its deltas also decode
  /// in place, keeping nothing, and the states move out, one per variable.
  /// The next call starts over.
  [[nodiscard]] std::vector<std::vector<double>> restore(std::size_t target,
                                                         const Loader& load);

 private:
  struct Chain {
    VariableReconstructor recon;
    std::size_t start = 0;
    std::size_t next = 0;  ///< next position to push
  };

  /// replay_to(); `keep_at_target` keeps D'_{target-1} for a later call.
  void advance(std::size_t target, const Loader& load, bool keep_at_target);
  void reset() noexcept;

  std::vector<Chain> chains_;
  bool started_ = false;  ///< chain starts decoded
};

}  // namespace numarck::core
