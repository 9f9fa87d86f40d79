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
#include <optional>
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
  /// Index precision B of a NUMARCK delta (0 otherwise) — the sharded
  /// Eq. 3 aggregation charges each shard's 2^B - 1 table from this.
  unsigned index_bits = 0;

  /// Bytes this step occupies on disk (payload only).
  [[nodiscard]] std::size_t stored_bytes() const noexcept {
    return payload.size();
  }

  /// A lossless full checkpoint (FPC codec) of `snapshot`.
  static CompressedStep full_from(std::span<const double> snapshot);

  /// Wraps an already-encoded NUMARCK iteration (the distributed encoder
  /// produces those) as a delta step, serializing with `postpass`.
  static CompressedStep from_encoded(const EncodedIteration& enc,
                                     const Postpass& postpass = Postpass::none());
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
  /// Prediction base for the next snapshot (see Options::predictor).
  [[nodiscard]] std::vector<double> prediction_base() const;

  Options opts_;
  std::vector<double> reference_;    ///< D_{i-1} (true or reconstructed)
  std::vector<double> reference2_;   ///< D_{i-2}, for the linear predictor
  std::size_t iter_ = 0;
};

class VariableReconstructor {
 public:
  /// Applies one compressed step, dispatching decode through the codec
  /// registry; must be fed the exact sequence the compressor produced,
  /// starting with the full record. Reference-free (spatial) delta codecs
  /// may also start a stream on their own.
  void push(const CompressedStep& step);

  /// Current reconstructed snapshot D'_i.
  [[nodiscard]] const std::vector<double>& state() const noexcept { return state_; }

  [[nodiscard]] std::size_t iterations() const noexcept { return iter_; }

 private:
  std::vector<double> state_;
  std::vector<double> state2_;  ///< previous state, for linear-coded deltas
  std::size_t iter_ = 0;
};

/// True when a record decodes without a predecessor, so a replay chain may
/// start at it: a full record, or a record whose codec is not temporal
/// (spatial codecs stand alone). Unknown codec ids never start a chain.
[[nodiscard]] bool starts_chain(bool is_full, std::uint8_t codec_id) noexcept;

/// Forward replay of one delta chain — the single restore routine: one
/// VariableReconstructor per replayed variable, the chain start and the
/// position reached. Positions are the caller's (container iterations, store
/// entry indices). replay_to() a target on the same chain at or after the
/// position reached continues from there; any other target restarts at its
/// chain start. A throw resets the replay.
class ChainReplay {
 public:
  /// Appends the records at one position to `out`, one per variable, in
  /// order.
  using RecordLoader = std::function<void(std::size_t position,
                                          std::vector<CompressedStep>& out)>;

  explicit ChainReplay(std::size_t variables) : recon_(variables) {}

  /// Brings every variable to `target` on the chain starting at `start`.
  void replay_to(std::size_t start, std::size_t target,
                 const RecordLoader& load);

  [[nodiscard]] const std::vector<double>& state(std::size_t v) const {
    return recon_.at(v).state();
  }

 private:
  std::vector<VariableReconstructor> recon_;
  std::optional<std::size_t> start_;  ///< empty until the first replay
  std::size_t next_ = 0;              ///< next position to push
};

}  // namespace numarck::core
