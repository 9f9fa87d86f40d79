// The pluggable compressor layer: one `Codec` interface from the §III-F
// baselines to the checkpoint container to restart.
//
// The paper's evaluation is a head-to-head of NUMARCK against ISABELA and
// B-spline fitting; follow-on work (Yuan et al., Tao et al.) shows the right
// lossy codec is workload-dependent. Behind this interface, all of them are
// interchangeable stages of the same pipeline: `VariableCompressor` encodes
// through it, the container stamps each record with the codec id (format v2,
// docs/FORMAT.md §1), and `VariableReconstructor` / `RestartEngine` /
// `DistributedRestartEngine` dispatch reconstruction through the registry.
//
// Registered codecs:
//   id 0 numarck — the paper's change-ratio codec (temporal: codes against a
//        reference snapshot; per-point error bound E);
//   id 1 fpc     — lossless full-snapshot FPC (reference [4]);
//   id 2 isabela — sort + B-spline windows (§III-F, [15]), wrapped with an
//        exact-value patch stream so the relative bound E holds per point;
//   id 3 bspline — least-squares cubic B-spline over the whole iteration
//        (§III-F, [7]), wrapped with the same patch stream.
//
// The spatial codecs (1-3) ignore the reference snapshot; their records are
// standalone, which the restart path exploits by starting replay at the
// newest reference-free record instead of the newest full checkpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "numarck/core/compressor.hpp"
#include "numarck/core/options.hpp"

namespace numarck::codec {

/// Wire ids, stored in the v2 container record header and in
/// `core::CompressedStep::codec_id`. Never renumber: they are on disk.
inline constexpr std::uint8_t kNumarckId = 0;
inline constexpr std::uint8_t kFpcId = 1;
inline constexpr std::uint8_t kIsabelaId = 2;
inline constexpr std::uint8_t kBsplineId = 3;

/// Sentinel for auto mode (the CLI parses `--codec auto` to it). Only
/// AdaptiveCheckpointer accepts it: NUMARCK deltas, FPC fulls at its
/// rebases. Never written to disk.
inline constexpr std::uint8_t kAutoId = 0xFF;

/// Capability flags the container and restart layers dispatch on.
struct Caps {
  /// Encode needs a reference snapshot; records chain (replay required).
  bool temporal = false;
  /// Honors the per-point relative bound E (`Options::error_bound`).
  bool error_bounded = false;
  /// Reconstruction is bit-exact.
  bool lossless = false;
};

class Codec {
 public:
  virtual ~Codec() = default;

  [[nodiscard]] virtual std::uint8_t id() const noexcept = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
  [[nodiscard]] virtual Caps caps() const noexcept = 0;

  /// Encodes `current` into a delta step: the exact on-disk payload plus
  /// its codec id, point count, stats and Eq. 3-style ratio (for the spatial
  /// codecs, `stats.exact_out_of_bound` counts patched points and the ratio
  /// is honest payload accounting). Temporal codecs code against `previous`
  /// (and use `previous2` for the linear-extrapolation base when
  /// `opts.predictor == kLinear`); spatial codecs ignore both. Throws
  /// ContractViolation when a temporal codec is given no reference.
  [[nodiscard]] virtual core::CompressedStep encode(
      std::span<const double> current, std::span<const double> previous,
      std::span<const double> previous2, const core::Options& opts) const = 0;

  /// Inverse of encode. `expected_points` cross-checks the payload's own
  /// point count when non-zero (a forged count fails before any use).
  [[nodiscard]] virtual std::vector<double> decode(
      std::span<const std::uint8_t> payload, std::span<const double> previous,
      std::span<const double> previous2,
      std::size_t expected_points) const = 0;

  /// Whether decoding this payload reads `previous2` (a linear-coded
  /// numarck delta). The restore path asks it of the record that follows
  /// the one it decodes, to keep D'_{i-1} only when that record needs it.
  /// Cheap (a header peek, no validation); true when unsure.
  [[nodiscard]] virtual bool reads_previous2(
      std::span<const std::uint8_t> /*payload*/) const noexcept {
    return false;
  }

  /// decode() of a record that does not read `previous2`, with `state` as
  /// the reference on entry and the reconstruction on return. numarck
  /// writes only the points that change; the default decodes into a fresh
  /// vector and copies it over. A throw may leave `state` partly decoded.
  virtual void decode_in_place(std::span<const std::uint8_t> payload,
                               std::span<double> state,
                               std::size_t expected_points) const;

  /// Structurally parses (and bounds-checks) a payload without producing
  /// the reconstructed values, returning its point count. Throws
  /// ContractViolation on any malformed stream and on a count above
  /// `max_points` (numarck checks it from the header, before anything is
  /// sized from it). How much it parses is per codec: fpc walks the header
  /// bits; the spatial codecs deserialize the model and patch stream;
  /// numarck runs the full EncodedIteration::deserialize, entropy
  /// (rANS/Huffman) index decode and FPC exact-value decode included —
  /// nearly the cost of decode itself. Called by io::CheckpointReader::load
  /// (bounding a delta by its chain-start record), for readers that inspect
  /// records without decoding them (numarck-inspect, numarck-bench-codec).
  /// The chain-replay restore path skips it: decode runs the same checks.
  [[nodiscard]] virtual std::size_t validate_payload(
      std::span<const std::uint8_t> payload, std::size_t max_points) const = 0;
};

/// All registered codecs, in id order.
[[nodiscard]] std::span<const Codec* const> all() noexcept;

/// Lookup by wire id / CLI name; nullptr when unknown (a forged record
/// header must be rejectable without throwing from the scan loop).
[[nodiscard]] const Codec* find(std::uint8_t id) noexcept;
[[nodiscard]] const Codec* find(std::string_view name) noexcept;

/// Lookup that throws ContractViolation on an unknown id.
[[nodiscard]] const Codec& require(std::uint8_t id);

}  // namespace numarck::codec
