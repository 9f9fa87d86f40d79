// The on-disk representation of one NUMARCK-compressed iteration and its
// storage accounting (paper Eq. 3 plus honest serialized size).
//
// Layout per iteration (DESIGN.md §3):
//   * ζ bitmap — 1 bit per point, 1 = compressible (the paper's ζ_{i,j});
//   * index stream — B bits per *compressible* point; index 0 means
//     |ΔD| < E (reconstruct as the previous value), index i >= 1 addresses
//     centers[i-1];
//   * exact stream — raw 8-byte doubles for incompressible points, in point
//     order;
//   * center table — at most 2^B - 1 learned representative ratios.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "numarck/core/options.hpp"

namespace numarck::core {

/// Per-iteration bookkeeping (§III-B metrics are derived from these).
struct IterationStats {
  std::size_t total_points = 0;
  std::size_t below_threshold = 0;        ///< |ΔD| < E, index 0
  std::size_t small_value = 0;            ///< |value| below the small-value
                                          ///< threshold on both sides, index 0
  std::size_t binned = 0;                 ///< assigned to a learned bin
  std::size_t exact_undefined = 0;        ///< previous value 0 / ratio not finite
  std::size_t exact_out_of_bound = 0;     ///< nearest bin missed the E bound
  double mean_ratio_error = 0.0;          ///< mean |Δ' - Δ| over all points
  double max_ratio_error = 0.0;           ///< max  |Δ' - Δ| over all points

  [[nodiscard]] std::size_t exact_total() const noexcept {
    return exact_undefined + exact_out_of_bound;
  }

  /// Incompressible ratio γ (§III-B).
  [[nodiscard]] double incompressible_ratio() const noexcept {
    return total_points == 0
               ? 0.0
               : static_cast<double>(exact_total()) /
                     static_cast<double>(total_points);
  }
};

class EncodedIteration {
 public:
  unsigned index_bits = 8;
  double error_bound = 0.001;
  Strategy strategy = Strategy::kClustering;
  /// How the prediction base this record was coded against is formed from
  /// the reconstructed history (set by the pipeline; kPrevious unless the
  /// linear-extrapolation extension was active for this step).
  Predictor predictor = Predictor::kPrevious;
  std::size_t point_count = 0;

  std::vector<double> centers;            ///< learned table, ascending
  std::vector<std::uint8_t> zeta;         ///< packed bitmap, 1 bit/point
  std::vector<std::uint8_t> indices;      ///< packed B-bit indices
  std::vector<double> exact_values;       ///< incompressible points, in order

  IterationStats stats;

  /// Paper Eq. 3 compression ratio in percent (charges index stream, exact
  /// values and a full 2^B - 1 center table; ignores the ζ bitmap).
  [[nodiscard]] double paper_compression_ratio() const;

  /// True size of serialize()'s output in bytes (bitmap, headers and all).
  [[nodiscard]] std::size_t serialized_size_bytes() const;

  /// Honest compression ratio in percent based on serialized_size_bytes().
  [[nodiscard]] double true_compression_ratio() const;

  /// Serializes the record. With a post-pass, each stream is entropy/run/
  /// FPC-coded when that actually shrinks it (per-stream flags travel in the
  /// record, so any serialization deserializes with the plain overload).
  [[nodiscard]] std::vector<std::uint8_t> serialize(
      const Postpass& postpass = Postpass::none()) const;

  /// Ceiling on the point count deserialize accepts when the caller cannot
  /// supply one. Fully coded records have no bits-per-point floor (a
  /// constant field RLE+rANS-codes to a few dozen bytes at any length), so
  /// a forged count cannot be cross-checked against the record size alone;
  /// this bounds what such a forgery can make the decoder materialize.
  static constexpr std::size_t kDefaultMaxPointCount = std::size_t{1} << 33;

  /// Parses a record, validating every count and stream against the bytes
  /// actually present before sizing any allocation from them. Callers that
  /// know how many points a legitimate record holds (the codec layer knows
  /// its snapshot length; fuzz harnesses pick a budget) should pass it as
  /// `max_point_count`.
  static EncodedIteration deserialize(
      std::span<const std::uint8_t> bytes,
      std::size_t max_point_count = kDefaultMaxPointCount);

  /// Fields of the fixed 8-byte record head (docs/FORMAT.md §2), unvalidated.
  struct Prefix {
    Predictor predictor = Predictor::kPrevious;
    std::uint8_t stream_flags = 0;  ///< post-pass flag bits
  };

  /// Bounded peek at a serialized record's head without parsing any stream;
  /// nullopt when the 8 bytes are missing or lack the NMK1 magic.
  static std::optional<Prefix> peek(
      std::span<const std::uint8_t> bytes) noexcept;

  /// Number of compressible points (= indices stored in the index stream).
  [[nodiscard]] std::size_t compressible_count() const noexcept {
    return point_count - exact_values.size();
  }
};

}  // namespace numarck::core
