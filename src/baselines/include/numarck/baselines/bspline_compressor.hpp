// The "B-Splines" baseline of §III-F (Chou & Piegl [7]): the raw data series
// of one iteration is replaced by a least-squares cubic B-spline with
// P_S = coeff_fraction · n control points. Storage is P_S 64-bit
// coefficients, so the compression ratio is exactly (1 - coeff_fraction)
// — 20 % for the paper's P_S = 0.8 n (Table I).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace numarck::baselines {

/// Most points one control point may stand for: the compressor keeps at
/// least floor(n / kBsplineMaxPointsPerCoefficient) coefficients, and a
/// record that declares more points than that fails to deserialize. It ties
/// the size of the decoded series to the record's size.
inline constexpr std::size_t kBsplineMaxPointsPerCoefficient = 1024;

struct BSplineCompressed {
  std::vector<double> coefficients;
  std::size_t point_count = 0;

  /// Wire form ("BSP1", docs/FORMAT.md §7): point count + coefficient
  /// vector. deserialize() checks the coefficient count against the
  /// remaining bytes before allocating, and the point count against
  /// util::kDefaultMaxPointCount and kBsplineMaxPointsPerCoefficient, so a
  /// forged count cannot size the decoded series.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static BSplineCompressed deserialize(std::span<const std::uint8_t> bytes);

  [[nodiscard]] std::size_t stored_bytes() const noexcept {
    return coefficients.size() * sizeof(double);
  }
  [[nodiscard]] double compression_ratio_percent() const noexcept {
    if (point_count == 0) return 0.0;
    const double orig = static_cast<double>(point_count) * 64.0;
    const double stored = static_cast<double>(coefficients.size()) * 64.0;
    return (orig - stored) / orig * 100.0;
  }
};

class BSplineCompressor {
 public:
  /// `coeff_fraction` = P_S / n (paper uses 0.8), in
  /// [1 / kBsplineMaxPointsPerCoefficient, 1].
  explicit BSplineCompressor(double coeff_fraction = 0.8);

  [[nodiscard]] BSplineCompressed compress(std::span<const double> data) const;
  [[nodiscard]] std::vector<double> decompress(const BSplineCompressed& c) const;

  [[nodiscard]] double coeff_fraction() const noexcept { return frac_; }

 private:
  double frac_;
};

}  // namespace numarck::baselines
