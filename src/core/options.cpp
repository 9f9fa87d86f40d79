#include "numarck/core/options.hpp"

#include "numarck/baselines/bspline_compressor.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::core {

const char* to_string(Strategy s) noexcept {
  switch (s) {
    case Strategy::kEqualWidth:
      return "equal-width";
    case Strategy::kLogScale:
      return "log-scale";
    case Strategy::kClustering:
      return "clustering";
  }
  return "?";
}

const char* to_string(Reference r) noexcept {
  switch (r) {
    case Reference::kTruePrevious:
      return "true-previous";
    case Reference::kReconstructedPrevious:
      return "reconstructed-previous";
  }
  return "?";
}

const char* to_string(Predictor p) noexcept {
  switch (p) {
    case Predictor::kPrevious:
      return "previous";
    case Predictor::kLinear:
      return "linear";
  }
  return "?";
}

void Options::validate() const {
  NUMARCK_EXPECT(error_bound > 0.0 && error_bound < 1.0,
                 "error bound E must be in (0,1)");
  NUMARCK_EXPECT(index_bits >= 2 && index_bits <= 16,
                 "index precision B must be in [2,16] bits");
  NUMARCK_EXPECT(kmeans_max_iterations >= 1, "kmeans needs >= 1 iteration");
  NUMARCK_EXPECT(sampling_ratio > 0.0 && sampling_ratio <= 1.0,
                 "sampling ratio must be in (0,1]");
  NUMARCK_EXPECT(isabela_window >= 16, "isabela window must be >= 16 points");
  NUMARCK_EXPECT(isabela_coeffs >= 4 && isabela_coeffs <= isabela_window,
                 "isabela coefficients must be in [4, window]");
  constexpr double kMinBsplineFraction =
      1.0 / static_cast<double>(baselines::kBsplineMaxPointsPerCoefficient);
  NUMARCK_EXPECT(bspline_coeff_fraction >= kMinBsplineFraction &&
                     bspline_coeff_fraction <= 1.0,
                 "bspline coefficient fraction must be in "
                 "[1/kBsplineMaxPointsPerCoefficient, 1]");
}

}  // namespace numarck::core
