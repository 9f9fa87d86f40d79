// Baseline compressor tests: B-spline basis correctness, banded solver
// against a dense reference, and the two §III-F baselines' storage models
// and reconstruction quality.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "numarck/baselines/bspline.hpp"
#include "numarck/baselines/bspline_compressor.hpp"
#include "numarck/baselines/isabela.hpp"
#include "numarck/metrics/metrics.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/rng.hpp"

namespace nb = numarck::baselines;

// ----------------------------------------------------------------- basis --

TEST(BSplineBasis, PartitionOfUnity) {
  nb::CubicBSplineBasis basis(12);
  std::array<double, 4> w;
  for (double u = 0.0; u <= 1.0; u += 0.01) {
    basis.evaluate(u, w);
    EXPECT_NEAR(w[0] + w[1] + w[2] + w[3], 1.0, 1e-12) << "u=" << u;
  }
}

TEST(BSplineBasis, WeightsNonNegative) {
  nb::CubicBSplineBasis basis(9);
  std::array<double, 4> w;
  for (double u = 0.0; u <= 1.0; u += 0.013) {
    basis.evaluate(u, w);
    for (double x : w) EXPECT_GE(x, -1e-14);
  }
}

TEST(BSplineBasis, EndpointsInterpolateFirstAndLastCoefficient) {
  nb::CubicBSplineBasis basis(7);
  std::vector<double> c{3.0, 0, 0, 0, 0, 0, -2.0};
  EXPECT_NEAR(basis.curve(c, 0.0), 3.0, 1e-12);   // clamped at u=0
  EXPECT_NEAR(basis.curve(c, 1.0), -2.0, 1e-12);  // clamped at u=1
}

TEST(BSplineBasis, ConstantCoefficientsGiveConstantCurve) {
  nb::CubicBSplineBasis basis(10);
  std::vector<double> c(10, 4.2);
  for (double u = 0.0; u <= 1.0; u += 0.07) {
    EXPECT_NEAR(basis.curve(c, u), 4.2, 1e-12);
  }
}

TEST(BSplineBasis, RejectsTooFewControlPoints) {
  EXPECT_THROW(nb::CubicBSplineBasis(3), numarck::ContractViolation);
}

// ---------------------------------------------------------- banded solve --

TEST(BandedSolve, MatchesDenseReferenceOnRandomSpd) {
  // Build a random banded SPD matrix A = B Bᵀ + n I restricted to the band,
  // then check A x = b round-trips.
  numarck::util::Pcg32 rng(9);
  const std::size_t n = 40, bw = 3;
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    dense[i][i] = 10.0 + rng.uniform();
    for (std::size_t d = 1; d <= bw && i >= d; ++d) {
      const double v = rng.uniform(-1.0, 1.0);
      dense[i][i - d] = v;
      dense[i - d][i] = v;
    }
  }
  std::vector<double> x_true(n);
  for (auto& x : x_true) x = rng.uniform(-5, 5);
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] += dense[i][j] * x_true[j];
  }
  std::vector<double> band(n * (bw + 1), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d <= std::min(i, bw); ++d) {
      band[i * (bw + 1) + d] = dense[i][i - d];
    }
  }
  const auto x = nb::banded_spd_solve(band, bw, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(BandedSolve, NonSpdThrows) {
  std::vector<double> band{-1.0, 0.0};  // 1x1 matrix with negative diagonal
  band.resize(2);
  EXPECT_THROW(nb::banded_spd_solve(band, 1, std::vector<double>{1.0}),
               numarck::ContractViolation);
}

// ------------------------------------------------------------------- fit --

TEST(BSplineFit, ReproducesLinearDataExactly) {
  std::vector<double> y(200);
  for (std::size_t i = 0; i < y.size(); ++i)
    y[i] = 3.0 + 0.5 * static_cast<double>(i);
  nb::CubicBSplineBasis basis(20);
  const auto c = nb::fit_least_squares(basis, y);
  const auto back = nb::evaluate_uniform(basis, c, y.size());
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(back[i], y[i], 1e-6);
}

TEST(BSplineFit, ReproducesCubicPolynomialExactly) {
  // A single cubic lies exactly in the spline space.
  std::vector<double> y(300);
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double u = static_cast<double>(i) / 299.0;
    y[i] = 1.0 - 2.0 * u + 3.0 * u * u - 0.7 * u * u * u;
  }
  nb::CubicBSplineBasis basis(15);
  const auto back =
      nb::evaluate_uniform(basis, nb::fit_least_squares(basis, y), y.size());
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(back[i], y[i], 1e-8);
}

TEST(BSplineFit, MoreCoefficientsReduceResidual) {
  std::vector<double> y(400);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = std::sin(12.0 * static_cast<double>(i) / 399.0);
  }
  double prev = 1e300;
  for (std::size_t p : {6u, 12u, 24u, 48u}) {
    nb::CubicBSplineBasis basis(p);
    const auto back =
        nb::evaluate_uniform(basis, nb::fit_least_squares(basis, y), y.size());
    const double r = numarck::metrics::rmse(y, back);
    EXPECT_LT(r, prev);
    prev = r;
  }
}

// ------------------------------------------------------ B-Splines baseline --

TEST(BSplineCompressor, RatioIsExactlyTwentyPercentAtPaperSettings) {
  std::vector<double> y(1000);
  for (std::size_t i = 0; i < y.size(); ++i)
    y[i] = std::sin(static_cast<double>(i) * 0.01);
  nb::BSplineCompressor comp(0.8);
  const auto c = comp.compress(y);
  EXPECT_DOUBLE_EQ(c.compression_ratio_percent(), 20.0);
}

TEST(BSplineCompressor, SmoothDataReconstructsAccurately) {
  std::vector<double> y(2000);
  for (std::size_t i = 0; i < y.size(); ++i)
    y[i] = std::cos(static_cast<double>(i) * 0.005) * 10.0;
  nb::BSplineCompressor comp(0.8);
  const auto back = comp.decompress(comp.compress(y));
  EXPECT_GT(numarck::metrics::pearson(y, back), 0.999);
}

TEST(BSplineCompressor, NoisyDataDegradesButStaysCorrelated) {
  numarck::util::Pcg32 rng(12);
  std::vector<double> y(2000);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = std::sin(static_cast<double>(i) * 0.01) + rng.normal() * 0.3;
  }
  nb::BSplineCompressor comp(0.8);
  const auto back = comp.decompress(comp.compress(y));
  EXPECT_GT(numarck::metrics::pearson(y, back), 0.9);
}

TEST(BSplineCompressor, TinyInputThrows) {
  nb::BSplineCompressor comp(0.8);
  EXPECT_THROW(comp.compress(std::vector<double>{1, 2, 3}),
               numarck::ContractViolation);
}

TEST(BSplineCompressor, SparsestAllowedFitRoundTrips) {
  // At the smallest coefficient fraction every point count the compressor
  // can emit passes the deserializer's points-per-coefficient rule.
  const double frac =
      1.0 / static_cast<double>(nb::kBsplineMaxPointsPerCoefficient);
  nb::BSplineCompressor comp(frac);
  for (const std::size_t n : {8u, 4100u, 6143u, 6144u, 9000u}) {
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = std::sin(0.001 * static_cast<double>(i));
    }
    const auto c = comp.compress(y);
    const auto back = nb::BSplineCompressed::deserialize(c.serialize());
    EXPECT_EQ(back.point_count, n);
    EXPECT_EQ(back.coefficients, c.coefficients);
  }
  EXPECT_THROW(nb::BSplineCompressor(frac / 2), numarck::ContractViolation);
}

TEST(BSplineCompressor, DeserializeRejectsForgedPointCounts) {
  nb::BSplineCompressed c;
  c.coefficients = {1.0, 2.0, 3.0, 4.0};
  const auto rejects = [&c](std::size_t points, const char* reason) {
    c.point_count = points;
    try {
      (void)nb::BSplineCompressed::deserialize(c.serialize());
      ADD_FAILURE() << points << " points accepted";
    } catch (const numarck::ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
          << e.what();
    }
  };
  rejects(std::size_t{1} << 40, "point count out of range");
  rejects(5 * nb::kBsplineMaxPointsPerCoefficient,
          "too many points per coefficient");
  c.point_count = 5 * nb::kBsplineMaxPointsPerCoefficient - 1;
  EXPECT_EQ(nb::BSplineCompressed::deserialize(c.serialize()).point_count,
            c.point_count);
}

// ---------------------------------------------------------------- ISABELA --

TEST(Isabela, StorageModelMatchesTableI) {
  std::vector<double> y(5120, 1.0);
  {
    nb::Isabela isa({512, 30});
    const auto c = isa.compress(y);
    EXPECT_NEAR(c.compression_ratio_percent(), 80.078, 5e-3);
  }
  {
    nb::Isabela isa({256, 30});
    const auto c = isa.compress(y);
    EXPECT_NEAR(c.compression_ratio_percent(), 75.781, 5e-3);
  }
}

TEST(Isabela, ReconstructionPreservesOrderStatistics) {
  numarck::util::Pcg32 rng(77);
  std::vector<double> y(2048);
  for (auto& v : y) v = rng.normal() * 5.0;
  nb::Isabela isa({512, 30});
  const auto back = isa.decompress(isa.compress(y));
  ASSERT_EQ(back.size(), y.size());
  // Sorting turns noise into a smooth curve: correlation must be superb even
  // though the data is "incompressible" (the ISABELA paper's core claim).
  EXPECT_GT(numarck::metrics::pearson(y, back), 0.99);
}

TEST(Isabela, HandlesPartialFinalWindow) {
  numarck::util::Pcg32 rng(13);
  std::vector<double> y(1000);  // 512 + 488
  for (auto& v : y) v = rng.uniform(0, 1);
  nb::Isabela isa({512, 30});
  const auto c = isa.compress(y);
  EXPECT_EQ(c.windows.size(), 2u);
  EXPECT_EQ(c.windows[1].count, 488u);
  const auto back = isa.decompress(c);
  EXPECT_EQ(back.size(), y.size());
  EXPECT_GT(numarck::metrics::pearson(y, back), 0.99);
}

TEST(Isabela, MonotoneInputIsNearlyExact) {
  std::vector<double> y(512);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = std::pow(static_cast<double>(i) / 511.0, 2.0);
  }
  nb::Isabela isa({512, 30});
  const auto back = isa.decompress(isa.compress(y));
  EXPECT_LT(numarck::metrics::rmse(y, back), 1e-3);
}

TEST(Isabela, PermutationIsABijection) {
  numarck::util::Pcg32 rng(14);
  std::vector<double> y(512);
  for (auto& v : y) v = rng.normal();
  nb::Isabela isa({512, 30});
  const auto c = isa.compress(y);
  std::vector<bool> seen(512, false);
  for (auto p : c.windows[0].permutation) {
    ASSERT_LT(p, 512u);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(Isabela, InvalidOptionsThrow) {
  EXPECT_THROW(nb::Isabela({8, 30}), numarck::ContractViolation);
  EXPECT_THROW(nb::Isabela({512, 2}), numarck::ContractViolation);
  EXPECT_THROW(nb::Isabela({32, 64}), numarck::ContractViolation);
}
