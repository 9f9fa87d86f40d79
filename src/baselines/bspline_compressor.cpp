#include "numarck/baselines/bspline_compressor.hpp"

#include <algorithm>

#include "numarck/baselines/bspline.hpp"
#include "numarck/util/byte_stream.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::baselines {

namespace {
constexpr std::uint32_t kBsplineMagic = 0x31505342;  // "BSP1"
}  // namespace

std::vector<std::uint8_t> BSplineCompressed::serialize() const {
  util::ByteWriter w;
  w.put_u32(kBsplineMagic);
  w.put_varint(point_count);
  w.put_vector(coefficients);
  return w.take();
}

BSplineCompressed BSplineCompressed::deserialize(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  NUMARCK_EXPECT(r.get_u32() == kBsplineMagic, "bspline: bad magic");
  BSplineCompressed out;
  out.point_count = r.get_varint();
  NUMARCK_EXPECT(out.point_count >= 8, "bspline: too few points");
  NUMARCK_EXPECT(out.point_count <= util::kDefaultMaxPointCount,
                 "bspline: point count out of range");
  out.coefficients = r.get_vector<double>();
  NUMARCK_EXPECT(out.coefficients.size() >= 4 &&
                     out.coefficients.size() <= out.point_count,
                 "bspline: coefficient count out of range");
  NUMARCK_EXPECT(out.point_count / kBsplineMaxPointsPerCoefficient <=
                     out.coefficients.size(),
                 "bspline: too many points per coefficient");
  NUMARCK_EXPECT(r.at_end(), "bspline: trailing bytes");
  return out;
}

BSplineCompressor::BSplineCompressor(double coeff_fraction)
    : frac_(coeff_fraction) {
  NUMARCK_EXPECT(coeff_fraction >= 1.0 / static_cast<double>(
                                         kBsplineMaxPointsPerCoefficient) &&
                     coeff_fraction <= 1.0,
                 "coefficient fraction must be in "
                 "[1/kBsplineMaxPointsPerCoefficient, 1]");
}

BSplineCompressed BSplineCompressor::compress(std::span<const double> data) const {
  NUMARCK_EXPECT(data.size() >= 8, "B-Splines baseline needs >= 8 points");
  BSplineCompressed out;
  out.point_count = data.size();
  const std::size_t p = std::max<std::size_t>(
      4, static_cast<std::size_t>(frac_ * static_cast<double>(data.size())));
  CubicBSplineBasis basis(p);
  out.coefficients = fit_least_squares(basis, data);
  return out;
}

std::vector<double> BSplineCompressor::decompress(const BSplineCompressed& c) const {
  CubicBSplineBasis basis(c.coefficients.size());
  return evaluate_uniform(basis, c.coefficients, c.point_count);
}

}  // namespace numarck::baselines
