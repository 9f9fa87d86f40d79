// Narrow reference loops for the codec's per-point kernels.
//
// Each function here is the plainest statement of a format rule: one point,
// one bit or one symbol at a time, through util::BitReader where there is a
// bit stream. The production loops must match them bit for bit, including
// on whether they throw ContractViolation:
//
//   reference::classify     core::detail::classify_span   (core/codec.cpp)
//   reference::decode_span  core::detail::decode_span     (core/codec.cpp)
//   reference::unpack       util::unpack_indices          (util/bitpack.cpp)
//   reference::count_ones   util::count_ones              (util/bitpack.cpp)
//   reference::rans_decode  lossless::detail::rans_decode_lanes
//                                                         (lossless/rans.cpp)
//   reference::fpc_xor_lzc  lossless::detail::fpc_xor_lzc (lossless/fpc.cpp)
//
// tests/arch_test.cpp and tests/postpass_test.cpp check the production loops
// against these on adversarial inputs; fuzz_bitpack and fuzz_rans do the
// same on forged ones.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "numarck/core/codec.hpp"
#include "numarck/core/encoded.hpp"
#include "numarck/lossless/rans.hpp"
#include "numarck/util/bitpack.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::reference {

/// classify's labels: 0 (small-value or below-threshold), exact, needs-bin.
inline constexpr std::uint32_t kLabelExact = 0xFFFFFFFFu;
inline constexpr std::uint32_t kLabelNeedsBin = 0xFFFFFFFEu;

/// Pass A1 classification, one point at a time.
inline core::detail::ClassifyStats classify(const double* previous,
                                            const double* current,
                                            std::uint32_t* labels,
                                            std::size_t n, double error_bound,
                                            double small_threshold) {
  core::detail::ClassifyStats s;
  for (std::size_t j = 0; j < n; ++j) {
    if (small_threshold > 0.0 && std::abs(current[j]) < small_threshold &&
        std::abs(previous[j]) <= small_threshold) {
      labels[j] = 0;
      ++s.small;
      continue;
    }
    const double r = previous[j] == 0.0
                         ? HUGE_VAL
                         : (current[j] - previous[j]) / previous[j];
    if (!std::isfinite(r)) {
      labels[j] = kLabelExact;
      ++s.undefined;
    } else if (std::abs(r) < error_bound) {
      labels[j] = 0;
      ++s.below;
      s.err_sum += std::abs(r);
      s.err_max = std::max(s.err_max, std::abs(r));
    } else {
      labels[j] = kLabelNeedsBin;
      ++s.needs_bin;
    }
  }
  return s;
}

/// Unpacks `count` width-bit values from absolute bit `bit_offset`, one
/// BitReader call per value, after the same up-front range check.
inline void unpack(const std::uint8_t* bytes, std::size_t size_bytes,
                   std::size_t bit_offset, unsigned width, std::uint32_t* out,
                   std::size_t count) {
  NUMARCK_EXPECT(width >= 1 && width <= 32, "bit width must be in [1,32]");
  NUMARCK_EXPECT(bit_offset <= size_bytes * 8,
                 "unpack: offset past end of stream");
  NUMARCK_EXPECT(count <= (size_bytes * 8 - bit_offset) / width,
                 "unpack: bit range past end of stream");
  util::BitReader r(bytes, size_bytes, bit_offset);
  for (std::size_t i = 0; i < count; ++i) out[i] = r.get(width);
}

/// Set bits in [bit_begin, bit_end), one bit at a time.
inline std::size_t count_ones(const std::uint8_t* data, std::size_t size_bytes,
                              std::size_t bit_begin, std::size_t bit_end) {
  if (bit_end <= bit_begin) return 0;
  NUMARCK_EXPECT(bit_end <= size_bytes * 8,
                 "count_ones: bit range past end of stream");
  std::size_t count = 0;
  for (std::size_t b = bit_begin; b < bit_end; ++b) {
    count += (data[b / 8] >> (b % 8)) & 1u;
  }
  return count;
}

/// Decodes points [i0, i1) of `enc` into out[i0, i1) through BitReader
/// cursors, one point at a time; `comp_before` is the ζ popcount up to i0.
inline void decode_span(const double* previous, const core::EncodedIteration& enc,
                        std::size_t i0, std::size_t i1,
                        std::size_t comp_before, double* out) {
  util::BitReader zeta(enc.zeta.data(), enc.zeta.size(), i0);
  util::BitReader idx(enc.indices.data(), enc.indices.size(),
                      comp_before * enc.index_bits);
  std::size_t exact_pos = i0 - comp_before;
  for (std::size_t j = i0; j < i1; ++j) {
    if (!zeta.get_bit()) {
      out[j] = enc.exact_values[exact_pos++];
      continue;
    }
    const std::uint32_t i = idx.get(enc.index_bits);
    if (i == 0) {
      out[j] = previous[j];
    } else {
      NUMARCK_EXPECT(i <= enc.centers.size(), "decode: index out of table");
      out[j] = previous[j] * (1.0 + enc.centers[i - 1]);
    }
  }
}

/// Decodes `count` symbols in strict round robin, one step at a time
/// (symbol i from lane i % ways), updating the lanes in place.
inline void rans_decode(const lossless::detail::RansDecodeTable& t,
                        lossless::detail::RansLane* lanes, unsigned ways,
                        std::uint32_t* out, std::size_t count) {
  constexpr std::uint32_t kLow = 1u << 16;
  for (std::size_t i = 0; i < count; ++i) {
    lossless::detail::RansLane& lane = lanes[i % ways];
    const std::uint32_t slot = lane.state % (1u << t.scale_bits);
    const std::uint32_t s = t.slot_symbol[slot];
    lane.state = t.freq[s] * (lane.state >> t.scale_bits) + slot - t.cum[s];
    if (lane.state < kLow) {
      NUMARCK_EXPECT(lane.end - lane.cur >= 2,
                     "rans: lane stream exhausted mid-renormalization");
      lane.state = (lane.state << 16) | lane.cur[0] |
                   (static_cast<std::uint32_t>(lane.cur[1]) << 8);
      lane.cur += 2;
    }
    out[i] = s;
  }
}

/// FPC residual selection, one value at a time: the predictor whose XOR
/// residual has more leading zero bytes wins (FCM on a tie); a count of 4
/// is stored as 3, since the 3-bit code covers {0,1,2,3,5,6,7,8}.
inline void fpc_xor_lzc(const std::uint64_t* values,
                        const std::uint64_t* pred_fcm,
                        const std::uint64_t* pred_dfcm, std::size_t n,
                        std::uint64_t* xr, std::uint8_t* nibble) {
  constexpr unsigned kCode[9] = {0, 1, 2, 3, 3, 4, 5, 6, 7};
  const auto lzb = [](std::uint64_t x) {
    unsigned zeros = 0;
    while (zeros < 8 && (x >> (56 - 8 * zeros)) == 0) ++zeros;
    return zeros;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t x_fcm = values[i] ^ pred_fcm[i];
    const std::uint64_t x_dfcm = values[i] ^ pred_dfcm[i];
    const bool use_dfcm = lzb(x_dfcm) > lzb(x_fcm);
    xr[i] = use_dfcm ? x_dfcm : x_fcm;
    nibble[i] =
        static_cast<std::uint8_t>((use_dfcm ? 1u : 0u) | kCode[lzb(xr[i])] << 1);
  }
}

}  // namespace numarck::reference
