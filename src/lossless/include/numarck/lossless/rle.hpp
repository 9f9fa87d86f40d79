// Run-length coding for bitmaps. The ζ compressibility bitmap is almost
// always long runs of 1s punctuated by isolated incompressible points, so
// varint-coded run lengths shrink it by an order of magnitude.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace numarck::lossless {

/// Encodes `bit_count` bits of an LSB-first packed bitmap as alternating
/// varint run lengths (first byte stores the value of the first run).
std::vector<std::uint8_t> rle_encode_bits(std::span<const std::uint8_t> packed,
                                          std::size_t bit_count);

/// Inverse of rle_encode_bits; returns the packed bitmap and checks that the
/// decoded run lengths sum to `bit_count`. Accepts only streams
/// rle_encode_bits can produce (minimal varints; the empty bitmap is the
/// single byte 0), so re-encoding the result gives back the stream.
std::vector<std::uint8_t> rle_decode_bits(std::span<const std::uint8_t> stream,
                                          std::size_t bit_count);

}  // namespace numarck::lossless
