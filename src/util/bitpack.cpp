#include "numarck/util/bitpack.hpp"

#include "numarck/arch/arch.hpp"

namespace numarck::util {

// Both bulk readers dispatch to the active arch kernel table: popcount runs
// a u64-chunk (or byte-wise, on the scalar table) loop, unpack runs one
// unaligned u64 load per value or a gathered SIMD batch. Every table is
// bit-identical and enforces the same ContractViolation bounds semantics.

std::size_t count_ones(const std::uint8_t* data, std::size_t size_bytes,
                       std::size_t bit_begin, std::size_t bit_end) {
  return arch::active().count_ones(data, size_bytes, bit_begin, bit_end);
}

std::vector<std::uint8_t> pack_indices(std::span<const std::uint32_t> values,
                                       unsigned width) {
  NUMARCK_EXPECT(width >= 1 && width <= 32, "bit width must be in [1,32]");
  const std::uint64_t limit =
      width == 32 ? 0xffffffffull : ((1ull << width) - 1);
  std::vector<std::uint8_t> out((values.size() * width + 7) / 8);
  // A 64-bit accumulator drained 32 bits at a time: below 32 pending bits a
  // value of up to 32 bits always fits. Out-of-range values are collected
  // and rejected once, after the loop.
  std::uint64_t acc = 0;
  std::uint64_t overflow = 0;
  unsigned nbits = 0;
  std::uint8_t* dst = out.data();
  for (const std::uint32_t v : values) {
    overflow |= v & ~limit;
    acc |= static_cast<std::uint64_t>(v) << nbits;
    nbits += width;
    if (nbits >= 32) {
      for (unsigned b = 0; b < 4; ++b) {
        *dst++ = static_cast<std::uint8_t>(acc >> (8 * b));
      }
      acc >>= 32;
      nbits -= 32;
    }
  }
  while (nbits > 0) {
    *dst++ = static_cast<std::uint8_t>(acc);
    acc >>= 8;
    nbits = nbits > 8 ? nbits - 8 : 0;
  }
  NUMARCK_EXPECT(overflow == 0, "value does not fit in width");
  return out;
}

std::vector<std::uint32_t> unpack_indices(const std::vector<std::uint8_t>& bytes,
                                          unsigned width, std::size_t count) {
  std::vector<std::uint32_t> out(count);
  arch::active().unpack(bytes.data(), bytes.size(), 0, width, out.data(),
                        count);
  return out;
}

}  // namespace numarck::util
