#include "numarck/util/bitpack.hpp"

#include <utility>

namespace numarck::util {

namespace {

/// Word-accumulator unpack: one unaligned u64 load at the cursor's byte
/// holds 57 / width whole values at any bit phase (phase <= 7). kWidth is
/// the width as a compile-time constant, so the per-word loop unrolls; 0
/// means it is known only at run time. Stops before a load would read past
/// the buffer and returns the number of values unpacked.
template <unsigned kWidth>
std::size_t unpack_words(const std::uint8_t* bytes, std::size_t size_bytes,
                         std::size_t bit, unsigned width, std::uint32_t* out,
                         std::size_t count) {
  const unsigned w = kWidth != 0 ? kWidth : width;
  const std::uint64_t mask = w == 32 ? 0xffffffffull : ((1ull << w) - 1);
  const std::size_t per_word = 57 / w;
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + per_word <= count && (bit >> 3) + 8 <= size_bytes;
         i += per_word, bit += per_word * w) {
      std::uint64_t word;
      std::memcpy(&word, bytes + (bit >> 3), sizeof word);
      word >>= bit & 7;
      for (std::size_t k = 0; k < per_word; ++k) {
        out[i + k] = static_cast<std::uint32_t>(word & mask);
        word >>= w;
      }
    }
  }
  return i;
}

/// unpack_words at `width`, with an unrolled instance for every index
/// width the codec writes (1..16) and the run-time-width loop above that.
template <unsigned... kMinus1>
std::size_t unpack_words_at(std::integer_sequence<unsigned, kMinus1...>,
                            const std::uint8_t* bytes, std::size_t size_bytes,
                            std::size_t bit, unsigned width,
                            std::uint32_t* out, std::size_t count) {
  std::size_t done = 0;
  const bool fixed =
      ((width == kMinus1 + 1 &&
        (done = unpack_words<kMinus1 + 1>(bytes, size_bytes, bit, width, out,
                                          count),
         true)) ||
       ...);
  return fixed ? done
               : unpack_words<0>(bytes, size_bytes, bit, width, out, count);
}

}  // namespace

std::size_t count_ones(const std::uint8_t* data, std::size_t size_bytes,
                       std::size_t bit_begin, std::size_t bit_end) {
  if (bit_end <= bit_begin) return 0;
  NUMARCK_EXPECT(bit_end <= size_bytes * 8,
                 "count_ones: bit range past end of stream");
  std::size_t byte = bit_begin / 8;
  const std::size_t last_byte = (bit_end - 1) / 8;
  const unsigned lo = static_cast<unsigned>(bit_begin % 8);
  if (byte == last_byte) {
    const unsigned width = static_cast<unsigned>(bit_end - bit_begin);
    const auto mask = static_cast<std::uint8_t>(((1u << width) - 1u) << lo);
    return static_cast<std::size_t>(
        std::popcount(static_cast<std::uint8_t>(data[byte] & mask)));
  }
  // Partial head byte, whole u64 words, whole bytes, partial tail byte.
  std::size_t count = 0;
  if (lo != 0) {
    count += static_cast<std::size_t>(
        std::popcount(static_cast<std::uint8_t>(data[byte] >> lo)));
    ++byte;
  }
  for (; byte + 8 <= last_byte; byte += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + byte, sizeof w);
    count += static_cast<std::size_t>(std::popcount(w));
  }
  for (; byte < last_byte; ++byte) {
    count += static_cast<std::size_t>(std::popcount(data[byte]));
  }
  const unsigned tail = static_cast<unsigned>((bit_end - 1) % 8 + 1);
  const auto tail_mask =
      static_cast<std::uint8_t>(tail == 8 ? 0xffu : (1u << tail) - 1u);
  count += static_cast<std::size_t>(
      std::popcount(static_cast<std::uint8_t>(data[last_byte] & tail_mask)));
  return count;
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

void unpack_indices(const std::uint8_t* bytes, std::size_t size_bytes,
                    std::size_t bit_offset, unsigned width, std::uint32_t* out,
                    std::size_t count) {
  NUMARCK_EXPECT(width >= 1 && width <= 32, "bit width must be in [1,32]");
  NUMARCK_EXPECT(bit_offset <= size_bytes * 8,
                 "unpack: offset past end of stream");
  NUMARCK_EXPECT(count <= (size_bytes * 8 - bit_offset) / width,
                 "unpack: bit range past end of stream");
  std::size_t i =
      unpack_words_at(std::make_integer_sequence<unsigned, 16>{}, bytes,
                      size_bytes, bit_offset, width, out, count);
  // The last values before the end of the buffer (or a big-endian host).
  const std::uint64_t mask =
      width == 32 ? 0xffffffffull : ((1ull << width) - 1);
  for (std::size_t bit = bit_offset + i * width; i < count;
       ++i, bit += width) {
    out[i] = read_bits_at(bytes, size_bytes, bit, width, mask);
  }
}

std::vector<std::uint32_t> unpack_indices(const std::vector<std::uint8_t>& bytes,
                                          unsigned width, std::size_t count) {
  std::vector<std::uint32_t> out(count);
  unpack_indices(bytes.data(), bytes.size(), 0, width, out.data(), count);
  return out;
}

}  // namespace numarck::util
