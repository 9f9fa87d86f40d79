#include "numarck/lossless/rle.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "numarck/util/bitpack.hpp"
#include "numarck/util/byte_stream.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::lossless {

namespace {

/// The 64 bits starting at byte 8 * word of an LSB-first bitmap; bytes past
/// `size` read as zero.
std::uint64_t load_word(const std::uint8_t* data, std::size_t size,
                        std::size_t word) {
  const std::size_t byte = word * 8;
  if constexpr (std::endian::native == std::endian::little) {
    if (byte + 8 <= size) {
      std::uint64_t w;
      std::memcpy(&w, data + byte, sizeof w);
      return w;
    }
  }
  std::uint64_t w = 0;
  const std::size_t end = std::min(size, byte + 8);
  for (std::size_t b = byte; b < end; ++b) {
    w |= static_cast<std::uint64_t>(data[b]) << (8 * (b - byte));
  }
  return w;
}

/// First bit position in [pos, end) whose value differs from `current`, or
/// `end` when the run reaches it. Scans 64 bits per step: flipping a ones
/// run to zeros makes both run kinds a countr_zero.
std::size_t run_end(const std::uint8_t* data, std::size_t size,
                    std::size_t pos, std::size_t end, bool current) {
  const std::uint64_t flip = current ? ~std::uint64_t{0} : 0;
  std::size_t word = pos / 64;
  std::uint64_t w = (load_word(data, size, word) ^ flip) >> (pos % 64);
  if (w != 0) {
    return std::min(end, pos + static_cast<std::size_t>(std::countr_zero(w)));
  }
  for (pos = ++word * 64; pos < end; pos = ++word * 64) {
    w = load_word(data, size, word) ^ flip;
    if (w != 0) {
      return std::min(end,
                      pos + static_cast<std::size_t>(std::countr_zero(w)));
    }
  }
  return end;
}

}  // namespace

std::vector<std::uint8_t> rle_encode_bits(std::span<const std::uint8_t> packed,
                                          std::size_t bit_count) {
  NUMARCK_EXPECT(packed.size() * 8 >= bit_count, "rle: bitmap too small");
  util::ByteWriter out;
  if (bit_count == 0) {
    out.put_u8(0);
    return out.take();
  }
  bool current = (packed[0] & 1u) != 0;
  out.put_u8(current ? 1 : 0);
  for (std::size_t pos = 0; pos < bit_count; current = !current) {
    const std::size_t next =
        run_end(packed.data(), packed.size(), pos, bit_count, current);
    out.put_varint(next - pos);
    pos = next;
  }
  return out.take();
}

std::vector<std::uint8_t> rle_decode_bits(std::span<const std::uint8_t> stream,
                                          std::size_t bit_count) {
  // Validation pass first: every run is checked and the total must land on
  // bit_count exactly before any output proportional to it is materialized.
  // O(stream bytes), no allocation — the repository's deserializer
  // discipline (a forged stream is rejected at varint cost, not at
  // expansion cost). Only the encoder's own output is accepted — minimal varints, and the
  // empty bitmap as the single byte 0 — so every bitmap has exactly one
  // stream and rle_encode_bits(rle_decode_bits(s)) == s.
  util::ByteReader scan(stream);
  const std::uint8_t first = scan.get_u8();
  NUMARCK_EXPECT(first <= 1, "rle: bad initial bit value");
  NUMARCK_EXPECT(bit_count != 0 || first == 0,
                 "rle: empty bitmap must start with 0");
  std::uint64_t total = 0;
  while (total < bit_count) {
    NUMARCK_EXPECT(!scan.at_end(), "rle: truncated run stream");
    const std::size_t at = scan.position();
    const std::uint64_t run = scan.get_varint();
    NUMARCK_EXPECT(run > 0 && run <= bit_count - total,
                   "rle: run overflows bit count");
    const auto width = static_cast<std::size_t>(std::bit_width(run));
    NUMARCK_EXPECT(scan.position() - at == (width + 6) / 7,
                   "rle: overlong run varint");
    total += run;
  }
  NUMARCK_EXPECT(scan.at_end(), "rle: trailing bytes after final run");

  // Whole runs at a time into a zeroed buffer: a ones run is a memset, a
  // zeros run only moves the cursor.
  std::vector<std::uint8_t> out((bit_count + 7) / 8, 0);
  util::BitSpanWriter w(out.data(), out.size(), 0);
  util::ByteReader in(stream);
  bool current = in.get_u8() != 0;
  for (std::uint64_t produced = 0; produced < bit_count; current = !current) {
    const std::uint64_t run = in.get_varint();
    if (current) {
      w.put_ones(run);
    } else {
      w.put_zeros(run);
    }
    produced += run;
  }
  w.finish();
  return out;
}

}  // namespace numarck::lossless
