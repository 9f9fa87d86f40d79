// Dense bit-level packing for the NUMARCK index stream.
//
// The encoded checkpoint stores one B-bit index (1 <= B <= 32) per
// compressible point plus a 1-bit compressibility bitmap. BitWriter/BitReader
// implement LSB-first packing into a byte vector so that a stream written with
// width B is readable with the same width regardless of endianness.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "numarck/util/expect.hpp"

namespace numarck::util {

class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `width` bits of `value` (LSB first).
  void put(std::uint32_t value, unsigned width) {
    NUMARCK_EXPECT(width >= 1 && width <= 32, "bit width must be in [1,32]");
    if (width < 32) {
      NUMARCK_EXPECT(value < (1u << width), "value does not fit in width");
    }
    acc_ |= static_cast<std::uint64_t>(value) << nbits_;
    nbits_ += width;
    while (nbits_ >= 8) {
      bytes_.push_back(static_cast<std::uint8_t>(acc_ & 0xffu));
      acc_ >>= 8;
      nbits_ -= 8;
    }
  }

  /// Appends a single bit.
  void put_bit(bool b) { put(b ? 1u : 0u, 1); }

  /// Flushes the partial byte (zero-padded) and returns the buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish() {
    if (nbits_ > 0) {
      bytes_.push_back(static_cast<std::uint8_t>(acc_ & 0xffu));
      acc_ = 0;
      nbits_ = 0;
    }
    return std::move(bytes_);
  }

  /// Number of whole bits written so far.
  [[nodiscard]] std::size_t bit_count() const noexcept {
    return bytes_.size() * 8 + nbits_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;
  unsigned nbits_ = 0;
};

/// Writes a bit stream at an absolute bit offset into a caller-owned,
/// zero-initialized buffer. This is the packer of the parallel
/// classify-then-pack codec: each worker owns a disjoint bit range whose
/// start/end offsets come from prefix sums, so the packed bytes are identical
/// to a sequential BitWriter pass regardless of how the range was split.
///
/// Bytes entirely inside the writer's range are stored directly; the partial
/// first and last bytes may be shared with the adjacent ranges and are merged
/// with an atomic fetch_or, so concurrent writers never lose each other's
/// bits (the buffer must start zeroed).
class BitSpanWriter {
 public:
  BitSpanWriter(std::uint8_t* buf, std::size_t size_bytes,
                std::size_t bit_offset)
      : buf_(buf), size_(size_bytes), byte_(bit_offset / 8) {
    const unsigned phase = static_cast<unsigned>(bit_offset % 8);
    nbits_ = phase;  // phantom zero bits below the start offset
    shared_head_ = phase != 0;
  }

  /// Appends the low `width` bits of `value` (LSB first) at the cursor.
  void put(std::uint32_t value, unsigned width) {
    NUMARCK_EXPECT(width >= 1 && width <= 32, "bit width must be in [1,32]");
    if (width < 32) {
      NUMARCK_EXPECT(value < (1u << width), "value does not fit in width");
    }
    acc_ |= static_cast<std::uint64_t>(value) << nbits_;
    nbits_ += width;
    while (nbits_ >= 8) flush_byte();
  }

  /// Appends a single bit.
  void put_bit(bool b) { put(b ? 1u : 0u, 1); }

  /// Appends `count` values of `width` bits each — put() with the width
  /// check hoisted out of the loop (the packer's compressible-run path).
  void put_many(const std::uint32_t* values, std::size_t count,
                unsigned width) {
    NUMARCK_EXPECT(width >= 1 && width <= 32, "bit width must be in [1,32]");
    const std::uint64_t limit =
        width == 32 ? 0xffffffffull : ((1ull << width) - 1);
    for (std::size_t i = 0; i < count; ++i) {
      NUMARCK_EXPECT(values[i] <= limit, "value does not fit in width");
      acc_ |= static_cast<std::uint64_t>(values[i]) << nbits_;
      nbits_ += width;
      while (nbits_ >= 8) flush_byte();
    }
  }

  /// Appends `count` zero bits. Interior bytes are skipped rather than
  /// stored — the destination buffer starts zeroed (a class-level
  /// requirement), so advancing the cursor IS the write. This turns the
  /// ζ bitmap's exact runs into O(1) cursor moves.
  void put_zeros(std::size_t count) {
    if (count == 0) return;
    if (nbits_ > 0) {
      const unsigned room = 8 - nbits_;
      if (count < room) {
        nbits_ += static_cast<unsigned>(count);
        return;
      }
      flush_byte_padded();
      count -= room;
    }
    byte_ += count / 8;
    NUMARCK_EXPECT(byte_ <= size_, "BitSpanWriter: write past end of buffer");
    nbits_ = static_cast<unsigned>(count % 8);
  }

  /// Appends `count` one bits; whole bytes become a memset.
  void put_ones(std::size_t count) {
    if (count == 0) return;
    if (nbits_ > 0) {
      const unsigned room = 8 - nbits_;
      const unsigned take =
          count < room ? static_cast<unsigned>(count) : room;
      acc_ |= ((1ull << take) - 1) << nbits_;
      nbits_ += take;
      count -= take;
      if (nbits_ == 8) flush_byte();
      if (count == 0) return;
    }
    const std::size_t whole = count / 8;
    if (whole != 0) {
      NUMARCK_EXPECT(byte_ + whole <= size_,
                     "BitSpanWriter: write past end of buffer");
      std::memset(buf_ + byte_, 0xff, whole);
      byte_ += whole;
    }
    const unsigned rest = static_cast<unsigned>(count % 8);
    if (rest != 0) {
      acc_ = (1ull << rest) - 1;
      nbits_ = rest;
    }
  }

  /// Merges the trailing partial byte (shared with the next range) into the
  /// buffer. Must be called once after the last put.
  void finish() {
    if (nbits_ == 0) return;
    NUMARCK_EXPECT(byte_ < size_, "BitSpanWriter: write past end of buffer");
    std::atomic_ref<std::uint8_t>(buf_[byte_])
        .fetch_or(static_cast<std::uint8_t>(acc_ & 0xffu),
                  std::memory_order_relaxed);
    acc_ = 0;
    nbits_ = 0;
    shared_head_ = false;
  }

 private:
  /// Stores the low byte of acc_ at the cursor (fetch_or for the shared
  /// first byte) and shifts it out. Requires nbits_ >= 8.
  void flush_byte() {
    NUMARCK_EXPECT(byte_ < size_, "BitSpanWriter: write past end of buffer");
    const auto b = static_cast<std::uint8_t>(acc_ & 0xffu);
    if (shared_head_) {
      std::atomic_ref<std::uint8_t>(buf_[byte_])
          .fetch_or(b, std::memory_order_relaxed);
      shared_head_ = false;
    } else {
      buf_[byte_] = b;
    }
    ++byte_;
    acc_ >>= 8;
    nbits_ -= 8;
  }

  /// Flushes a partial byte whose high bits are zero padding (put_zeros
  /// crossing a byte boundary). Requires 0 < nbits_ < 8.
  void flush_byte_padded() {
    nbits_ = 8;
    flush_byte();
    acc_ = 0;
  }

  std::uint8_t* buf_;
  std::size_t size_;
  std::size_t byte_;
  std::uint64_t acc_ = 0;
  unsigned nbits_ = 0;
  bool shared_head_ = false;
};

/// End-of-stream contract: every read checks against the byte range handed
/// to the constructor and throws ContractViolation when the stream is
/// exhausted — callers never need (and must not be trusted) to pre-compute
/// how many bits are safe to read from untrusted input.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size_bytes)
      : data_(data), size_(size_bytes) {}

  /// Starts reading at an absolute bit offset (the parallel decoder seeks
  /// each worker's cursor from the same prefix sums the packer used).
  /// The offset must lie within the stream.
  BitReader(const std::uint8_t* data, std::size_t size_bytes,
            std::size_t bit_offset)
      : data_(data), size_(size_bytes), pos_(bit_offset / 8) {
    NUMARCK_EXPECT(bit_offset <= size_bytes * 8,
                   "BitReader: offset past end of stream");
    const unsigned phase = static_cast<unsigned>(bit_offset % 8);
    if (phase != 0) {
      acc_ = static_cast<std::uint64_t>(data_[pos_++]) >> phase;
      nbits_ = 8 - phase;
    }
  }

  explicit BitReader(const std::vector<std::uint8_t>& v)
      : BitReader(v.data(), v.size()) {}

  /// Reads `width` bits (LSB first). Throws if the stream is exhausted.
  [[nodiscard]] std::uint32_t get(unsigned width) {
    NUMARCK_EXPECT(width >= 1 && width <= 32, "bit width must be in [1,32]");
    while (nbits_ < width) {
      NUMARCK_EXPECT(pos_ < size_, "BitReader: read past end of stream");
      acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << nbits_;
      nbits_ += 8;
    }
    const std::uint32_t v =
        static_cast<std::uint32_t>(acc_ & ((width == 32) ? 0xffffffffull
                                                          : ((1ull << width) - 1)));
    acc_ >>= width;
    nbits_ -= width;
    return v;
  }

  [[nodiscard]] bool get_bit() { return get(1) != 0; }

  /// Bits remaining (counting buffered and unread bytes).
  [[nodiscard]] std::size_t bits_remaining() const noexcept {
    return (size_ - pos_) * 8 + nbits_;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  unsigned nbits_ = 0;
};

/// Reads the `width`-bit value at absolute bit `q` of an LSB-first stream
/// (`mask` = the low `width` bits). One unaligned u64 load covers the value
/// whenever 8 bytes fit (q % 8 + width <= 39 < 64 for width <= 32); the
/// per-byte loop handles the last few bytes of the buffer. The caller
/// guarantees q + width <= size_bytes * 8.
inline std::uint32_t read_bits_at(const std::uint8_t* bytes,
                                  std::size_t size_bytes, std::size_t q,
                                  unsigned width, std::uint64_t mask) {
  const std::size_t byte = q >> 3;
  const unsigned phase = static_cast<unsigned>(q & 7);
  std::uint64_t w = 0;
  if (std::endian::native == std::endian::little && byte + 8 <= size_bytes) {
    std::memcpy(&w, bytes + byte, sizeof w);
  } else {
    for (unsigned got = 0; got < phase + width; got += 8) {
      w |= static_cast<std::uint64_t>(bytes[byte + got / 8]) << got;
    }
  }
  return static_cast<std::uint32_t>((w >> phase) & mask);
}

/// Number of set bits in the bit range [bit_begin, bit_end) of an LSB-first
/// stream. The parallel decoder recovers each worker's index/exact cursor by
/// popcounting the ζ bitmap up to the worker's first point.
std::size_t count_ones(const std::uint8_t* data, std::size_t size_bytes,
                       std::size_t bit_begin, std::size_t bit_end);

/// Packs each of `values` in `width` bits (LSB first) into a fresh byte
/// vector — the same bytes as a BitWriter pass. Throws ContractViolation
/// when a value does not fit in `width` bits.
std::vector<std::uint8_t> pack_indices(std::span<const std::uint32_t> values,
                                       unsigned width);

/// Unpacks `count` width-bit values from `bytes`.
std::vector<std::uint32_t> unpack_indices(const std::vector<std::uint8_t>& bytes,
                                          unsigned width, std::size_t count);

/// Unpacks `count` width-bit values starting at absolute bit `bit_offset`
/// into `out`. Throws ContractViolation, before reading anything, when the
/// width is outside [1, 32] or the range does not fit in the stream.
void unpack_indices(const std::uint8_t* bytes, std::size_t size_bytes,
                    std::size_t bit_offset, unsigned width, std::uint32_t* out,
                    std::size_t count);

}  // namespace numarck::util
