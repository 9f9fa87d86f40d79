// Little-endian byte serialization used by the checkpoint container format
// and the FPC compressor. ByteWriter/ByteReader provide fixed-width and
// LEB128 varint primitives with explicit bounds checks on the read side.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "numarck/util/expect.hpp"

namespace numarck::util {

/// Ceiling on the point count a record may declare when the reader cannot
/// cross-check it against a known snapshot length (core::EncodedIteration
/// and the spatial baselines' records share it).
inline constexpr std::size_t kDefaultMaxPointCount = std::size_t{1} << 33;

class ByteWriter {
 public:
  ByteWriter() = default;

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    buf_.insert(buf_.end(), raw, raw + sizeof(T));
  }

  void put_u8(std::uint8_t v) { put(v); }
  void put_u16(std::uint16_t v) { put(v); }
  void put_u32(std::uint32_t v) { put(v); }
  void put_u64(std::uint64_t v) { put(v); }
  void put_f64(double v) { put(v); }

  /// Unsigned LEB128.
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80u);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void put_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }

  void put_string(const std::string& s) {
    put_varint(s.size());
    put_bytes(s.data(), s.size());
  }

  template <typename T>
  void put_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_varint(v.size());
    put_bytes(v.data(), v.size() * sizeof(T));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    NUMARCK_EXPECT(sizeof(T) <= remaining(), "ByteReader: truncated stream");
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  [[nodiscard]] std::uint8_t get_u8() { return get<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t get_u16() { return get<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t get_u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t get_u64() { return get<std::uint64_t>(); }
  [[nodiscard]] double get_f64() { return get<double>(); }

  [[nodiscard]] std::uint64_t get_varint() {
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
      NUMARCK_EXPECT(pos_ < data_.size(), "ByteReader: truncated varint");
      NUMARCK_EXPECT(shift < 64, "ByteReader: varint overflow");
      const std::uint8_t b = data_[pos_++];
      // At shift 63 only one bit of the payload is left; anything larger
      // would be silently dropped by the shift.
      NUMARCK_EXPECT(shift < 63 || (b & 0x7fu) <= 1u,
                     "ByteReader: varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7fu) << shift;
      if (!(b & 0x80u)) return v;
      shift += 7;
    }
  }

  void get_bytes(void* out, std::size_t size) {
    NUMARCK_EXPECT(size <= remaining(), "ByteReader: truncated stream");
    // memcpy's pointer arguments must be non-null even for size 0, and an
    // empty vector's data() is null.
    if (size != 0) std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
  }

  /// Advances the cursor without copying.
  void skip(std::size_t size) {
    NUMARCK_EXPECT(size <= remaining(), "ByteReader: truncated stream");
    pos_ += size;
  }

  [[nodiscard]] std::string get_string() {
    const std::size_t n = get_varint();
    // Length-checked before allocation: a forged count must not OOM.
    NUMARCK_EXPECT(n <= remaining(), "ByteReader: truncated string");
    std::string s(n, '\0');
    get_bytes(s.data(), n);
    return s;
  }

  template <typename T>
  [[nodiscard]] std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t n = get_varint();
    // Divide instead of multiplying so a forged 2^60 count can neither
    // overflow the size arithmetic nor reach the allocation below.
    NUMARCK_EXPECT(n <= remaining() / sizeof(T), "ByteReader: truncated vector");
    std::vector<T> v(n);
    get_bytes(v.data(), n * sizeof(T));
    return v;
  }

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace numarck::util
