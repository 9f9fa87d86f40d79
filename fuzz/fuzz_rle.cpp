// Fuzz target: the ζ-bitmap run-length decoder.
//
// The first two input bytes choose the declared bit count (the codec passes
// point_count from the already-validated record header); the rest is the run
// stream. A surviving decode must produce exactly ceil(bit_count / 8) bytes,
// and re-encoding them must give back the stream byte for byte: the decoder
// accepts only canonical run streams, so each bitmap has exactly one.
#include <cstdint>
#include <cstring>

#include "numarck/lossless/rle.hpp"
#include "numarck/util/expect.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 2) return 0;
  const std::size_t bit_count =
      static_cast<std::size_t>(data[0]) | (static_cast<std::size_t>(data[1]) << 8);
  const std::span<const std::uint8_t> stream(data + 2, size - 2);
  try {
    const auto bits = numarck::lossless::rle_decode_bits(stream, bit_count);
    if (bits.size() != (bit_count + 7) / 8) __builtin_trap();
    const auto again = numarck::lossless::rle_encode_bits(bits, bit_count);
    if (again.size() != stream.size() ||
        std::memcmp(again.data(), stream.data(), stream.size()) != 0) {
      __builtin_trap();
    }
  } catch (const numarck::ContractViolation&) {
  }
  return 0;
}
