// Fuzz target: the bit-unpack and popcount loops.
//
// The input's first bytes forge a bit offset, a width (deliberately allowed
// to be out of [1,32]) and a count; the remainder is the bit stream. The
// production util::unpack_indices / util::count_ones and their narrow
// references in tests/kernel_reference.hpp run the same calls: each must
// either serve the request entirely from in-range bytes or throw
// ContractViolation, and the two must agree bit for bit — including on
// WHETHER they threw. A divergence traps.
#include <cstdint>
#include <vector>

#include "kernel_reference.hpp"
#include "numarck/util/bitpack.hpp"
#include "numarck/util/expect.hpp"

namespace {

struct UnpackResult {
  bool threw = false;
  std::vector<std::uint32_t> values;
};

template <typename Unpack>
UnpackResult run_unpack(Unpack unpack, const std::uint8_t* bytes,
                        std::size_t size, std::size_t offset, unsigned width,
                        std::size_t count) {
  UnpackResult r;
  r.values.assign(count, 0xDEADBEEFu);
  try {
    unpack(bytes, size, offset, width, r.values.data(), count);
  } catch (const numarck::ContractViolation&) {
    r.threw = true;
    r.values.clear();
  }
  return r;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 6) return 0;
  const std::size_t offset = static_cast<std::size_t>(data[0]) |
                             (static_cast<std::size_t>(data[1]) << 8);
  // Raw width 0..39: exercises both every valid width and the reject path.
  const unsigned width = data[2] % 40u;
  const std::size_t count = (static_cast<std::size_t>(data[3]) |
                             (static_cast<std::size_t>(data[4]) << 8)) %
                            4096u;
  const std::uint8_t* stream = data + 6;
  const std::size_t stream_size = size - 6;

  const UnpackResult ref = run_unpack(numarck::reference::unpack, stream,
                                      stream_size, offset, width, count);
  if (!ref.threw) {
    // A successful unpack implies the whole range was in bounds.
    if (width < 1 || width > 32) __builtin_trap();
    if (offset + count * width > stream_size * 8) __builtin_trap();
    for (const std::uint32_t v : ref.values) {
      if (width < 32 && v >= (1u << width)) __builtin_trap();
    }
  }
  const UnpackResult got =
      run_unpack([](const std::uint8_t* b, std::size_t n, std::size_t off,
                    unsigned w, std::uint32_t* out, std::size_t c) {
        numarck::util::unpack_indices(b, n, off, w, out, c);
      },
                 stream, stream_size, offset, width, count);
  if (got.threw != ref.threw) __builtin_trap();
  if (got.values != ref.values) __builtin_trap();

  const std::size_t total_bits = stream_size * 8;
  const std::size_t begin = offset <= total_bits ? offset : total_bits;
  const std::size_t end =
      begin + count <= total_bits ? begin + count : total_bits;
  if (numarck::util::count_ones(stream, stream_size, begin, end) !=
      numarck::reference::count_ones(stream, stream_size, begin, end)) {
    __builtin_trap();
  }
  return 0;
}
