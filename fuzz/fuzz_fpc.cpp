// Fuzz target: the FPC lossless decoder.
//
// Surviving outputs must re-compress and decompress to bit-identical values
// (FPC is lossless), proving the decoder produced a self-consistent value
// sequence rather than garbage of the right length.
//
// The predictor tables are reused across calls on a thread, so after every
// input — accepted or rejected — a fixed good stream must still decode to
// its values: a table left dirty by the input would change them.
#include <cstdint>
#include <cstring>
#include <vector>

#include "numarck/lossless/fpc.hpp"
#include "numarck/util/expect.hpp"

namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct Reference {
  std::vector<double> values;
  std::vector<std::uint8_t> stream;
};

const Reference& reference() {
  static const Reference ref = [] {
    Reference r;
    for (int i = 0; i < 300; ++i) {
      r.values.push_back(1.0 + 1e-3 * i + (i % 7 == 0 ? 0.25 : 0.0));
    }
    r.stream = numarck::lossless::fpc_compress(r.values);
    return r;
  }();
  return ref;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const Reference& ref = reference();
  try {
    const auto values = numarck::lossless::fpc_decompress({data, size});
    const auto reencoded = numarck::lossless::fpc_compress(values);
    const auto roundtrip = numarck::lossless::fpc_decompress(reencoded);
    // Compare bit patterns: NaNs must round-trip too.
    if (!same_bits(values, roundtrip)) __builtin_trap();
  } catch (const numarck::ContractViolation&) {
  }
  if (!same_bits(numarck::lossless::fpc_decompress(ref.stream), ref.values)) {
    __builtin_trap();
  }
  return 0;
}
