// Fuzz target: the interleaved rANS coder.
//
// Three contracts in one harness. Round-trip: the input tail is a
// cluster-index stream; rans_encode at the forged ways/width must decode
// back to exactly those symbols. Hostile decode: the whole input is fed to
// rans_decode, which must either return a bounded symbol vector or throw
// ContractViolation — no UB, no forged-count allocation. Loop differential:
// a decode table and lanes forged from the tail drive the production
// interleaved loop and the strict round-robin reference in
// tests/kernel_reference.hpp, which must agree bit for bit on symbols, lane
// states and cursors — including on WHETHER they threw. Any divergence
// traps.
#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "kernel_reference.hpp"
#include "numarck/lossless/rans.hpp"
#include "numarck/util/expect.hpp"

namespace {

namespace nl = numarck::lossless;

struct LoopResult {
  bool threw = false;
  std::vector<std::uint32_t> symbols;
  std::array<nl::detail::RansLane, nl::kRansMaxWays> lanes{};
};

template <typename Decode>
LoopResult run_loop(Decode decode, const nl::detail::RansDecodeTable& table,
                    const std::array<nl::detail::RansLane, nl::kRansMaxWays>&
                        lanes,
                    unsigned ways, std::size_t count) {
  LoopResult r;
  r.lanes = lanes;
  r.symbols.assign(count, 0xDEADBEEFu);
  try {
    decode(table, r.lanes.data(), ways, r.symbols.data(), count);
  } catch (const numarck::ContractViolation&) {
    r.threw = true;
  }
  return r;
}

/// Production loop vs reference loop on a table and lanes forged from
/// `tail`: up to 16 symbols with frequencies 1..16 (symbol 0 takes the rest
/// of the 2^scale_bits slots), then the remaining bytes split into `ways`
/// lanes of a 4-byte seed state plus renormalization words.
void check_loops(std::span<const std::uint8_t> tail, unsigned ways,
                 unsigned scale_bits) {
  const std::size_t alphabet = std::clamp<std::size_t>(tail.size(), 1, 16);
  std::vector<std::uint32_t> freq(alphabet, 1);
  for (std::size_t s = 0; s < alphabet && s < tail.size(); ++s) {
    freq[s] = 1u + (tail[s] & 15u);
  }
  std::uint32_t sum = 0;
  for (const std::uint32_t f : freq) sum += f;
  freq[0] += (1u << scale_bits) - sum;
  std::vector<std::uint32_t> cum(alphabet + 1, 0);
  std::vector<std::uint16_t> slot_symbol;
  for (std::size_t s = 0; s < alphabet; ++s) {
    cum[s + 1] = cum[s] + freq[s];
    slot_symbol.insert(slot_symbol.end(), freq[s],
                       static_cast<std::uint16_t>(s));
  }
  const nl::detail::RansDecodeTable table{slot_symbol.data(), freq.data(),
                                          cum.data(), scale_bits};

  const std::span<const std::uint8_t> body =
      tail.subspan(std::min(tail.size(), alphabet));
  const std::size_t per_lane = body.size() / ways;
  std::array<nl::detail::RansLane, nl::kRansMaxWays> lanes{};
  for (unsigned k = 0; k < ways; ++k) {
    const std::uint8_t* base = body.data() + k * per_lane;
    const std::size_t seed = std::min<std::size_t>(4, per_lane);
    for (std::size_t b = 0; b < seed; ++b) {
      lanes[k].state |= static_cast<std::uint32_t>(base[b]) << (8 * b);
    }
    lanes[k].cur = base + seed;
    lanes[k].end = base + per_lane;
  }
  const std::size_t count = std::min<std::size_t>(2 * tail.size(), 4096);

  const LoopResult ref =
      run_loop(numarck::reference::rans_decode, table, lanes, ways, count);
  const LoopResult got =
      run_loop(nl::detail::rans_decode_lanes, table, lanes, ways, count);
  if (got.threw != ref.threw || got.symbols != ref.symbols) __builtin_trap();
  for (unsigned k = 0; k < ways; ++k) {
    if (got.lanes[k].state != ref.lanes[k].state ||
        got.lanes[k].cur != ref.lanes[k].cur) {
      __builtin_trap();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 2) return 0;
  const unsigned ways = 1u << (data[0] % 3u);           // 1, 2 or 4
  const unsigned index_bits = 2u + data[1] % 15u;       // 2..16
  const std::uint32_t alphabet = std::uint32_t{1} << index_bits;
  const std::span<const std::uint8_t> tail(data + 2, size - 2);

  std::vector<std::uint32_t> symbols(tail.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    // Spread bytes over wide alphabets too, not just the low 256 symbols.
    symbols[i] = (static_cast<std::uint32_t>(tail[i]) * 257u +
                  static_cast<std::uint32_t>(i)) %
                 alphabet;
  }
  const auto encoded = nl::rans_encode(symbols, alphabet, ways);
  if (nl::rans_decode(encoded, symbols.size()) != symbols) __builtin_trap();

  // The policy heuristic must be total on any symbol stream.
  (void)nl::choose_index_coder(symbols, index_bits, /*allow_huffman=*/true,
                               /*allow_rans=*/true);

  // Hostile decode: arbitrary bytes.
  constexpr std::size_t kMaxCount = std::size_t{1} << 18;
  try {
    if (nl::rans_decode({data, size}, kMaxCount).size() > kMaxCount) {
      __builtin_trap();
    }
  } catch (const numarck::ContractViolation&) {
  }

  check_loops(tail, ways, 8u + data[1] % 9u);  // scale_bits 8..16
  return 0;
}
