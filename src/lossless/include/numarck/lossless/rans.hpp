// Interleaved range-ANS entropy coding for the NUMARCK index stream.
//
// The cluster-index histogram is skewed by design — index 0 (the "unchanged"
// code) covers most points and the learned bins have very uneven populations
// (paper Fig. 3) — which is exactly where arithmetic-style coders beat
// Huffman: a symbol with probability 0.95 costs 0.074 bits under rANS but a
// full bit under any prefix code. This module implements a 2-/4-way
// interleaved rANS coder (32-bit state, 16-bit renormalization) with an
// order-0 frequency model quantized per record, in the tight
// BitStreamWriter/Reader discipline the rest of the codec uses: every header
// field is bounds-checked before it can size an allocation, and the decoder
// state/cursor invariants are re-verified after the last symbol.
//
// Interleaving: lane k owns symbols k, k + ways, k + 2*ways, ... Each lane
// is an independent rANS stream encoded in reverse so the decoder reads all
// lanes forward, round-robin — the per-symbol dependency chain splits into
// `ways` independent chains, which is what buys the multi-way decoder its
// throughput (detail::rans_decode_lanes keeps each lane's state in a local
// across an unrolled round, so the chains retire in parallel).
//
// Format: docs/FORMAT.md §9.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace numarck::lossless {

/// Interleave widths the format allows (FORMAT.md §9).
inline constexpr unsigned kRansMaxWays = 4;

/// Encodes `symbols` (each < alphabet_size) into a self-describing stream
/// with `ways` interleaved lanes (1, 2 or 4). Handles the empty and
/// single-symbol cases (a lone used symbol costs 0 bits per point).
std::vector<std::uint8_t> rans_encode(std::span<const std::uint32_t> symbols,
                                      std::uint32_t alphabet_size,
                                      unsigned ways = 4);

/// rans_encode with the symbol histogram already counted: `hist` must be
/// symbol_histogram(symbols, alphabet_size) (the alphabet is hist.size()).
/// Same bytes as the overload above; serialize counts once and shares the
/// histogram with choose_index_coder.
std::vector<std::uint8_t> rans_encode(std::span<const std::uint32_t> symbols,
                                      std::span<const std::uint64_t> hist,
                                      unsigned ways = 4);

/// Occurrence count of each symbol in [0, alphabet_size). Throws
/// ContractViolation on a symbol outside the alphabet.
std::vector<std::uint64_t> symbol_histogram(
    std::span<const std::uint32_t> symbols, std::uint32_t alphabet_size);

/// Exact inverse of rans_encode. Throws ContractViolation on malformed
/// input. `max_count` caps the symbol count a forged header can claim
/// before the output allocation is sized (callers know how many symbols a
/// legitimate stream holds; the EncodedIteration deserializer passes its
/// compressible-point count). Counts are additionally bounded by the
/// per-symbol entropy floor of the stored frequency table whenever that
/// floor is non-zero.
std::vector<std::uint32_t> rans_decode(std::span<const std::uint8_t> stream,
                                       std::size_t max_count);

namespace detail {

/// rANS decode table (FORMAT.md §9), built and validated by rans_decode:
/// slot_symbol maps each of the 1 << scale_bits slots to its symbol;
/// freq/cum are per symbol, with cum[s] <= slot < cum[s] + freq[s] for
/// every slot mapped to s.
struct RansDecodeTable {
  const std::uint16_t* slot_symbol = nullptr;  ///< 1 << scale_bits entries
  const std::uint32_t* freq = nullptr;         ///< per symbol
  const std::uint32_t* cum = nullptr;          ///< per symbol
  unsigned scale_bits = 12;
};

/// One interleave lane: a 32-bit state plus a forward byte cursor over the
/// lane's 16-bit little-endian renormalization words.
struct RansLane {
  std::uint32_t state = 0;
  const std::uint8_t* cur = nullptr;
  const std::uint8_t* end = nullptr;
};

/// rans_decode's hot loop, exposed for the kernel fuzzer: decodes `count`
/// symbols round-robin from `ways` lanes (symbol i from lane i % ways;
/// 1 <= ways <= 4), updating lane states and cursors in place. Throws
/// ContractViolation when a lane's words run out before `count` symbols.
void rans_decode_lanes(const RansDecodeTable& table, RansLane* lanes,
                       unsigned ways, std::uint32_t* out, std::size_t count);

}  // namespace detail

/// Which coder the adaptive postpass policy picked for an index stream.
enum class IndexCoder : std::uint8_t {
  kRaw = 0,      ///< keep the packed B-bit stream (flat histogram)
  kHuffman = 1,  ///< canonical Huffman (small streams, lone-symbol frames)
  kRans = 2,     ///< interleaved rANS (large skewed streams)
};

const char* to_string(IndexCoder c) noexcept;

/// Histogram-flatness heuristic behind `Postpass` auto selection: estimates
/// the entropy-coded size of `symbols` (alphabet 2^index_bits) and picks the
/// coder expected to win, without running either encoder. kRaw when the
/// histogram is too flat for any table-backed coder to beat B bits/point;
/// kHuffman when the stream is too small to amortize the rANS frequency
/// table (or collapses to a single symbol, where the Huffman frame is a
/// 0-bit run-length literal); kRans otherwise. The caller still only
/// replaces the raw stream when the coded form is strictly smaller, so a
/// wrong guess costs throughput, never bytes.
IndexCoder choose_index_coder(std::span<const std::uint32_t> symbols,
                              unsigned index_bits, bool allow_huffman,
                              bool allow_rans);

/// choose_index_coder over a symbol_histogram of alphabet 2^index_bits.
IndexCoder choose_index_coder(std::span<const std::uint64_t> hist,
                              unsigned index_bits, bool allow_huffman,
                              bool allow_rans);

}  // namespace numarck::lossless
