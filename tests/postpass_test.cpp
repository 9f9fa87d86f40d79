// Tests for the lossless post-pass codecs (Huffman, bit-RLE, interleaved
// rANS) and their integration into EncodedIteration serialization (§III-B
// extension).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "kernel_reference.hpp"
#include "numarck/core/codec.hpp"
#include "numarck/lossless/fpc.hpp"
#include "numarck/lossless/huffman.hpp"
#include "numarck/lossless/rans.hpp"
#include "numarck/lossless/rle.hpp"
#include "numarck/util/bitpack.hpp"
#include "numarck/util/byte_stream.hpp"
#include "numarck/util/crc32.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/rng.hpp"
#include "numarck/util/thread_pool.hpp"

namespace nl = numarck::lossless;
namespace nk = numarck::core;

// --------------------------------------------------------------- huffman --

TEST(Huffman, EmptyInput) {
  const auto s = nl::huffman_encode({}, 16);
  EXPECT_TRUE(nl::huffman_decode(s).empty());
}

TEST(Huffman, SingleSymbolAlphabetOfOne) {
  std::vector<std::uint32_t> syms(100, 0);
  const auto s = nl::huffman_encode(syms, 1);
  EXPECT_EQ(nl::huffman_decode(s), syms);
}

TEST(Huffman, SingleUsedSymbolInLargeAlphabet) {
  std::vector<std::uint32_t> syms(500, 42);
  const auto s = nl::huffman_encode(syms, 256);
  EXPECT_EQ(nl::huffman_decode(s), syms);
  // 1 bit per symbol + table: way below a byte each.
  EXPECT_LT(s.size(), 300u);
}

TEST(Huffman, UniformSymbolsRoundTrip) {
  numarck::util::Pcg32 rng(3);
  std::vector<std::uint32_t> syms(10000);
  for (auto& s : syms) s = rng.bounded(256);
  const auto enc = nl::huffman_encode(syms, 256);
  EXPECT_EQ(nl::huffman_decode(enc), syms);
}

TEST(Huffman, SkewedSymbolsCompressTowardEntropy) {
  // 95 % zeros: entropy ~0.3 bits/symbol, vs 8 bits raw.
  numarck::util::Pcg32 rng(5);
  std::vector<std::uint32_t> syms(50000);
  for (auto& s : syms) s = rng.uniform() < 0.95 ? 0 : rng.bounded(255) + 0;
  const double h = nl::symbol_entropy_bits(syms, 256);
  const auto enc = nl::huffman_encode(syms, 256);
  const double bits_per_symbol =
      8.0 * static_cast<double>(enc.size()) / static_cast<double>(syms.size());
  EXPECT_LT(bits_per_symbol, h + 1.2);  // within ~1 bit of entropy + table
  EXPECT_LT(bits_per_symbol, 2.0);      // far below the raw 8 bits
  EXPECT_EQ(nl::huffman_decode(enc), syms);
}

TEST(Huffman, TwoSymbols) {
  std::vector<std::uint32_t> syms{0, 1, 0, 0, 1, 1, 0, 1, 1, 1};
  const auto enc = nl::huffman_encode(syms, 2);
  EXPECT_EQ(nl::huffman_decode(enc), syms);
}

TEST(Huffman, LargeAlphabetRoundTrip) {
  numarck::util::Pcg32 rng(7);
  std::vector<std::uint32_t> syms(5000);
  for (auto& s : syms) s = rng.bounded(1024);  // B = 10
  const auto enc = nl::huffman_encode(syms, 1024);
  EXPECT_EQ(nl::huffman_decode(enc), syms);
}

TEST(Huffman, ExtremeSkewStillBounded) {
  // One symbol appears once in a million-ish: depth capping must kick in
  // gracefully (no crash, exact round-trip).
  std::vector<std::uint32_t> syms(100000, 0);
  for (std::uint32_t i = 0; i < 40; ++i) syms[i * 2500] = (i % 63) + 1;
  const auto enc = nl::huffman_encode(syms, 64);
  EXPECT_EQ(nl::huffman_decode(enc), syms);
}

TEST(Huffman, DegenerateSingleSymbolFrameIsZeroBitsPerPoint) {
  // Regression: a lone used symbol once cost 1 bit per point; the frame is
  // now a run-length literal, so 100k points cost only the header + the
  // 5-bit-per-entry length table (160 bytes for alphabet 256).
  std::vector<std::uint32_t> syms(100000, 9);
  const auto enc = nl::huffman_encode(syms, 256);
  EXPECT_LT(enc.size(), 200u);
  EXPECT_EQ(nl::huffman_decode(enc), syms);
}

TEST(Huffman, LegacyDegenerateFramesStillDecode) {
  // Pre-fix encoders wrote 1 bit per symbol into the single-symbol frame;
  // the decoder must keep accepting those bits (and ignore them).
  std::vector<std::uint32_t> syms(64, 5);
  auto enc = nl::huffman_encode(syms, 16);
  // Append the 8 payload bytes a legacy encoder would have written and
  // patch the payload-size varint (alphabet 16 -> table is 10 bytes, so
  // the varint at a fixed offset covers table + 64 one-bit codes = 18).
  const std::size_t payload_varint_at = 4 + 1 + 1;  // magic, alphabet, count
  ASSERT_EQ(enc[payload_varint_at], 10u);
  enc[payload_varint_at] = 18;
  enc.insert(enc.end(), 8, 0x00);
  EXPECT_EQ(nl::huffman_decode(enc), syms);
}

TEST(Huffman, ForgedDegenerateCountRejected) {
  std::vector<std::uint32_t> syms(10, 3);
  auto enc = nl::huffman_encode(syms, 256);
  // Patch the count varint (offset 5: magic u32 + 2-byte alphabet varint
  // would be offset 6 for alphabet 256... locate it by re-encoding).
  // Simpler: decode caps the claim via max_count.
  EXPECT_EQ(nl::huffman_decode(enc, 10).size(), 10u);
  EXPECT_THROW((void)nl::huffman_decode(enc, 9),
               numarck::ContractViolation);
}

TEST(Huffman, SymbolOutOfAlphabetThrows) {
  std::vector<std::uint32_t> syms{5};
  EXPECT_THROW(nl::huffman_encode(syms, 4), numarck::ContractViolation);
}

TEST(Huffman, CorruptStreamThrows) {
  std::vector<std::uint32_t> syms(100, 1);
  auto enc = nl::huffman_encode(syms, 4);
  enc[0] ^= 0xFF;
  EXPECT_THROW(nl::huffman_decode(enc), numarck::ContractViolation);
}

TEST(Huffman, EntropyHelperKnownValues) {
  std::vector<std::uint32_t> uniform{0, 1, 2, 3};
  EXPECT_NEAR(nl::symbol_entropy_bits(uniform, 4), 2.0, 1e-12);
  std::vector<std::uint32_t> constant(10, 0);
  EXPECT_NEAR(nl::symbol_entropy_bits(constant, 4), 0.0, 1e-12);
}

// ------------------------------------------------------------------- rle --

TEST(Rle, EmptyBitmap) {
  const auto enc = nl::rle_encode_bits({}, 0);
  const auto dec = nl::rle_decode_bits(enc, 0);
  EXPECT_TRUE(dec.empty());
}

TEST(Rle, AllOnesCompressesToAFewBytes) {
  numarck::util::BitWriter w;
  for (int i = 0; i < 100000; ++i) w.put_bit(true);
  const auto packed = w.finish();
  const auto enc = nl::rle_encode_bits(packed, 100000);
  EXPECT_LT(enc.size(), 8u);
  EXPECT_EQ(nl::rle_decode_bits(enc, 100000), packed);
}

TEST(Rle, AlternatingBitsExpand) {
  numarck::util::BitWriter w;
  for (int i = 0; i < 800; ++i) w.put_bit(i % 2 == 0);
  const auto packed = w.finish();
  const auto enc = nl::rle_encode_bits(packed, 800);
  EXPECT_GT(enc.size(), packed.size());  // worst case grows — flags handle it
  EXPECT_EQ(nl::rle_decode_bits(enc, 800), packed);
}

TEST(Rle, RandomBitsRoundTrip) {
  numarck::util::Pcg32 rng(9);
  for (std::size_t bits : {1u, 7u, 8u, 9u, 1000u, 4097u}) {
    numarck::util::BitWriter w;
    for (std::size_t i = 0; i < bits; ++i) w.put_bit(rng.uniform() < 0.9);
    const auto packed = w.finish();
    const auto enc = nl::rle_encode_bits(packed, bits);
    EXPECT_EQ(nl::rle_decode_bits(enc, bits), packed) << bits;
  }
}

TEST(Rle, WrongBitCountThrows) {
  numarck::util::BitWriter w;
  for (int i = 0; i < 16; ++i) w.put_bit(true);
  const auto packed = w.finish();
  const auto enc = nl::rle_encode_bits(packed, 16);
  EXPECT_THROW(nl::rle_decode_bits(enc, 32), numarck::ContractViolation);
}

// ------------------------------------------------------------------ rans --

namespace {

/// The head of a rANS stream (FORMAT.md §9) up to its lane frames, read
/// without validation from a stream rans_encode wrote.
struct RansHeader {
  unsigned ways = 0;
  unsigned scale_bits = 0;
  std::vector<std::uint32_t> freq;  ///< per symbol of the alphabet
  std::size_t lanes_at = 0;         ///< byte offset of the first lane frame
};

RansHeader read_rans_header(std::span<const std::uint8_t> stream) {
  numarck::util::ByteReader r(stream);
  RansHeader h;
  (void)r.get_u32();
  h.ways = r.get_u8();
  h.scale_bits = r.get_u8();
  h.freq.assign(r.get_varint(), 0);
  (void)r.get_varint();
  if (r.get_u8() == 0) {
    for (auto& f : h.freq) f = static_cast<std::uint32_t>(r.get_varint());
  } else {
    const std::size_t used = r.get_varint();
    std::uint64_t s = 0;
    for (std::size_t u = 0; u < used; ++u, ++s) {
      s += r.get_varint();
      h.freq[s] = static_cast<std::uint32_t>(r.get_varint());
    }
  }
  h.lanes_at = r.position();
  return h;
}

std::vector<std::uint32_t> skewed_symbols(std::size_t n, std::uint32_t alphabet,
                                          std::uint64_t seed) {
  numarck::util::Pcg32 rng(seed);
  std::vector<std::uint32_t> syms(n);
  for (auto& s : syms) {
    const double u = rng.uniform();
    s = u < 0.80 ? 0 : (u < 0.95 ? 1 + rng.bounded(7) : rng.bounded(alphabet));
  }
  return syms;
}

}  // namespace

TEST(Rans, EmptyInput) {
  for (unsigned ways : {1u, 2u, 4u}) {
    const auto enc = nl::rans_encode({}, 256, ways);
    EXPECT_TRUE(nl::rans_decode(enc, 0).empty()) << ways;
  }
}

TEST(Rans, SingleUsedSymbolCostsZeroBits) {
  // A lone used symbol gets frequency 2^M, so every encode step leaves the
  // lane state untouched: 50k points collapse to header + table + seeds.
  std::vector<std::uint32_t> syms(50000, 17);
  const auto enc = nl::rans_encode(syms, 256, 4);
  EXPECT_LT(enc.size(), 64u);
  EXPECT_EQ(nl::rans_decode(enc, syms.size()), syms);
}

TEST(Rans, RoundTripAtEveryWays) {
  const auto syms = skewed_symbols(12345, 256, 21);
  for (unsigned ways : {1u, 2u, 4u}) {
    const auto enc = nl::rans_encode(syms, 256, ways);
    EXPECT_EQ(nl::rans_decode(enc, syms.size()), syms) << ways;
  }
}

TEST(Rans, SkewedSymbolsBeatHuffman) {
  // The FLASH-like histogram: one dominant symbol plus a thin tail. rANS
  // charges fractional bits for the dominant symbol; Huffman can't go below
  // one bit per point.
  const auto syms = skewed_symbols(100000, 256, 23);
  const auto rans = nl::rans_encode(syms, 256, 4);
  const auto huff = nl::huffman_encode(syms, 256);
  EXPECT_LT(rans.size(), huff.size());
  EXPECT_EQ(nl::rans_decode(rans, syms.size()), syms);
}

TEST(Rans, WideAlphabetUsesSparseTable) {
  // 2^16 alphabet, 12 used symbols: the dense table alone would be ~64 KiB
  // of varints; the sparse (delta, freq) form keeps the frame tiny.
  std::vector<std::uint32_t> syms(4096);
  for (std::size_t i = 0; i < syms.size(); ++i) {
    syms[i] = static_cast<std::uint32_t>((i % 12) * 5003);
  }
  const auto enc = nl::rans_encode(syms, 1u << 16, 2);
  EXPECT_LT(enc.size(), 3000u);
  EXPECT_EQ(nl::rans_decode(enc, syms.size()), syms);
}

TEST(Rans, SymbolOutOfAlphabetThrows) {
  std::vector<std::uint32_t> syms{3, 9};
  EXPECT_THROW((void)nl::rans_encode(syms, 8, 2), numarck::ContractViolation);
}

TEST(Rans, ForgedCountRejectedBeforeAllocation) {
  const auto syms = skewed_symbols(5000, 256, 27);
  const auto enc = nl::rans_encode(syms, 256, 4);
  EXPECT_EQ(nl::rans_decode(enc, syms.size()).size(), syms.size());
  // The same bytes with a tighter caller bound must be rejected up front.
  EXPECT_THROW((void)nl::rans_decode(enc, syms.size() - 1),
               numarck::ContractViolation);
}

TEST(Rans, ForgedFrequencyTableRejected) {
  const auto syms = skewed_symbols(5000, 256, 29);
  auto enc = nl::rans_encode(syms, 256, 4);
  // Header: magic u32, ways u8, scale_bits u8, alphabet varint (0x80 0x02),
  // count varint, table_mode u8, then the frequency table. Corrupt the first
  // table byte: the frequencies no longer sum to 2^M.
  std::size_t table_at = 4 + 1 + 1 + 2;
  while (enc[table_at] & 0x80u) ++table_at;  // skip the count varint
  table_at += 1 + 1;                         // count terminator + table_mode
  enc[table_at] ^= 0x3F;
  EXPECT_THROW((void)nl::rans_decode(enc, syms.size()),
               numarck::ContractViolation);
}

TEST(Rans, TruncatedLaneRejected) {
  const auto syms = skewed_symbols(20000, 256, 31);
  const auto enc = nl::rans_encode(syms, 256, 4);
  // Every proper prefix must throw, never crash or return garbage.
  for (std::size_t cut : {enc.size() - 1, enc.size() - 7, enc.size() / 2,
                          std::size_t{12}, std::size_t{3}}) {
    const std::span<const std::uint8_t> prefix(enc.data(), cut);
    EXPECT_THROW((void)nl::rans_decode(prefix, syms.size()),
                 numarck::ContractViolation)
        << cut;
  }
}

TEST(Rans, DecodeLanesMatchReference) {
  // The interleaved decode loop against the strict round-robin reference,
  // on the tables and lanes of real streams: same symbols, and every lane
  // drained to the same state and cursor. An odd count leaves a partial
  // last round for ways 2 and 4.
  const auto syms = skewed_symbols(30003, 1u << 11, 33);
  for (unsigned ways : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "ways=" << ways);
    const auto enc = nl::rans_encode(syms, 1u << 11, ways);
    EXPECT_EQ(nl::rans_decode(enc, syms.size()), syms);

    const RansHeader h = read_rans_header(enc);
    std::vector<std::uint32_t> cum(h.freq.size() + 1, 0);
    std::vector<std::uint16_t> slot_symbol;
    for (std::uint32_t s = 0; s < h.freq.size(); ++s) {
      cum[s + 1] = cum[s] + h.freq[s];
      slot_symbol.insert(slot_symbol.end(), h.freq[s],
                         static_cast<std::uint16_t>(s));
    }
    const nl::detail::RansDecodeTable table{slot_symbol.data(), h.freq.data(),
                                            cum.data(), h.scale_bits};
    numarck::util::ByteReader r(enc);
    r.skip(h.lanes_at);
    std::array<nl::detail::RansLane, nl::kRansMaxWays> lanes{};
    for (unsigned k = 0; k < h.ways; ++k) {
      const std::size_t size = r.get_varint();
      const std::uint8_t* base = enc.data() + r.position();
      std::memcpy(&lanes[k].state, base, sizeof lanes[k].state);
      lanes[k].cur = base + 4;
      lanes[k].end = base + size;
      r.skip(size);
    }
    auto want_lanes = lanes;
    std::vector<std::uint32_t> want(syms.size());
    numarck::reference::rans_decode(table, want_lanes.data(), ways,
                                    want.data(), want.size());
    std::vector<std::uint32_t> got(syms.size());
    nl::detail::rans_decode_lanes(table, lanes.data(), ways, got.data(),
                                  got.size());
    EXPECT_EQ(got, want);
    EXPECT_EQ(want, syms);
    for (unsigned k = 0; k < ways; ++k) {
      EXPECT_EQ(lanes[k].state, want_lanes[k].state) << "lane " << k;
      EXPECT_EQ(lanes[k].cur, want_lanes[k].cur) << "lane " << k;
    }
  }
}

TEST(Rans, ChooseIndexCoderPolicy) {
  // Large skewed stream: rANS amortizes its table and beats Huffman.
  const auto skewed = skewed_symbols(50000, 256, 35);
  EXPECT_EQ(nl::choose_index_coder(skewed, 8, true, true),
            nl::IndexCoder::kRans);
  // Flat histogram: entropy ~ B bits, no table-backed coder can win.
  numarck::util::Pcg32 rng(37);
  std::vector<std::uint32_t> flat(50000);
  for (auto& s : flat) s = rng.bounded(256);
  EXPECT_EQ(nl::choose_index_coder(flat, 8, true, true), nl::IndexCoder::kRaw);
  // Small skewed stream: below the rANS break-even, Huffman takes it.
  const auto small = skewed_symbols(500, 256, 39);
  EXPECT_EQ(nl::choose_index_coder(small, 8, true, true),
            nl::IndexCoder::kHuffman);
  // Single used symbol: the Huffman frame is a 0-bit run-length literal.
  const std::vector<std::uint32_t> lone(100000, 4);
  EXPECT_EQ(nl::choose_index_coder(lone, 8, true, true),
            nl::IndexCoder::kHuffman);
  // Disabling coders degrades gracefully.
  EXPECT_EQ(nl::choose_index_coder(skewed, 8, true, false),
            nl::IndexCoder::kHuffman);
  EXPECT_EQ(nl::choose_index_coder(skewed, 8, false, false),
            nl::IndexCoder::kRaw);
}

// -------------------------------------------------------------- postpass --

namespace {

nk::EncodedIteration sample_encoded(std::size_t n, double exact_fraction) {
  numarck::util::Pcg32 rng(11);
  std::vector<double> prev(n), curr(n);
  for (std::size_t j = 0; j < n; ++j) {
    prev[j] = rng.uniform(1.0, 3.0);
    const bool outlier = rng.uniform() < exact_fraction;
    const double ratio = outlier ? rng.uniform(-5.0, 5.0) : rng.normal() * 0.0005;
    curr[j] = prev[j] * (1.0 + ratio);
  }
  nk::Options opts;
  opts.error_bound = 0.001;
  opts.index_bits = 8;
  return nk::encode_iteration(prev, curr, opts);
}

}  // namespace

TEST(Postpass, RoundTripWithAllCodersEnabled) {
  const auto enc = sample_encoded(20000, 0.02);
  const auto plain = enc.serialize();
  const auto packed = enc.serialize(nk::Postpass::all());
  const auto back = nk::EncodedIteration::deserialize(packed);
  EXPECT_EQ(back.zeta, enc.zeta);
  EXPECT_EQ(back.indices, enc.indices);
  EXPECT_EQ(back.exact_values, enc.exact_values);
  EXPECT_EQ(back.centers, enc.centers);
  EXPECT_EQ(back.point_count, enc.point_count);
  // This workload is dominated by index 0, so the post-pass must win big.
  EXPECT_LT(packed.size(), plain.size() * 6 / 10);
}

TEST(Postpass, PlainAndPackedDecodeIdentically) {
  numarck::util::Pcg32 rng(13);
  std::vector<double> prev(5000), curr(5000);
  for (std::size_t j = 0; j < prev.size(); ++j) {
    prev[j] = rng.uniform(1.0, 2.0);
    curr[j] = prev[j] * (1.0 + rng.normal() * 0.01);
  }
  nk::Options opts;
  const auto enc = nk::encode_iteration(prev, curr, opts);
  const auto a = nk::EncodedIteration::deserialize(enc.serialize());
  const auto b =
      nk::EncodedIteration::deserialize(enc.serialize(nk::Postpass::all()));
  EXPECT_EQ(nk::decode_iteration(prev, a), nk::decode_iteration(prev, b));
}

TEST(Postpass, CodersOnlyApplyWhenTheyWin) {
  // Near-uniform indices: Huffman gains ~nothing, so the plain stream must
  // be kept (flags say so implicitly: sizes stay close to plain).
  const auto enc = sample_encoded(3000, 0.0);
  const auto plain = enc.serialize();
  const auto packed = enc.serialize(nk::Postpass::all());
  EXPECT_LE(packed.size(), plain.size() + 16);
}

TEST(Postpass, IndividualFlagsWork) {
  const auto enc = sample_encoded(10000, 0.05);
  for (auto pp : {nk::Postpass{true, false, false},
                  nk::Postpass{false, true, false},
                  nk::Postpass{false, false, true}}) {
    const auto bytes = enc.serialize(pp);
    const auto back = nk::EncodedIteration::deserialize(bytes);
    EXPECT_EQ(back.indices, enc.indices);
    EXPECT_EQ(back.zeta, enc.zeta);
    EXPECT_EQ(back.exact_values, enc.exact_values);
  }
}

TEST(Postpass, EmptyIterationSerializes) {
  nk::Options opts;
  const auto enc = nk::encode_iteration({}, {}, opts);
  const auto back =
      nk::EncodedIteration::deserialize(enc.serialize(nk::Postpass::all()));
  EXPECT_EQ(back.point_count, 0u);
}

namespace {

// Serialized layout: magic u32, index_bits u8, strategy u8, predictor u8,
// then the stream-coding flags byte (FORMAT.md §2).
constexpr std::size_t kFlagsOffset = 7;
constexpr std::uint8_t kHuffmanFlag = 0x01;
constexpr std::uint8_t kRansFlag = 0x08;

}  // namespace

TEST(Postpass, AutoPolicyPicksRansOnSkewedIndices) {
  // 20k points, 2% outliers: the index histogram is dominated by the
  // "unchanged" bin, and the stream is long enough to amortize the rANS
  // frequency table — auto selection must emit the rANS frame, and the
  // record must still round-trip exactly.
  const auto enc = sample_encoded(20000, 0.02);
  const auto bytes = enc.serialize(nk::Postpass::all());
  ASSERT_GT(bytes.size(), kFlagsOffset);
  EXPECT_TRUE(bytes[kFlagsOffset] & kRansFlag);
  EXPECT_FALSE(bytes[kFlagsOffset] & kHuffmanFlag);
  const auto back = nk::EncodedIteration::deserialize(bytes);
  EXPECT_EQ(back.indices, enc.indices);
  EXPECT_EQ(back.zeta, enc.zeta);
}

TEST(Postpass, AutoPolicyFallsBackToHuffmanOnShortStreams) {
  // Same skew but far below the rANS break-even length: the policy must
  // fall back to Huffman rather than pay the table overhead.
  const auto enc = sample_encoded(900, 0.02);
  const auto bytes = enc.serialize(nk::Postpass::all());
  ASSERT_GT(bytes.size(), kFlagsOffset);
  EXPECT_TRUE(bytes[kFlagsOffset] & kHuffmanFlag);
  EXPECT_FALSE(bytes[kFlagsOffset] & kRansFlag);
  EXPECT_EQ(nk::EncodedIteration::deserialize(bytes).indices, enc.indices);
}

TEST(Postpass, V1NeverEmitsRansFrames) {
  // Postpass::v1() is the pre-rANS coder set; v1 readers must be able to
  // consume everything it produces.
  const auto enc = sample_encoded(20000, 0.02);
  const auto bytes = enc.serialize(nk::Postpass::v1());
  ASSERT_GT(bytes.size(), kFlagsOffset);
  EXPECT_FALSE(bytes[kFlagsOffset] & kRansFlag);
  EXPECT_EQ(nk::EncodedIteration::deserialize(bytes).indices, enc.indices);
}

TEST(Postpass, ConflictingIndexCoderFlagsRejected) {
  const auto enc = sample_encoded(20000, 0.02);
  auto bytes = enc.serialize(nk::Postpass::all());
  ASSERT_GT(bytes.size(), kFlagsOffset);
  ASSERT_TRUE(bytes[kFlagsOffset] & kRansFlag);
  bytes[kFlagsOffset] |= kHuffmanFlag;  // both index coders claimed at once
  EXPECT_THROW((void)nk::EncodedIteration::deserialize(bytes),
               numarck::ContractViolation);
}

TEST(Postpass, ForgedPointCountBoundedByCaller) {
  const auto enc = sample_encoded(5000, 0.02);
  const auto bytes = enc.serialize(nk::Postpass::all());
  EXPECT_EQ(nk::EncodedIteration::deserialize(bytes, 5000).point_count, 5000u);
  EXPECT_THROW((void)nk::EncodedIteration::deserialize(bytes, 4999),
               numarck::ContractViolation);
}

TEST(Postpass, SerializedBytesIdenticalAcrossThreadCounts) {
  // The postpass runs after the parallel classify/pack stages, so the
  // serialized record — including the rANS frame — must not depend on the
  // worker count.
  numarck::util::Pcg32 rng(41);
  std::vector<double> prev(30000), curr(30000);
  for (std::size_t j = 0; j < prev.size(); ++j) {
    prev[j] = rng.uniform(1.0, 3.0);
    const bool outlier = rng.uniform() < 0.02;
    const double ratio = outlier ? rng.uniform(-5.0, 5.0) : rng.normal() * 5e-4;
    curr[j] = prev[j] * (1.0 + ratio);
  }
  nk::Options opts;
  opts.error_bound = 0.001;
  opts.index_bits = 8;
  numarck::util::ThreadPool serial_pool(1);
  opts.pool = &serial_pool;
  const auto reference =
      nk::encode_iteration(prev, curr, opts).serialize(nk::Postpass::all());
  for (std::size_t threads : {2u, 4u, 8u}) {
    numarck::util::ThreadPool pool(threads);
    opts.pool = &pool;
    const auto bytes =
        nk::encode_iteration(prev, curr, opts).serialize(nk::Postpass::all());
    EXPECT_EQ(bytes, reference) << "threads=" << threads;
  }
}

TEST(Postpass, SerializeUnpackMatchesReference) {
  // serialize() unpacks the index stream with the word-accumulator loop
  // before entropy coding; the reference unpack must see the same symbols,
  // and the postpass round trip must restore the packed bytes.
  const auto enc = sample_encoded(25000, 0.02);
  const std::size_t comp = numarck::reference::count_ones(
      enc.zeta.data(), enc.zeta.size(), 0, enc.point_count);
  std::vector<std::uint32_t> want(comp);
  numarck::reference::unpack(enc.indices.data(), enc.indices.size(), 0,
                             enc.index_bits, want.data(), comp);
  EXPECT_EQ(numarck::util::unpack_indices(enc.indices, enc.index_bits, comp),
            want);
  const auto bytes = enc.serialize(nk::Postpass::all());
  EXPECT_EQ(enc.serialize(nk::Postpass::all()), bytes);
  EXPECT_EQ(nk::EncodedIteration::deserialize(bytes).indices, enc.indices);
}

// ---------------------------------------------------------------- golden --
//
// Byte pins for Postpass::all(). The records are built field by field (no
// encoder, no bin learning), so only the postpass coders can move these
// bytes. The pinned CRC-32 values and sizes were captured from the
// bit-at-a-time coders; any coder rewrite must reproduce them exactly.

namespace {

/// splitmix64, inlined so the fixture cannot move with util::Pcg32.
struct FixtureRng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

/// `n` points: ζ is mostly ones with isolated exact points and one 80-point
/// exact run that crosses 64-bit words; 90% of the 8-bit indices are 0; the
/// exact values are smooth, so FPC beats the raw doubles.
nk::EncodedIteration pinned_record(std::size_t n, std::uint64_t seed) {
  FixtureRng rng{seed};
  nk::EncodedIteration e;
  e.index_bits = 8;
  e.error_bound = 0.001;
  e.point_count = n;
  for (int c = 0; c < 20; ++c) e.centers.push_back(-0.01 + 0.001 * c);
  numarck::util::BitWriter zeta;
  std::vector<std::uint32_t> symbols;
  for (std::size_t j = 0; j < n; ++j) {
    const bool exact = rng.next() % 64 == 0 || (j >= 120 && j < 200);
    zeta.put_bit(!exact);
    if (exact) {
      e.exact_values.push_back(1.0 + 1e-3 * static_cast<double>(j));
    } else {
      const std::uint64_t u = rng.next() % 100;
      symbols.push_back(u < 90 ? 0u : 1u + static_cast<std::uint32_t>(
                                                rng.next() % 19));
    }
  }
  e.zeta = zeta.finish();
  e.indices = numarck::util::pack_indices(symbols, e.index_bits);
  e.stats.total_points = n;
  e.stats.binned = symbols.size();
  e.stats.exact_out_of_bound = e.exact_values.size();
  return e;
}

std::uint32_t crc_of(const std::vector<std::uint8_t>& bytes) {
  return numarck::util::crc32(bytes.data(), bytes.size());
}

}  // namespace

TEST(PostpassGolden, AllCodersPinned) {
  struct Pin {
    std::size_t points;
    std::uint8_t index_flag;  ///< which index coder the record must pick
    std::size_t size;
    std::uint32_t crc;
  };
  // 6000 points: > 2048 compressible symbols, rANS. 600: Huffman.
  const Pin pins[] = {{6000, kRansFlag, 1895, 0x8aa0194cu},
                      {600, kHuffmanFlag, 691, 0x2b7051b2u}};
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.points);
    const auto rec = pinned_record(pin.points, 29);
    const auto bytes = rec.serialize(nk::Postpass::all());
    ASSERT_GT(bytes.size(), kFlagsOffset);
    // Every coder is exercised: the index coder, RLE ζ (0x02), FPC (0x04).
    EXPECT_EQ(bytes[kFlagsOffset], pin.index_flag | 0x02 | 0x04);
    EXPECT_EQ(bytes.size(), pin.size);
    EXPECT_EQ(crc_of(bytes), pin.crc) << std::hex << crc_of(bytes);
    const auto back = nk::EncodedIteration::deserialize(bytes, pin.points);
    EXPECT_EQ(back.zeta, rec.zeta);
    EXPECT_EQ(back.indices, rec.indices);
    EXPECT_EQ(back.exact_values, rec.exact_values);
  }
}

TEST(PostpassGolden, StandaloneCodersPinned) {
  const auto rec = pinned_record(6000, 29);
  const auto symbols = numarck::util::unpack_indices(
      rec.indices, rec.index_bits, rec.compressible_count());
  const struct {
    const char* name;
    std::vector<std::uint8_t> bytes;
    std::size_t size;
    std::uint32_t crc;
  } pins[] = {
      {"rans ways=1", nl::rans_encode(symbols, 256, 1), 687, 0x219558a8u},
      {"rans ways=2", nl::rans_encode(symbols, 256, 2), 691, 0xc76606dau},
      {"huffman", nl::huffman_encode(symbols, 256), 1196, 0x3c67701cu},
      {"rle", nl::rle_encode_bits(rec.zeta, rec.point_count), 196, 0x83643a4du},
      {"fpc log2=4", nl::fpc_compress(rec.exact_values, {4}), 743, 0x616e48b6u},
      {"fpc log2=20", nl::fpc_compress(rec.exact_values, {20}), 801, 0x68464fbeu},
      {"pack width=5", numarck::util::pack_indices(symbols, 5), 3644, 0x3862a017u},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(pin.bytes.size(), pin.size) << pin.name;
    EXPECT_EQ(crc_of(pin.bytes), pin.crc)
        << pin.name << " 0x" << std::hex << crc_of(pin.bytes);
  }
}

// ---------------------------------------------------------- differential --
//
// The coders run word-wise (RLE runs by countr_zero, packing through a
// 64-bit accumulator, rANS pushes through a multiply-by-reciprocal). These
// tests hold them to test-local copies of the bit-at-a-time and dividing
// coders they replaced, on the shapes where a word-wise loop goes wrong:
// counts around byte and word edges, runs crossing words, stray bits past
// the end of the bitmap, and symbols of frequency 1.

namespace {

std::vector<std::uint8_t> reference_rle_encode(
    std::span<const std::uint8_t> packed, std::size_t bit_count) {
  numarck::util::ByteWriter out;
  if (bit_count == 0) {
    out.put_u8(0);
    return out.take();
  }
  numarck::util::BitReader r(packed.data(), packed.size());
  bool current = r.get_bit();
  out.put_u8(current ? 1 : 0);
  std::uint64_t run = 1;
  for (std::size_t i = 1; i < bit_count; ++i) {
    const bool b = r.get_bit();
    if (b == current) {
      ++run;
    } else {
      out.put_varint(run);
      current = b;
      run = 1;
    }
  }
  out.put_varint(run);
  return out.take();
}

/// Decodes a stream the encoder produced (no validation).
std::vector<std::uint8_t> reference_rle_decode(
    std::span<const std::uint8_t> stream, std::size_t bit_count) {
  numarck::util::ByteReader in(stream);
  numarck::util::BitWriter w;
  bool current = in.get_u8() != 0;
  for (std::uint64_t produced = 0; produced < bit_count; current = !current) {
    const std::uint64_t run = in.get_varint();
    for (std::uint64_t i = 0; i < run; ++i) w.put_bit(current);
    produced += run;
  }
  return w.finish();
}

std::vector<std::uint8_t> reference_pack(
    const std::vector<std::uint32_t>& values, unsigned width) {
  numarck::util::BitWriter w;
  for (const std::uint32_t v : values) w.put(v, width);
  return w.finish();
}

/// Re-encodes the lanes of a rANS stream with the dividing encoder, from
/// the frequency table the stream itself carries, and returns the lane
/// frames as they would be written.
std::vector<std::uint8_t> reference_rans_lanes(
    std::span<const std::uint8_t> stream,
    std::span<const std::uint32_t> symbols, std::size_t* lanes_at) {
  const RansHeader h = read_rans_header(stream);
  const unsigned ways = h.ways;
  const unsigned scale_bits = h.scale_bits;
  const std::vector<std::uint32_t>& freq = h.freq;
  const auto alphabet = static_cast<std::uint32_t>(freq.size());
  *lanes_at = h.lanes_at;
  std::vector<std::uint32_t> cum(alphabet + 1, 0);
  for (std::uint32_t s = 0; s < alphabet; ++s) cum[s + 1] = cum[s] + freq[s];
  struct Lane {
    std::uint32_t state = 1u << 16;
    std::vector<std::uint16_t> words;
  };
  std::vector<Lane> lanes(ways);
  for (std::size_t i = symbols.size(); i-- > 0;) {
    Lane& lane = lanes[i % ways];
    const std::uint32_t s = symbols[i];
    const std::uint32_t f = freq[s];
    const std::uint64_t x_max =
        (std::uint64_t{(1u << 16) >> scale_bits} << 16) * f;
    while (lane.state >= x_max) {
      lane.words.push_back(static_cast<std::uint16_t>(lane.state));
      lane.state >>= 16;
    }
    lane.state = ((lane.state / f) << scale_bits) + (lane.state % f) + cum[s];
  }
  numarck::util::ByteWriter out;
  for (const Lane& lane : lanes) {
    out.put_varint(4 + 2 * lane.words.size());
    out.put_u32(lane.state);
    for (std::size_t w = lane.words.size(); w-- > 0;) out.put_u16(lane.words[w]);
  }
  return out.take();
}

/// Bitmaps of `bits` bits in several shapes, each with stray set bits past
/// the end and a spare trailing word, which the encoder must ignore.
std::vector<std::vector<std::uint8_t>> bitmap_shapes(std::size_t bits,
                                                     std::uint64_t seed) {
  numarck::util::Pcg32 rng(seed);
  std::vector<std::vector<bool>> shapes(5, std::vector<bool>(bits));
  bool run_value = true;
  std::size_t run_left = 0;
  for (std::size_t i = 0; i < bits; ++i) {
    shapes[0][i] = true;                       // all ones
    shapes[1][i] = false;                      // all zeros
    shapes[2][i] = i % 2 == 0;                 // alternating
    shapes[3][i] = rng.uniform() >= 0.02;      // isolated exact points
    if (run_left == 0) {                       // runs of 1..200 bits
      run_value = !run_value;
      run_left = 1 + rng.bounded(200);
    }
    shapes[4][i] = run_value;
    --run_left;
  }
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto& shape : shapes) {
    std::vector<std::uint8_t> bytes((bits + 7) / 8 + 8, 0);
    for (std::size_t i = 0; i < bytes.size() * 8; ++i) {
      const bool b = i < bits ? shape[i] : rng.uniform() < 0.5;
      if (b) bytes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    }
    out.push_back(std::move(bytes));
  }
  return out;
}

}  // namespace

TEST(PostpassDifferential, RleMatchesBitAtATimeCoder) {
  for (std::size_t bits : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 127u, 128u,
                           129u, 1000u, 4099u}) {
    for (const auto& bytes : bitmap_shapes(bits, 100 + bits)) {
      SCOPED_TRACE(bits);
      const auto enc = nl::rle_encode_bits(bytes, bits);
      ASSERT_EQ(enc, reference_rle_encode(bytes, bits));
      const auto dec = nl::rle_decode_bits(enc, bits);
      EXPECT_EQ(dec, reference_rle_decode(enc, bits));
      // The decoded bitmap is the input with the bits past the end cleared.
      std::vector<std::uint8_t> clean(bytes.begin(),
                                      bytes.begin() + (bits + 7) / 8);
      if (bits % 8 != 0) {
        clean.back() &= static_cast<std::uint8_t>((1u << (bits % 8)) - 1);
      }
      EXPECT_EQ(dec, clean);
      // Exactly sized buffers take the partial-word load path.
      EXPECT_EQ(nl::rle_encode_bits(clean, bits), enc);
    }
  }
}

TEST(PostpassDifferential, RleDecodesLongRunsAcrossWords) {
  // Runs far longer than a word, starting and ending off byte boundaries.
  numarck::util::ByteWriter w;
  w.put_u8(1);
  const std::uint64_t runs[] = {3, 200, 64, 1, 70000, 5, 129};
  std::uint64_t total = 0;
  for (const auto run : runs) {
    w.put_varint(run);
    total += run;
  }
  const auto stream = w.take();
  const auto dec = nl::rle_decode_bits(stream, total);
  EXPECT_EQ(dec, reference_rle_decode(stream, total));
  EXPECT_EQ(nl::rle_encode_bits(dec, total), stream);
}

TEST(PostpassDifferential, RleRejectsNonCanonicalStreams) {
  // Run 1 as a two-byte varint: the same bitmap as {0x00, 0x01}.
  const std::vector<std::uint8_t> overlong{0x00, 0x81, 0x00};
  EXPECT_THROW((void)nl::rle_decode_bits(overlong, 1),
               numarck::ContractViolation);
  EXPECT_EQ(nl::rle_decode_bits(std::vector<std::uint8_t>{0x00, 0x01}, 1),
            std::vector<std::uint8_t>{0x00});
  // The empty bitmap is the single byte 0.
  EXPECT_THROW((void)nl::rle_decode_bits(std::vector<std::uint8_t>{0x01}, 0),
               numarck::ContractViolation);
}

TEST(PostpassDifferential, PackMatchesBitWriter) {
  numarck::util::Pcg32 rng(77);
  for (unsigned width = 1; width <= 32; ++width) {
    for (std::size_t count : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 31u, 33u, 100u,
                              1001u}) {
      std::vector<std::uint32_t> values(count);
      for (auto& v : values) {
        v = width == 32 ? rng.next() : rng.bounded(1u << width);
      }
      const auto packed = numarck::util::pack_indices(values, width);
      ASSERT_EQ(packed, reference_pack(values, width))
          << "width=" << width << " count=" << count;
      EXPECT_EQ(numarck::util::unpack_indices(packed, width, count), values);
    }
  }
  const std::vector<std::uint32_t> too_wide{1, 2, 16};
  EXPECT_THROW((void)numarck::util::pack_indices(too_wide, 4),
               numarck::ContractViolation);
}

TEST(PostpassDifferential, RansLanesMatchDividingEncoder) {
  std::vector<std::vector<std::uint32_t>> streams;
  streams.push_back(skewed_symbols(20000, 256, 51));
  streams.push_back(skewed_symbols(3000, 1u << 11, 53));
  streams.push_back(std::vector<std::uint32_t>(5000, 9));  // f = 2^M
  // One dominant symbol and a tail of once-seen symbols: frequency 1.
  std::vector<std::uint32_t> rare(40000, 0);
  for (std::uint32_t s = 1; s < 200; ++s) rare[s * 173] = s;
  streams.push_back(rare);
  for (const auto& syms : streams) {
    const std::uint32_t alphabet =
        *std::max_element(syms.begin(), syms.end()) < 256 ? 256 : 1u << 11;
    for (unsigned ways : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message() << "n=" << syms.size() << " ways=" << ways);
      const auto enc = nl::rans_encode(syms, alphabet, ways);
      std::size_t lanes_at = 0;
      const auto lanes = reference_rans_lanes(enc, syms, &lanes_at);
      ASSERT_EQ(std::vector<std::uint8_t>(enc.begin() + lanes_at, enc.end()),
                lanes);
      EXPECT_EQ(nl::rans_decode(enc, syms.size()), syms);
      // The shared-histogram overload writes the same bytes.
      const auto hist = nl::symbol_histogram(syms, alphabet);
      EXPECT_EQ(nl::rans_encode(syms, hist, ways), enc);
    }
  }
}

TEST(PostpassDifferential, SharedHistogramAgreesWithSymbolOverloads) {
  for (std::size_t n : {0u, 1u, 900u, 3000u, 20000u}) {
    const auto syms = skewed_symbols(n, 256, 61 + n);
    const auto hist = nl::symbol_histogram(syms, 256);
    for (bool huffman : {false, true}) {
      for (bool rans : {false, true}) {
        EXPECT_EQ(nl::choose_index_coder(hist, 8, huffman, rans),
                  nl::choose_index_coder(syms, 8, huffman, rans))
            << n << huffman << rans;
      }
    }
  }
  // A histogram that misses a symbol of the stream is rejected rather than
  // encoded (an unused symbol has no slot to push into).
  const std::vector<std::uint32_t> syms{1, 1, 2, 3};
  const std::vector<std::uint64_t> wrong{0, 2, 2, 0};
  EXPECT_THROW((void)nl::rans_encode(syms, wrong, 2),
               numarck::ContractViolation);
}
