#include "numarck/lossless/rans.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "numarck/util/byte_stream.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::lossless {

namespace {

constexpr std::uint32_t kMagic = 0x31534E52u;  // "RNS1"

/// State floor / renormalization base. States live in [kLow, kLow * 2^16);
/// encode emits one 16-bit word whenever the next symbol would push the
/// state past the ceiling, decode refills one word whenever a step drops
/// below the floor. The value is part of the wire format (FORMAT.md §9),
/// not a tuning knob.
constexpr std::uint32_t kLow = 1u << 16;

/// scale_bits (the quantized-histogram precision M) the format accepts.
constexpr unsigned kMinScaleBits = 8;
constexpr unsigned kMaxScaleBits = 16;

constexpr std::uint32_t kMaxAlphabet = 1u << 16;

/// Frequency-table encodings (header `table_mode` byte).
constexpr std::uint8_t kTableDense = 0;   ///< alphabet varints, 0 = unused
constexpr std::uint8_t kTableSparse = 1;  ///< used count + (Δsymbol, freq)

/// Quantizes `hist` (over `n` samples) to integer frequencies that sum to
/// exactly 1 << scale_bits, with every used symbol >= 1. Deterministic:
/// proportional floor, then drift repaid from the largest buckets in
/// (count, symbol) order — no float rounding, no tie-break ambiguity, so
/// encodes are byte-identical across threads and ISAs.
std::vector<std::uint32_t> quantize_freqs(std::span<const std::uint64_t> hist,
                                          std::uint64_t n,
                                          unsigned scale_bits) {
  const std::uint32_t total = 1u << scale_bits;
  std::vector<std::uint32_t> q(hist.size(), 0);
  std::vector<std::uint32_t> used;
  std::uint64_t sum = 0;
  for (std::uint32_t s = 0; s < hist.size(); ++s) {
    if (hist[s] == 0) continue;
    std::uint64_t v = hist[s] * total / n;
    if (v == 0) v = 1;
    q[s] = static_cast<std::uint32_t>(v);
    sum += v;
    used.push_back(s);
  }
  if (sum == total) return q;
  std::stable_sort(used.begin(), used.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return q[a] > q[b]; });
  if (sum < total) {
    q[used.front()] += static_cast<std::uint32_t>(total - sum);
    return q;
  }
  std::uint64_t need = sum - total;
  for (std::uint32_t s : used) {
    if (need == 0) break;
    const auto take =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(need, q[s] - 1));
    q[s] -= take;
    need -= take;
  }
  // Always repayable: the floors alone sum to <= total, so the overshoot is
  // at most one per clamped symbol, and used <= total by the scale choice.
  NUMARCK_EXPECT(need == 0, "rans: frequency quantization failed");
  return q;
}

/// Picks the histogram precision M for `used` distinct symbols: enough
/// headroom that quantization error is negligible (~4 bits over the symbol
/// count), clamped to the format's [8, 16] window. Always >= ceil(log2
/// used) so every used symbol can hold a nonzero slot.
unsigned pick_scale_bits(std::size_t used) {
  const unsigned want = static_cast<unsigned>(std::bit_width(used)) + 4;
  return std::clamp(want, 10u, kMaxScaleBits);
}

}  // namespace

std::vector<std::uint64_t> symbol_histogram(
    std::span<const std::uint32_t> symbols, std::uint32_t alphabet_size) {
  std::vector<std::uint64_t> hist(alphabet_size, 0);
  for (auto s : symbols) {
    NUMARCK_EXPECT(s < alphabet_size, "symbol out of alphabet");
    ++hist[s];
  }
  return hist;
}

std::vector<std::uint8_t> rans_encode(std::span<const std::uint32_t> symbols,
                                      std::uint32_t alphabet_size,
                                      unsigned ways) {
  NUMARCK_EXPECT(alphabet_size >= 1 && alphabet_size <= kMaxAlphabet,
                 "rans: alphabet size out of range");
  return rans_encode(symbols, symbol_histogram(symbols, alphabet_size), ways);
}

std::vector<std::uint8_t> rans_encode(std::span<const std::uint32_t> symbols,
                                      std::span<const std::uint64_t> hist,
                                      unsigned ways) {
  NUMARCK_EXPECT(hist.size() >= 1 && hist.size() <= kMaxAlphabet,
                 "rans: alphabet size out of range");
  const auto alphabet_size = static_cast<std::uint32_t>(hist.size());
  NUMARCK_EXPECT(ways == 1 || ways == 2 || ways == 4,
                 "rans: ways must be 1, 2 or 4");
  // Keeps hist * 2^16 inside 64 bits during quantization; no real index
  // stream is within 10 orders of magnitude of this.
  NUMARCK_EXPECT(symbols.size() <= (1ull << 47), "rans: stream too long");
  std::uint64_t hist_total = 0;
  std::size_t used = 0;
  for (auto h : hist) {
    hist_total += h;
    used += h != 0;
  }
  NUMARCK_EXPECT(hist_total == symbols.size(),
                 "rans: histogram does not match the symbol stream");

  util::ByteWriter out;
  out.put_u32(kMagic);
  out.put_u8(static_cast<std::uint8_t>(ways));
  if (symbols.empty()) {
    out.put_u8(kMinScaleBits);
    out.put_varint(alphabet_size);
    out.put_varint(0);
    return out.take();
  }

  const unsigned scale_bits = pick_scale_bits(used);
  const auto freq = quantize_freqs(hist, symbols.size(), scale_bits);

  out.put_u8(static_cast<std::uint8_t>(scale_bits));
  out.put_varint(alphabet_size);
  out.put_varint(symbols.size());

  // Frequency table: dense for compact alphabets, (Δsymbol, freq) pairs when
  // most of the alphabet is unused (a 2^16 alphabet with a dozen live bins
  // must not pay 64 KiB of zero varints).
  if (used * 4 <= alphabet_size) {
    out.put_u8(kTableSparse);
    out.put_varint(used);
    std::uint32_t prev = 0;
    for (std::uint32_t s = 0; s < alphabet_size; ++s) {
      if (freq[s] == 0) continue;
      out.put_varint(s - prev);
      out.put_varint(freq[s]);
      prev = s + 1;
    }
  } else {
    out.put_u8(kTableDense);
    for (std::uint32_t s = 0; s < alphabet_size; ++s) out.put_varint(freq[s]);
  }

  // Per-symbol encode constants. The push needs state / f and state % f;
  // a 32-bit state divides exactly by a multiply with ceil(2^64 / f)
  // (Lemire, Kaser & Kurz 2019, Theorem 1: exact for 32-bit numerators and
  // divisors when the reciprocal has 64 fractional bits). f == 1 has no
  // 64-bit reciprocal: it stores 2^64 - 1, whose product is one short of
  // the state, and a +1 bump restores the quotient.
  struct EncSymbol {
    std::uint64_t rcp = 0;
    std::uint64_t x_max = 0;  ///< renormalize while state >= x_max
    std::uint32_t bump = 0;
    std::uint32_t freq = 0;
    std::uint32_t cum = 0;
  };
  std::vector<EncSymbol> enc(alphabet_size);
  std::uint32_t start = 0;
  for (std::uint32_t s = 0; s < alphabet_size; ++s) {
    const std::uint32_t f = freq[s];
    EncSymbol& e = enc[s];
    e.freq = f;
    e.cum = start;
    start += f;
    if (f == 0) continue;
    e.rcp = f == 1 ? ~std::uint64_t{0} : ~std::uint64_t{0} / f + 1;
    e.bump = f == 1 ? 1 : 0;
    // Renormalizing before the push keeps the post-push state inside
    // [kLow, kLow * 2^16). 64-bit: f == 2^scale_bits (lone used symbol)
    // makes this 2^32, which must not wrap to 0.
    e.x_max = (std::uint64_t{kLow >> scale_bits} << 16) * f;
  }

  // Per-lane reverse encode. Lane k owns symbols k, k + ways, ...; walking
  // the stream backwards visits each lane's symbols in reverse, which is
  // what lets the decoder read every lane strictly forward.
  struct LaneEnc {
    std::uint32_t state = kLow;
    std::vector<std::uint16_t> words;
  };
  std::vector<LaneEnc> lanes(ways);
  for (std::size_t i = symbols.size(); i-- > 0;) {
    LaneEnc& lane = lanes[i & (ways - 1)];
    const std::uint32_t s = symbols[i];
    // A symbol the histogram never counted has no slot (and x_max == 0
    // would never stop renormalizing).
    NUMARCK_EXPECT(s < alphabet_size && enc[s].freq != 0,
                   "rans: symbol missing from the histogram");
    const EncSymbol& e = enc[s];
    std::uint32_t x = lane.state;
    while (x >= e.x_max) {
      lane.words.push_back(static_cast<std::uint16_t>(x));
      x >>= 16;
    }
    // floor(x * rcp / 2^64) from two 32x32 products (x < 2^32).
    const std::uint64_t q =
        (((e.rcp >> 32) * x + (((e.rcp & 0xffffffffu) * x) >> 32)) >> 32) +
        e.bump;
    lane.state = static_cast<std::uint32_t>((q << scale_bits) +
                                            (x - q * e.freq) + e.cum);
  }

  // Lane frames: final encoder state first (it seeds the decoder), then the
  // renormalization words in reverse emission order (the decoder consumes
  // them forward).
  for (const LaneEnc& lane : lanes) {
    out.put_varint(4 + 2 * lane.words.size());
    out.put_u32(lane.state);
    for (std::size_t w = lane.words.size(); w-- > 0;) out.put_u16(lane.words[w]);
  }
  return out.take();
}

std::vector<std::uint32_t> rans_decode(std::span<const std::uint8_t> stream,
                                       std::size_t max_count) {
  util::ByteReader in(stream);
  NUMARCK_EXPECT(in.get_u32() == kMagic, "rans: bad magic");
  const unsigned ways = in.get_u8();
  NUMARCK_EXPECT(ways == 1 || ways == 2 || ways == 4,
                 "rans: ways must be 1, 2 or 4");
  const unsigned scale_bits = in.get_u8();
  NUMARCK_EXPECT(scale_bits >= kMinScaleBits && scale_bits <= kMaxScaleBits,
                 "rans: scale_bits out of range");
  const auto alphabet = static_cast<std::uint32_t>(in.get_varint());
  NUMARCK_EXPECT(alphabet >= 1 && alphabet <= kMaxAlphabet,
                 "rans: bad alphabet");
  const std::size_t count = in.get_varint();
  // The caller knows how many symbols a legitimate stream holds; a forged
  // count is rejected here, before anything is sized from it.
  NUMARCK_EXPECT(count <= max_count, "rans: forged symbol count");
  if (count == 0) {
    NUMARCK_EXPECT(in.at_end(), "rans: trailing bytes");
    return {};
  }

  // Frequency table. Every entry is bounded and the total must hit
  // 2^scale_bits exactly — an off-by-one table would make slot_symbol
  // lookup read garbage, so this is a hard reject, not a renormalize.
  const std::uint32_t total = 1u << scale_bits;
  const std::uint8_t table_mode = in.get_u8();
  std::vector<std::uint32_t> freq(alphabet, 0);
  std::uint64_t sum = 0;
  std::uint32_t max_freq = 0;
  if (table_mode == kTableDense) {
    for (std::uint32_t s = 0; s < alphabet; ++s) {
      const std::uint64_t f = in.get_varint();
      NUMARCK_EXPECT(f <= total, "rans: frequency out of range");
      freq[s] = static_cast<std::uint32_t>(f);
      sum += f;
      max_freq = std::max(max_freq, freq[s]);
    }
  } else {
    NUMARCK_EXPECT(table_mode == kTableSparse, "rans: bad table mode");
    const std::size_t used = in.get_varint();
    NUMARCK_EXPECT(used >= 1 && used <= alphabet,
                   "rans: bad used-symbol count");
    std::uint64_t s = 0;
    for (std::size_t u = 0; u < used; ++u) {
      s += in.get_varint();
      NUMARCK_EXPECT(s < alphabet, "rans: sparse symbol out of alphabet");
      const std::uint64_t f = in.get_varint();
      NUMARCK_EXPECT(f >= 1 && f <= total, "rans: frequency out of range");
      freq[static_cast<std::uint32_t>(s)] = static_cast<std::uint32_t>(f);
      sum += f;
      max_freq = std::max(max_freq, static_cast<std::uint32_t>(f));
      ++s;
    }
  }
  NUMARCK_EXPECT(sum == total, "rans: frequency table does not sum to 2^M");

  // Lane frames: sizes first, payload bounds-checked before any decode
  // allocation. A lane is its 4-byte seed state plus whole 16-bit words.
  std::array<detail::RansLane, kRansMaxWays> lanes{};
  std::uint64_t payload_bits = 0;
  for (unsigned k = 0; k < ways; ++k) {
    const std::size_t size = in.get_varint();
    NUMARCK_EXPECT(size >= 4 && (size - 4) % 2 == 0,
                   "rans: bad lane frame size");
    NUMARCK_EXPECT(size <= in.remaining(), "rans: truncated lane frame");
    const std::uint8_t* base = stream.data() + in.position();
    std::uint32_t state;
    std::memcpy(&state, base, sizeof state);
    NUMARCK_EXPECT(state >= kLow, "rans: lane state below floor");
    lanes[k].state = state;
    lanes[k].cur = base + 4;
    lanes[k].end = base + size;
    payload_bits += (size - 4) * 8;
    in.skip(size);
  }
  NUMARCK_EXPECT(in.at_end(), "rans: trailing bytes");

  // Entropy floor: a symbol of frequency f < 2^w costs more than
  // scale_bits - w bits, so when the commonest symbol is below 2^(M-1) the
  // claimed count is bounded by the information the lanes actually carry
  // (renormalization words plus what each seed state can hold beyond the
  // 16-bit floor it must return to). Catches forged counts that slip under
  // max_count.
  const auto max_width = static_cast<unsigned>(std::bit_width(max_freq));
  const unsigned min_cost = scale_bits > max_width ? scale_bits - max_width : 0;
  if (min_cost > 0) {
    NUMARCK_EXPECT(count * static_cast<std::uint64_t>(min_cost) <=
                       payload_bits + 16ull * ways,
                   "rans: count exceeds payload entropy floor");
  }

  // Decode tables (bounded by 2^M, independent of the claimed count).
  std::vector<std::uint32_t> cum(alphabet + 1, 0);
  for (std::uint32_t s = 0; s < alphabet; ++s) cum[s + 1] = cum[s] + freq[s];
  std::vector<std::uint16_t> slot_symbol(total);
  for (std::uint32_t s = 0; s < alphabet; ++s) {
    std::fill(slot_symbol.begin() + cum[s], slot_symbol.begin() + cum[s + 1],
              static_cast<std::uint16_t>(s));
  }

  detail::RansDecodeTable table;
  table.slot_symbol = slot_symbol.data();
  table.freq = freq.data();
  table.cum = cum.data();
  table.scale_bits = scale_bits;

  std::vector<std::uint32_t> out(count);
  detail::rans_decode_lanes(table, lanes.data(), ways, out.data(), count);

  // Post-decode integrity: every lane must land exactly on the encoder's
  // initial state with its word stream fully consumed. This pins the whole
  // frame — a stream that decodes "successfully" to the wrong symbols
  // cannot end in this configuration.
  for (unsigned k = 0; k < ways; ++k) {
    NUMARCK_EXPECT(lanes[k].state == kLow && lanes[k].cur == lanes[k].end,
                   "rans: lane did not drain to the initial state");
  }
  return out;
}

namespace {

/// One decode step against `t`, refilling `lane` from its word stream when
/// the state drops below kLow: the division-free 32/16 rANS transform.
inline std::uint32_t rans_step(const detail::RansDecodeTable& t,
                               detail::RansLane& lane) {
  const std::uint32_t mask = (1u << t.scale_bits) - 1u;
  const std::uint32_t slot = lane.state & mask;
  const std::uint32_t s = t.slot_symbol[slot];
  lane.state = t.freq[s] * (lane.state >> t.scale_bits) + slot - t.cum[s];
  if (lane.state < kLow) {
    NUMARCK_EXPECT(lane.end - lane.cur >= 2,
                   "rans: lane stream exhausted mid-renormalization");
    const std::uint32_t w = static_cast<std::uint32_t>(lane.cur[0]) |
                            (static_cast<std::uint32_t>(lane.cur[1]) << 8);
    lane.cur += 2;
    lane.state = (lane.state << 16) | w;
  }
  return s;
}

/// kWays lanes held in locals across an unrolled round, so the per-lane
/// dependency chains retire in parallel. The lanes are written back on every
/// exit, the throwing one included, so the in-place contract holds.
template <unsigned kWays>
void decode_unrolled(const detail::RansDecodeTable& t,
                     detail::RansLane* lanes, std::uint32_t* out,
                     std::size_t count) {
  std::array<detail::RansLane, kWays> local;
  std::copy_n(lanes, kWays, local.begin());
  struct WriteBack {
    detail::RansLane* to;
    const std::array<detail::RansLane, kWays>& from;
    ~WriteBack() { std::copy(from.begin(), from.end(), to); }
  } write_back{lanes, local};
  std::size_t i = 0;
  for (; i + kWays <= count; i += kWays) {
    for (unsigned k = 0; k < kWays; ++k) out[i + k] = rans_step(t, local[k]);
  }
  for (unsigned k = 0; i < count; ++i, ++k) out[i] = rans_step(t, local[k]);
}

}  // namespace

namespace detail {

void rans_decode_lanes(const RansDecodeTable& table, RansLane* lanes,
                       unsigned ways, std::uint32_t* out, std::size_t count) {
  NUMARCK_EXPECT(ways == 1 || ways == 2 || ways == 4,
                 "rans: ways must be 1, 2 or 4");
  if (ways == 4) return decode_unrolled<4>(table, lanes, out, count);
  if (ways == 2) return decode_unrolled<2>(table, lanes, out, count);
  decode_unrolled<1>(table, lanes, out, count);
}

}  // namespace detail

const char* to_string(IndexCoder c) noexcept {
  switch (c) {
    case IndexCoder::kRaw:
      return "raw";
    case IndexCoder::kHuffman:
      return "huffman";
    case IndexCoder::kRans:
      return "rans";
  }
  return "?";
}

IndexCoder choose_index_coder(std::span<const std::uint32_t> symbols,
                              unsigned index_bits, bool allow_huffman,
                              bool allow_rans) {
  if (symbols.empty() || (!allow_huffman && !allow_rans)) {
    return IndexCoder::kRaw;
  }
  return choose_index_coder(symbol_histogram(symbols, 1u << index_bits),
                            index_bits, allow_huffman, allow_rans);
}

IndexCoder choose_index_coder(std::span<const std::uint64_t> hist,
                              unsigned index_bits, bool allow_huffman,
                              bool allow_rans) {
  NUMARCK_EXPECT(hist.size() == (std::size_t{1} << index_bits),
                 "histogram does not span the index alphabet");
  std::uint64_t count = 0;
  for (auto h : hist) count += h;
  if (count == 0 || (!allow_huffman && !allow_rans)) return IndexCoder::kRaw;
  std::size_t used = 0;
  double entropy = 0.0;
  const auto n = static_cast<double>(count);
  for (auto h : hist) {
    if (h == 0) continue;
    ++used;
    const double p = static_cast<double>(h) / n;
    entropy -= p * std::log2(p);
  }
  // A lone used symbol is Huffman's degenerate 0-bit frame — nothing beats
  // a run-length literal.
  if (used <= 1) return allow_huffman ? IndexCoder::kHuffman : IndexCoder::kRans;
  // Near-flat histogram: no table-backed coder recovers enough of the
  // B bits/point to pay for its own table.
  if (entropy > static_cast<double>(index_bits) - 0.2) return IndexCoder::kRaw;
  // Short streams cannot amortize the rANS frequency table + 4 lane seeds;
  // Huffman's 5-bit-length table is far cheaper to ship.
  constexpr std::size_t kMinRansStream = 2048;
  if (!allow_rans || count < kMinRansStream) {
    return allow_huffman ? IndexCoder::kHuffman : IndexCoder::kRans;
  }
  return IndexCoder::kRans;
}

}  // namespace numarck::lossless
