// Kernel tests: each per-point production loop against its narrow
// reference in kernel_reference.hpp on adversarial inputs (NaN, inf,
// denormals, zero previous values, unaligned starts), then golden pins of
// whole encoded records, postpass serializations, decodes and an FPC
// stream on the FLASH and CMIP5 fixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "harness_common.hpp"
#include "kernel_reference.hpp"
#include "numarck/core/change_ratio.hpp"
#include "numarck/core/codec.hpp"
#include "numarck/lossless/fpc.hpp"
#include "numarck/util/bitpack.hpp"
#include "numarck/util/crc32.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/rng.hpp"
#include "numarck/util/thread_pool.hpp"

namespace nk = numarck::core;
namespace nr = numarck::reference;
namespace nu = numarck::util;

namespace {

/// Exact-or-both-NaN comparison for lanes whose value is allowed to be NaN
/// (change_ratios on non-finite input). Everything else must be bitwise
/// equal, which EXPECT_EQ on doubles checks via ==; NaN != NaN would fail it.
bool same_double(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

/// Adversarial classify/change-ratio input: every label class, non-finite
/// values, denormals, and an odd length.
void adversarial_snapshots(std::size_t n, std::vector<double>& prev,
                           std::vector<double>& curr) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  numarck::util::Pcg32 rng(0xA12C5);
  prev.resize(n);
  curr.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    switch (j % 13) {
      case 0: prev[j] = 0.0; curr[j] = rng.uniform(-2.0, 2.0); break;
      case 1: prev[j] = 1.0; curr[j] = inf; break;
      case 2: prev[j] = 1.0; curr[j] = nan; break;
      case 3: prev[j] = -inf; curr[j] = 1.0; break;
      case 4: prev[j] = 1e-310; curr[j] = 1e308; break;   // ratio overflows
      case 5: prev[j] = 5e-9; curr[j] = -3e-9; break;     // small-value rule
      case 6: prev[j] = 4.0; curr[j] = 4.0; break;        // zero ratio
      case 7: prev[j] = -0.0; curr[j] = 1.0; break;       // negative zero prev
      case 8: prev[j] = 1e-310; curr[j] = 2e-310; break;  // denormal pair
      default:
        prev[j] = rng.uniform(0.5, 5.0);
        curr[j] = prev[j] * (1.0 + rng.normal() * 0.05);
        break;
    }
  }
}

/// Hand-built record over `labels`: nr::kLabelExact marks an exact point
/// (value taken from `exact` in order), any other label is a `bits`-wide
/// index.
nk::EncodedIteration hand_record(const std::vector<std::uint32_t>& labels,
                                 unsigned bits, std::vector<double> centers,
                                 const std::vector<double>& exact) {
  nk::EncodedIteration e;
  e.index_bits = bits;
  e.point_count = labels.size();
  e.centers = std::move(centers);
  nu::BitWriter zw;
  nu::BitWriter iw;
  std::size_t next_exact = 0;
  for (const std::uint32_t label : labels) {
    zw.put_bit(label != nr::kLabelExact);
    if (label == nr::kLabelExact) {
      e.exact_values.push_back(exact[next_exact++]);
    } else {
      iw.put(label, bits);
    }
  }
  e.zeta = zw.finish();
  e.indices = iw.finish();
  return e;
}

/// Decodes [i0, n) of `enc` with the production and the reference loop and
/// expects bit-identical output, NaN payloads included.
void expect_decode_matches(const std::vector<double>& prev,
                           const nk::EncodedIteration& enc, std::size_t i0) {
  const std::size_t n = prev.size();
  const std::size_t comp_before =
      nr::count_ones(enc.zeta.data(), enc.zeta.size(), 0, i0);
  std::vector<double> want(n, -7.0);
  nr::decode_span(prev.data(), enc, i0, n, comp_before, want.data());
  std::vector<double> got(n, -9.0);
  nk::detail::decode_span(prev.data(), enc, i0, n, comp_before, got.data());
  for (std::size_t j = i0; j < n; ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[j]),
              std::bit_cast<std::uint64_t>(want[j]))
        << "i0=" << i0 << " point " << j << ": " << got[j] << " != "
        << want[j];
  }
}

}  // namespace

// ------------------------------------------------- kernel differentials --

TEST(KernelReference, ClassifyMatchesScalarOnAdversarialInput) {
  std::vector<double> prev, curr;
  adversarial_snapshots(1027, prev, curr);  // odd length: tail paths
  for (double small : {0.0, 1e-7}) {
    std::vector<std::uint32_t> want(prev.size());
    const auto want_stats = nr::classify(prev.data(), curr.data(), want.data(),
                                         prev.size(), 0.01, small);
    std::vector<std::uint32_t> got(prev.size(), 0xABABABABu);
    const auto stats = nk::detail::classify_span(
        prev.data(), curr.data(), got.data(), prev.size(), 0.01, small);
    EXPECT_EQ(got, want) << " small=" << small;
    EXPECT_EQ(stats.small, want_stats.small);
    EXPECT_EQ(stats.below, want_stats.below);
    EXPECT_EQ(stats.undefined, want_stats.undefined);
    EXPECT_EQ(stats.needs_bin, want_stats.needs_bin);
    EXPECT_EQ(stats.err_sum, want_stats.err_sum);
    EXPECT_EQ(stats.err_max, want_stats.err_max);
  }
}

TEST(KernelReference, ChangeRatiosMatchScalarLaneForLane) {
  // Eq. 1 as compute_change_ratios evaluates it: a defined lane carries the
  // plain IEEE divide, and exactly the zero-previous or non-finite lanes are
  // undefined.
  std::vector<double> prev, curr;
  adversarial_snapshots(517, prev, curr);
  nu::ThreadPool pool(1);
  const auto got = nk::compute_change_ratios(prev, curr, &pool);
  std::size_t defined = 0;
  for (std::size_t j = 0; j < prev.size(); ++j) {
    const double want = (curr[j] - prev[j]) / (prev[j] == 0.0 ? 1.0 : prev[j]);
    const bool valid = prev[j] != 0.0 && std::isfinite(want);
    ASSERT_EQ(got.valid[j] != 0, valid) << "lane " << j;
    if (!valid) continue;
    ++defined;
    EXPECT_TRUE(same_double(got.ratio[j], want))
        << "lane " << j << ": " << got.ratio[j] << " != " << want;
  }
  EXPECT_EQ(got.defined_count, defined);
}

TEST(KernelReference, UnpackMatchesScalarAtEveryOffsetAndWidth) {
  nu::Pcg32 rng(0x0111);
  std::vector<std::uint8_t> bytes(257);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next() & 0xffu);
  for (unsigned width : {1u, 3u, 7u, 8u, 11u, 16u, 24u, 31u, 32u}) {
    for (std::size_t offset : {std::size_t{0}, std::size_t{5}}) {
      // Largest count that fits, so the word loop's near-end guard and the
      // per-byte tail both run.
      const std::size_t count = (bytes.size() * 8 - offset) / width;
      std::vector<std::uint32_t> want(count);
      nr::unpack(bytes.data(), bytes.size(), offset, width, want.data(),
                 count);
      std::vector<std::uint32_t> got(count, 0xCCCCCCCCu);
      nu::unpack_indices(bytes.data(), bytes.size(), offset, width,
                         got.data(), count);
      EXPECT_EQ(got, want) << " W=" << width << " off=" << offset;
      // One value too many must throw.
      std::vector<std::uint32_t> over(count + 1);
      EXPECT_THROW(nu::unpack_indices(bytes.data(), bytes.size(), offset,
                                      width, over.data(), count + 1),
                   numarck::ContractViolation);
    }
  }
  std::uint32_t one = 0;
  EXPECT_THROW(nu::unpack_indices(bytes.data(), bytes.size(), 0, 0, &one, 1),
               numarck::ContractViolation);
  EXPECT_THROW(nu::unpack_indices(bytes.data(), bytes.size(), 0, 33, &one, 1),
               numarck::ContractViolation);
  nu::unpack_indices(bytes.data(), bytes.size(), 0, 8, &one, 0);  // no-op
}

TEST(KernelReference, CountOnesMatchesScalarOnUnalignedRanges) {
  nu::Pcg32 rng(0xC0);
  std::vector<std::uint8_t> bytes(129);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next() & 0xffu);
  const std::size_t total = bytes.size() * 8;
  for (std::size_t begin : {std::size_t{0}, std::size_t{3}, std::size_t{64},
                            std::size_t{777}}) {
    for (std::size_t end : {begin, begin + 1, begin + 65, total}) {
      EXPECT_EQ(nu::count_ones(bytes.data(), bytes.size(), begin, end),
                nr::count_ones(bytes.data(), bytes.size(), begin, end))
          << " [" << begin << "," << end << ")";
    }
  }
  EXPECT_THROW((void)nu::count_ones(bytes.data(), bytes.size(), 0, total + 1),
               numarck::ContractViolation);
}

TEST(KernelReference, DecodeSpanMatchesScalarIncludingUnalignedStart) {
  // ζ mixes exact runs, compressible runs and alternating bits, so every
  // byte case (0x00 / 0xFF / mixed) and the unaligned head run.
  const std::size_t n = 203;
  const unsigned bits = 5;
  std::vector<double> centers;
  for (int c = 0; c < 30; ++c) centers.push_back(-0.3 + 0.02 * c);
  nu::Pcg32 rng(0x5EC0DE);
  std::vector<std::uint32_t> labels(n);
  std::vector<double> prev(n), exact;
  for (std::size_t j = 0; j < n; ++j) {
    prev[j] = rng.uniform(0.5, 5.0);
    const bool comp = (j / 16) % 3 != 0 ? true : (j % 2 == 0);
    if (comp) {
      // 0 = below-threshold, 1..30 = center indices.
      labels[j] = static_cast<std::uint32_t>(rng.next() % (centers.size() + 1));
    } else {
      labels[j] = nr::kLabelExact;
      exact.push_back(rng.uniform(-1.0, 1.0));
    }
  }
  const auto enc = hand_record(labels, bits, centers, exact);
  for (std::size_t i0 : {std::size_t{0}, std::size_t{3}, std::size_t{8},
                         std::size_t{190}}) {
    expect_decode_matches(prev, enc, i0);
  }

  // An index beyond the center table must throw.
  auto bad = enc;
  nu::BitWriter iw;
  for (std::size_t j = 0; j < n; ++j) {
    if (labels[j] != nr::kLabelExact) {
      iw.put(static_cast<std::uint32_t>(centers.size() + 1), bits);
    }
  }
  bad.indices = iw.finish();
  std::vector<double> out(n);
  EXPECT_THROW(nk::detail::decode_span(prev.data(), bad, 0, n, 0, out.data()),
               numarck::ContractViolation);
}

TEST(KernelReference, DecodeSpanCarriesPreviousBitForBitInFullIndexBytes) {
  // Three full ζ bytes of indices: all index 0 (a straight copy), index 0
  // mixed with binned indices, and all binned. `previous` holds NaNs with
  // payloads, signed zeros, infinities and a denormal; an index-0 lane must
  // carry it bit for bit, a binned lane must scale it exactly as the
  // reference does.
  const double nan_payload = std::bit_cast<double>(0x7ff80000deadbeefull);
  const double neg_nan = std::bit_cast<double>(0xfff0000000000123ull);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {nan_payload, -0.0,   0.0,   neg_nan,
                                        -inf,        1e-310, -2.5, 3.0};
  std::vector<double> prev;
  for (int rep = 0; rep < 3; ++rep) {
    prev.insert(prev.end(), specials.begin(), specials.end());
  }
  const std::vector<std::uint32_t> labels = {
      0, 0, 0, 0, 0, 0, 0, 0,  // all index 0
      0, 3, 0, 1, 2, 0, 3, 0,  // mixed
      1, 2, 3, 1, 2, 3, 1, 2,  // all binned
  };
  const auto enc = hand_record(labels, 2, {-0.5, 0.0, 0.25}, {});
  for (std::size_t i0 : {std::size_t{0}, std::size_t{8}, std::size_t{5}}) {
    expect_decode_matches(prev, enc, i0);
  }
  std::vector<double> got(prev.size());
  nk::detail::decode_span(prev.data(), enc, 0, prev.size(), 0, got.data());
  for (std::size_t j = 0; j < 8; ++j) {  // the all-index-0 byte
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[j]),
              std::bit_cast<std::uint64_t>(prev[j]))
        << "point " << j;
  }
}

TEST(KernelReference, DecodeSpanRejectsOutOfTableIndexInFullIndexByte) {
  // One full ζ byte whose seventh index is past the 2-entry center table.
  const std::vector<std::uint32_t> labels = {0, 1, 2, 0, 1, 2, 3, 0};
  const auto enc = hand_record(labels, 2, {0.1, 0.2}, {});
  const std::vector<double> prev(labels.size(), 1.5);
  std::vector<double> out(labels.size());
  EXPECT_THROW(nr::decode_span(prev.data(), enc, 0, labels.size(), 0,
                               out.data()),
               numarck::ContractViolation);
  EXPECT_THROW(nk::detail::decode_span(prev.data(), enc, 0, labels.size(), 0,
                                       out.data()),
               numarck::ContractViolation);
}

TEST(KernelReference, InPlaceDecodeMatchesOutOfPlaceAndReference) {
  // Every ζ group kind at widths 1-16: all-zero index windows (carried
  // without a write in place), all-exact bytes, mixed bytes, full bytes of
  // random indices and full bytes with one non-zero index in one lane. The
  // index stream ends in an all-zero window, and `previous` holds NaN
  // payloads, signed zeros and denormals. Each head phase decodes three
  // ways — reference, production out of place, production in place — and
  // all three must agree bit for bit.
  const double specials[] = {
      std::bit_cast<double>(0x7ff80000deadbeefull),
      std::bit_cast<double>(0xfff0000000000123ull),
      -0.0, 0.0, 1e-310, -4.9e-324};
  constexpr std::size_t kGroups = 41;
  nu::ThreadPool pool(4);
  for (unsigned bits = 1; bits <= 16; ++bits) {
    SCOPED_TRACE(testing::Message() << "bits=" << bits);
    const std::uint32_t table =
        std::min<std::uint32_t>((1u << bits) - 1, 40);
    std::vector<double> centers;
    for (std::uint32_t c = 0; c < table; ++c) centers.push_back(-0.3 + 0.013 * c);
    nu::Pcg32 rng(0xD1CE + bits);
    std::vector<std::uint32_t> labels;
    std::vector<double> exact;
    for (std::size_t g = 0; g < kGroups; ++g) {
      const std::size_t kind = g + 1 == kGroups ? 0 : g % 5;
      for (std::size_t k = 0; k < 8; ++k) {
        const std::uint32_t random_index = rng.next() % (table + 1);
        std::uint32_t label = 0;
        switch (kind) {
          case 0: label = 0; break;
          case 1: label = nr::kLabelExact; break;
          case 2: label = (k + g) % 2 ? nr::kLabelExact : random_index; break;
          case 3: label = random_index; break;
          default: label = k == g % 8 ? (g % 2 ? table : 1u) : 0u; break;
        }
        labels.push_back(label);
      }
    }
    for (int k = 0; k < 5; ++k) labels.push_back(nr::kLabelExact);
    for (const std::uint32_t label : labels) {
      if (label == nr::kLabelExact) exact.push_back(rng.uniform(-1.0, 1.0));
    }
    const auto enc = hand_record(labels, bits, centers, exact);
    const std::size_t n = labels.size();
    std::vector<double> prev(n);
    for (std::size_t j = 0; j < n; ++j) {
      prev[j] = j % 7 == 0 ? specials[(j / 7) % 6] : rng.uniform(0.5, 5.0);
    }

    for (std::size_t i0 = 0; i0 < 16; ++i0) {
      SCOPED_TRACE(testing::Message() << "i0=" << i0);
      expect_decode_matches(prev, enc, i0);
      const std::size_t comp_before =
          nr::count_ones(enc.zeta.data(), enc.zeta.size(), 0, i0);
      std::vector<double> want(n);
      nr::decode_span(prev.data(), enc, i0, n, comp_before, want.data());
      std::vector<double> state = prev;
      nk::detail::decode_span(state.data(), enc, i0, n, comp_before,
                              state.data());
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(state[j]),
                  std::bit_cast<std::uint64_t>(j < i0 ? prev[j] : want[j]))
            << "point " << j;
      }
    }

    // The whole-record entry points, in place and out of place.
    const auto out_of_place = nk::decode_iteration(prev, enc, &pool);
    std::vector<double> state = prev;
    nk::decode_iteration_into(state, enc, state, &pool);
    ASSERT_EQ(std::memcmp(state.data(), out_of_place.data(), n * sizeof(double)),
              0);
    std::vector<double> shifted(n + 1);
    EXPECT_THROW(nk::decode_iteration_into(
                     std::span<const double>(shifted.data(), n), enc,
                     std::span<double>(shifted.data() + 1, n), &pool),
                 numarck::ContractViolation);
  }
}

TEST(KernelReference, FpcXorLzcMatchesScalar) {
  const std::size_t n = 101;
  nu::Pcg32 rng(0xF9C);
  auto next64 = [&rng] {
    return (static_cast<std::uint64_t>(rng.next()) << 32) | rng.next();
  };
  std::vector<std::uint64_t> values(n), pf(n), pd(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = next64();
    // Force every leading-zero-byte count 0..8, including the exact-predict
    // (xr == 0) case and the demoted lzb == 4 case.
    const unsigned keep = static_cast<unsigned>(i % 9);
    pf[i] = values[i] ^ (keep == 0 ? 0 : next64() >> (8 * (8 - keep)));
    pd[i] = next64();
  }
  std::vector<std::uint64_t> want_xr(n);
  std::vector<std::uint8_t> want_nib(n);
  nr::fpc_xor_lzc(values.data(), pf.data(), pd.data(), n, want_xr.data(),
                  want_nib.data());
  std::vector<std::uint64_t> xr(n, ~0ull);
  std::vector<std::uint8_t> nib(n, 0xAA);
  numarck::lossless::detail::fpc_xor_lzc(values.data(), pf.data(), pd.data(),
                                         n, xr.data(), nib.data());
  EXPECT_EQ(xr, want_xr);
  EXPECT_EQ(nib, want_nib);
}

// ----------------------------------------------------------- golden pins --
//
// Size + CRC-32 of encoded records, their Postpass::all() serialization and
// their decodes on the FLASH and CMIP5 fixtures, for every strategy at pools
// 1 and 4, plus one FPC stream. The values were captured from the
// runtime-dispatched AVX-512 kernel tables that preceded the portable set;
// any rewrite of a per-point loop must reproduce them exactly.

namespace {

struct Pin {
  const char* name;
  std::size_t size;
  std::uint32_t crc;
};

/// Checks `bytes` against the pin called `name`; on a mismatch (or a missing
/// pin) prints the row that would pin the current bytes.
void expect_pinned(std::span<const Pin> pins, const std::string& name,
                   const void* data, std::size_t size) {
  const std::uint32_t crc = numarck::util::crc32(data, size);
  char row[160];
  std::snprintf(row, sizeof row, "{\"%s\", %zu, 0x%08xu},", name.c_str(),
                size, crc);
  for (const Pin& p : pins) {
    if (name != p.name) continue;
    EXPECT_EQ(size, p.size) << row;
    EXPECT_EQ(crc, p.crc) << row;
    return;
  }
  ADD_FAILURE() << "no pin: " << row;
}

/// Pins every strategy's record, postpass serialization and decode of
/// prev -> curr; pool 1 and pool 4 must both hit the same pins.
void expect_records_pinned(std::span<const Pin> pins,
                           const std::vector<double>& prev,
                           const std::vector<double>& curr,
                           const std::string& tag) {
  for (auto s : {nk::Strategy::kEqualWidth, nk::Strategy::kLogScale,
                 nk::Strategy::kClustering}) {
    for (std::size_t threads : {1u, 4u}) {
      numarck::util::ThreadPool pool(threads);
      nk::Options opts;
      opts.strategy = s;
      opts.pool = &pool;
      const std::string what = tag + "/" + nk::to_string(s);
      SCOPED_TRACE(what + " threads=" + std::to_string(threads));
      const auto enc = nk::encode_iteration(prev, curr, opts);
      const auto record = enc.serialize();
      expect_pinned(pins, what + "/record", record.data(), record.size());
      const auto packed = enc.serialize(nk::Postpass::all());
      expect_pinned(pins, what + "/postpass", packed.data(), packed.size());
      const auto dec = nk::decode_iteration(prev, enc, &pool);
      expect_pinned(pins, what + "/decode", dec.data(),
                    dec.size() * sizeof(double));
    }
  }
}

constexpr Pin kFlashPins[] = {
    {"flash/dens/clustering/decode", 262144, 0x45327e9au},
    {"flash/dens/clustering/postpass", 1210, 0x07d716fau},
    {"flash/dens/clustering/record", 37262, 0x2018d7ebu},
    {"flash/dens/equal-width/decode", 262144, 0xb0750ee2u},
    {"flash/dens/equal-width/postpass", 3035, 0x18f0a464u},
    {"flash/dens/equal-width/record", 39184, 0x8b963256u},
    {"flash/dens/log-scale/decode", 262144, 0x311a99adu},
    {"flash/dens/log-scale/postpass", 3478, 0x41112d51u},
    {"flash/dens/log-scale/record", 39688, 0x79703163u},
    {"flash/pres/clustering/decode", 262144, 0x91079680u},
    {"flash/pres/clustering/postpass", 1401, 0x6073ff7fu},
    {"flash/pres/clustering/record", 37447, 0xb5da31d2u},
    {"flash/pres/equal-width/decode", 262144, 0x5d56afa6u},
    {"flash/pres/equal-width/postpass", 4525, 0x33d12876u},
    {"flash/pres/equal-width/record", 41481, 0x81263e7bu},
    {"flash/pres/log-scale/decode", 262144, 0x8e1ba72bu},
    {"flash/pres/log-scale/postpass", 4180, 0x448097ffu},
    {"flash/pres/log-scale/record", 41033, 0x00de86d2u},
};

constexpr Pin kClimatePins[] = {
    {"cmip5/rlds/clustering/decode", 103680, 0x17a9adc8u},
    {"cmip5/rlds/clustering/postpass", 26427, 0xe3404f83u},
    {"cmip5/rlds/clustering/record", 28301, 0xb52e3a8bu},
    {"cmip5/rlds/equal-width/decode", 103680, 0x82ddb8d2u},
    {"cmip5/rlds/equal-width/postpass", 70624, 0x01456282u},
    {"cmip5/rlds/equal-width/record", 80907, 0x7ee7d61cu},
    {"cmip5/rlds/log-scale/decode", 103680, 0x9ebab2b5u},
    {"cmip5/rlds/log-scale/postpass", 39794, 0x76de327cu},
    {"cmip5/rlds/log-scale/record", 43730, 0xa6a47eeeu},
};

constexpr Pin kFpcPins[] = {
    {"cmip5/mrro/fpc", 11615, 0x65096b8du},
};

}  // namespace

TEST(KernelGolden, FlashRecordsArePinned) {
  const auto series = numarck::bench::flash_series(2, {"dens", "pres"});
  for (const auto& [var, snaps] : series) {
    expect_records_pinned(kFlashPins, snaps[0], snaps[1], "flash/" + var);
  }
}

TEST(KernelGolden, ClimateRecordsArePinned) {
  const auto snaps =
      numarck::bench::climate_series(numarck::sim::climate::Variable::kRlds, 2);
  expect_records_pinned(kClimatePins, snaps[0], snaps[1], "cmip5/rlds");
}

TEST(KernelGolden, FpcStreamIsPinned) {
  const auto snaps = numarck::bench::climate_series(
      numarck::sim::climate::Variable::kMrro, 2, 7);
  const auto stream = numarck::lossless::fpc_compress(snaps[1], {});
  expect_pinned(kFpcPins, "cmip5/mrro/fpc", stream.data(), stream.size());
  const auto back = numarck::lossless::fpc_decompress(stream);
  ASSERT_EQ(back.size(), snaps[1].size());
  EXPECT_EQ(std::memcmp(back.data(), snaps[1].data(),
                        back.size() * sizeof(double)),
            0);
}
