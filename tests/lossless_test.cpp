// FPC lossless compressor tests: the one invariant that matters is bit-exact
// round-tripping on *every* input, including the pathological ones.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "numarck/lossless/fpc.hpp"
#include "numarck/util/byte_stream.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/rng.hpp"

namespace nl = numarck::lossless;

namespace {

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

TEST(Fpc, EmptyInput) {
  const auto s = nl::fpc_compress({});
  const auto d = nl::fpc_decompress(s);
  EXPECT_TRUE(d.empty());
}

TEST(Fpc, SingleValue) {
  std::vector<double> v{3.14159265358979};
  EXPECT_TRUE(bit_identical(nl::fpc_decompress(nl::fpc_compress(v)), v));
}

TEST(Fpc, SmoothDataCompressesWell) {
  std::vector<double> v(100000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(static_cast<double>(i) * 1e-4);
  }
  const auto s = nl::fpc_compress(v);
  EXPECT_TRUE(bit_identical(nl::fpc_decompress(s), v));
  // Predictable data must beat raw storage comfortably.
  EXPECT_LT(s.size(), v.size() * sizeof(double) * 8 / 10);
}

TEST(Fpc, ConstantDataCompressesExtremely) {
  std::vector<double> v(50000, 42.0);
  const auto s = nl::fpc_compress(v);
  EXPECT_TRUE(bit_identical(nl::fpc_decompress(s), v));
  EXPECT_LT(s.size(), v.size());  // way below 1 byte per double
}

TEST(Fpc, RandomDataStillRoundTrips) {
  numarck::util::Pcg32 rng(5);
  std::vector<double> v(20000);
  for (auto& x : v) x = rng.normal() * std::pow(10.0, rng.uniform(-300, 300));
  const auto s = nl::fpc_compress(v);
  EXPECT_TRUE(bit_identical(nl::fpc_decompress(s), v));
  // Incompressible data may expand slightly (½ byte header per value).
  EXPECT_LT(s.size(), v.size() * sizeof(double) * 11 / 10);
}

TEST(Fpc, SpecialValuesRoundTrip) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v{0.0,
                        -0.0,
                        inf,
                        -inf,
                        std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::denorm_min(),
                        -std::numeric_limits<double>::denorm_min(),
                        std::numeric_limits<double>::max(),
                        std::numeric_limits<double>::lowest(),
                        std::numeric_limits<double>::epsilon()};
  EXPECT_TRUE(bit_identical(nl::fpc_decompress(nl::fpc_compress(v)), v));
}

TEST(Fpc, PreservesNegativeZeroSign) {
  std::vector<double> v{-0.0};
  const auto d = nl::fpc_decompress(nl::fpc_compress(v));
  EXPECT_TRUE(std::signbit(d[0]));
}

class FpcTableSizeTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FpcTableSizeTest, RoundTripsAtEveryTableSize) {
  nl::FpcOptions opts;
  opts.table_log2 = GetParam();
  numarck::util::Pcg32 rng(GetParam());
  std::vector<double> v(5000);
  double walk = 100.0;
  for (auto& x : v) {
    walk += rng.normal() * 0.01;
    x = walk;
  }
  const auto s = nl::fpc_compress(v, opts);
  EXPECT_TRUE(bit_identical(nl::fpc_decompress(s), v));
}

INSTANTIATE_TEST_SUITE_P(TableSizes, FpcTableSizeTest,
                         ::testing::Values(4u, 8u, 12u, 16u, 20u));

TEST(Fpc, InvalidTableSizeThrows) {
  nl::FpcOptions opts;
  opts.table_log2 = 30;
  EXPECT_THROW(nl::fpc_compress(std::vector<double>{1.0}, opts),
               numarck::ContractViolation);
}

TEST(Fpc, BadMagicThrows) {
  auto s = nl::fpc_compress(std::vector<double>{1.0, 2.0});
  s[0] ^= 0xFF;
  EXPECT_THROW(nl::fpc_decompress(s), numarck::ContractViolation);
}

TEST(Fpc, TruncatedStreamThrows) {
  auto s = nl::fpc_compress(std::vector<double>(100, 1.5));
  s.resize(s.size() / 2);
  EXPECT_THROW(nl::fpc_decompress(s), numarck::ContractViolation);
}

TEST(Fpc, CheckpointLikeDataFromPaperWorkload) {
  // Density-like field: smooth spatial structure, the FLASH D0 use case.
  std::vector<double> v(65536);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double x = static_cast<double>(i % 256) / 256.0;
    const double y = static_cast<double>(i / 256) / 256.0;
    v[i] = 1.0 + 0.5 * std::sin(6.28 * x) * std::cos(6.28 * y);
  }
  const auto s = nl::fpc_compress(v);
  EXPECT_TRUE(bit_identical(nl::fpc_decompress(s), v));
  EXPECT_LT(s.size(), v.size() * sizeof(double));
}

// ------------------------------------------------- per-thread FPC tables --
//
// Compress and decompress borrow one predictor-table pair per thread (for
// table_log2 <= 16) and hand it back zeroed. Every call must code exactly as
// it would on a thread that never ran FPC before, whatever ran earlier on
// this one: another table size, a longer or shorter stream, or a decode
// that threw halfway.

namespace {

std::vector<double> walk_values(std::size_t n, std::uint64_t seed) {
  numarck::util::Pcg32 rng(seed);
  std::vector<double> v(n);
  double walk = 10.0;
  for (auto& x : v) {
    walk += rng.normal() * 0.01;
    x = rng.uniform() < 0.05 ? rng.uniform(-1e6, 1e6) : walk;
  }
  return v;
}

/// Runs `fn` on a new thread, whose FPC tables have never been used.
template <typename Fn>
auto on_fresh_thread(Fn fn) {
  decltype(fn()) result;
  std::thread t([&] { result = fn(); });
  t.join();
  return result;
}

/// The same stream with its residual bytes cut in half: decoding gets
/// through part of the values, then throws "fpc: residual overrun".
std::vector<std::uint8_t> truncate_residual(
    const std::vector<std::uint8_t>& stream) {
  numarck::util::ByteReader r(stream);
  numarck::util::ByteWriter w;
  w.put_u32(r.get_u32());        // magic
  w.put_u8(r.get_u8());          // table log2
  w.put_varint(r.get_varint());  // count
  w.put_vector(r.get_vector<std::uint8_t>());
  auto residual = r.get_vector<std::uint8_t>();
  residual.resize(residual.size() / 2);
  w.put_vector(residual);
  return w.take();
}

struct FpcCase {
  unsigned table_log2;
  std::vector<double> values;
  std::vector<std::uint8_t> fresh;  ///< compress output on a fresh thread
};

/// Short, medium and long streams at table sizes 4, 16 and 20, so both
/// table-reset modes and the per-call allocation above the pooled size run.
std::vector<FpcCase> fpc_cases() {
  std::vector<FpcCase> cases;
  std::uint64_t seed = 1;
  for (unsigned log2 : {16u, 4u, 20u}) {
    for (std::size_t n : {40u, 3000u, 20000u}) {
      FpcCase c{log2, walk_values(n, seed++), {}};
      c.fresh = on_fresh_thread(
          [&] { return nl::fpc_compress(c.values, {c.table_log2}); });
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

}  // namespace

TEST(FpcThreadTables, InterleavedTableSizesCodeAsOnAFreshThread) {
  const auto cases = fpc_cases();
  // Visit the cases in two different interleavings.
  for (std::size_t stride : {1u, 4u}) {
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const FpcCase& c = cases[(k * stride) % cases.size()];
      SCOPED_TRACE(testing::Message() << "log2=" << c.table_log2
                                      << " n=" << c.values.size());
      EXPECT_EQ(nl::fpc_compress(c.values, {c.table_log2}), c.fresh);
      EXPECT_TRUE(bit_identical(nl::fpc_decompress(c.fresh), c.values));
    }
  }
}

TEST(FpcThreadTables, ThrowingDecodeLeavesTheTablesClean) {
  // Only pooled table sizes: a 2^20 table is allocated per call.
  auto cases = fpc_cases();
  std::erase_if(cases, [](const FpcCase& c) { return c.table_log2 > 16; });
  for (const FpcCase& bad : cases) {
    const auto forged = truncate_residual(bad.fresh);
    for (const FpcCase& good : cases) {
      SCOPED_TRACE(testing::Message()
                   << "bad log2=" << bad.table_log2 << " n=" << bad.values.size()
                   << ", good log2=" << good.table_log2
                   << " n=" << good.values.size());
      EXPECT_THROW((void)nl::fpc_decompress(forged),
                   numarck::ContractViolation);
      EXPECT_TRUE(bit_identical(nl::fpc_decompress(good.fresh), good.values));
      EXPECT_THROW((void)nl::fpc_decompress(forged),
                   numarck::ContractViolation);
      EXPECT_EQ(nl::fpc_compress(good.values, {good.table_log2}), good.fresh);
    }
  }
}

TEST(FpcThreadTables, FourThreadsDecodeAtOnce) {
  std::vector<FpcCase> cases;
  std::uint64_t seed = 90;
  for (unsigned log2 : {4u, 12u, 16u}) {
    for (std::size_t n : {50u, 5000u, 20000u}) {
      FpcCase c{log2, walk_values(n, seed++), {}};
      c.fresh = nl::fpc_compress(c.values, {c.table_log2});
      cases.push_back(std::move(c));
    }
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < 20; ++round) {
        const FpcCase& c = cases[(t + round * 5) % cases.size()];
        if (!bit_identical(nl::fpc_decompress(c.fresh), c.values)) {
          ++mismatches;
        }
        if (nl::fpc_compress(c.values, {c.table_log2}) != c.fresh) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}
