// Unit tests for the utility layer: thread pool, parallel loops, bit
// packing, CRC32, RNG, streaming statistics and byte serialization.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <chrono>
#include <cmath>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "numarck/util/bitpack.hpp"
#include "numarck/util/byte_stream.hpp"
#include "numarck/util/crc32.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/parallel_for.hpp"
#include "numarck/util/rng.hpp"
#include "numarck/util/stats.hpp"
#include "numarck/util/thread_pool.hpp"

namespace nu = numarck::util;

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  nu::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(nu::ThreadPool(3).size(), 3u);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&nu::ThreadPool::global(), &nu::ThreadPool::global());
}

TEST(ThreadPool, ForkJoinRunsOnTheCallerInAForkedChild) {
  // A child forked after the workers started has none of them, and the
  // pool's condition variable may still count a worker that was woken but
  // had not yet returned from its wait; signalling it there blocks for
  // good. So fork_join in such a child must run every chunk on the caller.
  // Each fork follows a fork_join at once, while its helpers are waking.
  nu::ThreadPool pool(4);
  constexpr std::size_t kChunks = 64;
  std::vector<int> hits(kChunks, 0);
  const auto run = [&pool, &hits] {
    std::fill(hits.begin(), hits.end(), 0);
    pool.fork_join(
        kChunks,
        [](void* ctx, std::size_t c) {
          ++(*static_cast<std::vector<int>*>(ctx))[c];
        },
        &hits);
    return std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; });
  };
  for (int trial = 0; trial < 50; ++trial) {
    ASSERT_TRUE(run());
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      bool ok = true;
      for (int rep = 0; rep < 10; ++rep) ok = ok && run();
      ::_exit(ok ? 0 : 1);
    }
    // Bounded wait: a hung child fails the test instead of hanging it.
    int status = 0;
    pid_t waited = 0;
    for (int i = 0; i < 500 && (waited = ::waitpid(pid, &status, WNOHANG)) == 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (waited == 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      FAIL() << "fork_join hung in the child of fork " << trial;
    }
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "fork " << trial;
  }
}

// ----------------------------------------------------------- parallel_for --

TEST(ParallelFor, CoversEveryIndexOnce) {
  // Grain 1, fewer items than chunks the pool could take: one item per
  // chunk, the shape of the per-block and per-shard fan-outs.
  nu::ThreadPool pool(4);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 64u}) {
    std::vector<std::atomic<int>> hits(n);
    nu::parallel_chunks(pool, nu::ChunkPlan(0, n, pool.size(), 1),
                        [&](std::size_t, std::size_t i0, std::size_t i1) {
                          for (std::size_t i = i0; i < i1; ++i) {
                            hits[i].fetch_add(1);
                          }
                        });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "n=" << n;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  nu::ThreadPool pool(2);
  bool called = false;
  nu::parallel_chunks(pool, nu::ChunkPlan(5, 5, pool.size()),
                      [&](std::size_t, std::size_t, std::size_t) {
                        called = true;
                      });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ChunkedCoversRangeWithDisjointChunks) {
  // An offset range: chunk c gets exactly plan.bounds(c), and the chunks
  // tile [begin, end) with no overlap.
  nu::ThreadPool pool(4);
  const std::size_t begin = 123;
  const std::size_t end = begin + 50000;
  const nu::ChunkPlan plan(begin, end, pool.size());
  std::vector<std::atomic<int>> hits(end);
  nu::parallel_chunks(pool, plan,
                      [&](std::size_t c, std::size_t i0, std::size_t i1) {
                        EXPECT_EQ(plan.bounds(c), std::make_pair(i0, i1));
                        for (std::size_t i = i0; i < i1; ++i) {
                          hits[i].fetch_add(1);
                        }
                      });
  for (std::size_t i = 0; i < end; ++i) {
    EXPECT_EQ(hits[i].load(), i < begin ? 0 : 1) << i;
  }
}

TEST(ChunkPlan, OversubscribesForLoadBalancing) {
  // Large ranges get more chunks than *usable* workers (x4) so skewed
  // per-chunk work can be balanced. Usable means capped at the machine's
  // core count — asking a 1-core box for 4 workers must not produce a
  // 16-chunk plan (the seed benchmark showed 8-thread encode slower than
  // 1-thread from exactly that).
  const std::size_t n = 1 << 20;
  const std::size_t usable = nu::effective_workers(4);
  nu::ChunkPlan plan(0, n, 4);
  EXPECT_EQ(plan.chunks,
            usable <= 1 ? 1 : usable * nu::kParallelOversubscribe);
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    const auto [i0, i1] = plan.bounds(c);
    EXPECT_GE(i1 - i0, nu::kParallelGrainSize / 2);
  }
}

TEST(ChunkPlan, CapsWorkersAtHardwareConcurrency) {
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) GTEST_SKIP() << "hardware_concurrency unknown on this box";
  // Requesting far more workers than cores yields the same plan as
  // requesting exactly the core count.
  const std::size_t n = 1 << 22;
  const nu::ChunkPlan greedy(0, n, 64 * hw);
  const nu::ChunkPlan capped(0, n, hw);
  EXPECT_EQ(greedy.chunks, capped.chunks);
  EXPECT_EQ(greedy.step, capped.step);
  EXPECT_LE(greedy.chunks, hw * nu::kParallelOversubscribe);
}

TEST(ChunkPlan, RespectsGrainSize) {
  // A range worth only a few grains never splits below the grain size even
  // with many workers available.
  nu::ChunkPlan plan(0, 3 * nu::kParallelGrainSize, 16);
  EXPECT_LE(plan.chunks, 3u);
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    const auto [i0, i1] = plan.bounds(c);
    EXPECT_GE(i1 - i0, nu::kParallelGrainSize);
  }
}

TEST(ChunkPlan, NeverSplitsBelowGrain) {
  // The floor: any multi-chunk plan keeps every chunk at >= grain points, so
  // tiny inputs stay single-threaded instead of shattering into slivers.
  for (std::size_t n : {std::size_t{1}, nu::kParallelGrainSize - 1,
                        nu::kParallelGrainSize, 2 * nu::kParallelGrainSize - 1,
                        2 * nu::kParallelGrainSize,
                        5 * nu::kParallelGrainSize + 123}) {
    nu::ChunkPlan plan(0, n, 8);
    if (plan.chunks > 1) {
      for (std::size_t c = 0; c < plan.chunks; ++c) {
        const auto [i0, i1] = plan.bounds(c);
        EXPECT_GE(i1 - i0, nu::kParallelGrainSize) << "n=" << n << " c=" << c;
      }
    } else {
      EXPECT_EQ(plan.bounds(0).second - plan.bounds(0).first, n);
    }
  }
}

TEST(ChunkPlan, BoundsTileTheRangeExactly) {
  nu::ChunkPlan plan(100, 100 + (1 << 18) + 37, 8);
  std::size_t expect_next = 100;
  for (std::size_t c = 0; c < plan.chunks; ++c) {
    const auto [i0, i1] = plan.bounds(c);
    EXPECT_EQ(i0, expect_next);
    EXPECT_LT(i0, i1);
    expect_next = i1;
  }
  EXPECT_EQ(expect_next, 100 + (1 << 18) + 37);
}

TEST(ParallelChunks, CoversEveryIndexOnceWithChunkIds) {
  nu::ThreadPool pool(4);
  const std::size_t n = 100000;
  nu::ChunkPlan plan(0, n, pool.size());
  std::vector<std::atomic<int>> hits(n);
  std::vector<std::atomic<int>> chunk_runs(plan.chunks);
  nu::parallel_chunks(pool, plan,
                      [&](std::size_t c, std::size_t i0, std::size_t i1) {
                        chunk_runs[c].fetch_add(1);
                        for (std::size_t i = i0; i < i1; ++i) {
                          hits[i].fetch_add(1);
                        }
                      });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  for (auto& r : chunk_runs) EXPECT_EQ(r.load(), 1);
}

namespace {

/// ThreadPool::fork_join over a callable: f(c) per chunk.
template <typename F>
void fork_join(nu::ThreadPool& pool, std::size_t chunks, F& f) {
  pool.fork_join(
      chunks, [](void* ctx, std::size_t c) { (*static_cast<F*>(ctx))(c); },
      &f);
}

}  // namespace

TEST(ForkJoin, NestedOnItsOwnPoolRunsEveryChunkOnce) {
  // Every outer chunk fork-joins again on the pool it runs in. The caller
  // of each call claims chunks itself, so this completes even when every
  // worker is busy with an outer chunk (one worker: its helpers queue
  // behind the chunk that posted them).
  constexpr std::size_t kOuter = 12;
  constexpr std::size_t kInner = 9;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    nu::ThreadPool pool(workers);
    std::vector<std::atomic<int>> runs(kOuter * kInner);
    auto outer = [&](std::size_t c) {
      auto inner = [&](std::size_t d) { runs[c * kInner + d].fetch_add(1); };
      fork_join(pool, kInner, inner);
    };
    fork_join(pool, kOuter, outer);
    for (auto& r : runs) EXPECT_EQ(r.load(), 1);

    // The same through parallel_chunks, three levels deep.
    const std::size_t n = 3 * nu::kParallelGrainSize;
    std::vector<std::atomic<int>> hits(n);
    const auto each = [&](std::size_t count, auto&& f) {
      nu::parallel_chunks(pool, nu::ChunkPlan(0, count, workers, 1),
                          [&](std::size_t, std::size_t i0, std::size_t i1) {
                            for (std::size_t i = i0; i < i1; ++i) f(i);
                          });
    };
    each(2 * workers, [&](std::size_t) {
      each(2, [&](std::size_t) {
        each(n, [&](std::size_t i) { hits[i].fetch_add(1); });
      });
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), static_cast<int>(4 * workers));
  }
}

TEST(ForkJoin, LowestChunkExceptionWinsAfterEveryChunkFinished) {
  // Later chunks finish first (shorter sleeps) and several throw; the
  // lowest-index exception must win, and only once all chunks are done.
  constexpr std::size_t kChunks = 16;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    nu::ThreadPool pool(workers);
    std::vector<std::atomic<int>> runs(kChunks);
    std::atomic<std::size_t> finished{0};
    auto body = [&](std::size_t c) {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * (kChunks - c)));
      runs[c].fetch_add(1);
      finished.fetch_add(1);
      if (c % 5 == 3) throw std::runtime_error("chunk " + std::to_string(c));
    };
    try {
      fork_join(pool, kChunks, body);
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 3");
      EXPECT_EQ(finished.load(), kChunks);
    }
    for (auto& r : runs) EXPECT_EQ(r.load(), 1);

    // Thrown from nested calls: each inner call joins its own chunks and
    // rethrows its lowest; the outer call then rethrows the lowest outer.
    std::atomic<std::size_t> inner_done{0};
    auto outer = [&](std::size_t c) {
      auto inner = [&](std::size_t d) {
        inner_done.fetch_add(1);
        if (c % 2 == 1 && d >= 4) {
          throw std::runtime_error("outer " + std::to_string(c) + " inner " +
                                   std::to_string(d));
        }
      };
      fork_join(pool, 8, inner);
    };
    try {
      fork_join(pool, 6, outer);
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "outer 1 inner 4");
      EXPECT_EQ(inner_done.load(), 6u * 8u);
    }
  }
}

TEST(ParallelReduce, SumMatchesSerial) {
  nu::ThreadPool pool(4);
  const std::size_t n = 100000;
  const auto sum = nu::parallel_reduce<std::uint64_t>(
      pool, 0, n, 0,
      [](std::size_t i0, std::size_t i1) {
        std::uint64_t s = 0;
        for (std::size_t i = i0; i < i1; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ParallelReduce, SmallRangeRunsInline) {
  nu::ThreadPool pool(4);
  const auto v = nu::parallel_reduce<int>(
      pool, 0, 10, 100,
      [](std::size_t i0, std::size_t i1) {
        return static_cast<int>(i1 - i0);
      },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(v, 110);
}

// --------------------------------------------------------------- bitpack --

TEST(BitPack, SingleValueRoundTrip) {
  nu::BitWriter w;
  w.put(0x2Au, 8);
  auto bytes = w.finish();
  nu::BitReader r(bytes);
  EXPECT_EQ(r.get(8), 0x2Au);
}

TEST(BitPack, RejectsValueWiderThanWidth) {
  nu::BitWriter w;
  EXPECT_THROW(w.put(4u, 2), numarck::ContractViolation);
}

TEST(BitPack, RejectsZeroWidth) {
  nu::BitWriter w;
  EXPECT_THROW(w.put(0u, 0), numarck::ContractViolation);
}

TEST(BitPack, ReadPastEndThrows) {
  nu::BitWriter w;
  w.put(1u, 3);
  auto bytes = w.finish();
  nu::BitReader r(bytes);
  (void)r.get(8);
  EXPECT_THROW((void)r.get(8), numarck::ContractViolation);
}

TEST(BitPack, BitCountTracksExactBits) {
  nu::BitWriter w;
  w.put(1u, 3);
  w.put(1u, 9);
  EXPECT_EQ(w.bit_count(), 12u);
}

class BitPackWidthTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitPackWidthTest, RandomRoundTripAtWidth) {
  const unsigned width = GetParam();
  nu::Pcg32 rng(width * 7919);
  std::vector<std::uint32_t> values(997);
  const std::uint32_t mask =
      width == 32 ? 0xffffffffu : ((1u << width) - 1u);
  for (auto& v : values) v = rng.next() & mask;
  const auto packed = nu::pack_indices(values, width);
  EXPECT_EQ(packed.size(), (values.size() * width + 7) / 8);
  const auto unpacked = nu::unpack_indices(packed, width, values.size());
  EXPECT_EQ(unpacked, values);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitPackWidthTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 8u, 9u, 10u,
                                           12u, 15u, 16u, 17u, 24u, 31u, 32u));

TEST(BitPack, Width32RoundTripIncludingExtremes) {
  // width == 32 must bypass the (1u << width) fit check (which would be UB)
  // and round-trip every bit pattern, including all-ones.
  nu::BitWriter w;
  w.put_bit(true);  // misalign so the 32-bit value straddles five bytes
  w.put(0xFFFFFFFFu, 32);
  w.put(0u, 32);
  w.put(0x80000001u, 32);
  auto bytes = w.finish();
  nu::BitReader r(bytes);
  EXPECT_TRUE(r.get_bit());
  EXPECT_EQ(r.get(32), 0xFFFFFFFFu);
  EXPECT_EQ(r.get(32), 0u);
  EXPECT_EQ(r.get(32), 0x80000001u);
}

TEST(BitSpanWriter, OffsetWritesMatchSequentialWriter) {
  // Split one logical stream at an arbitrary (byte-straddling) bit offset
  // between two span writers; the buffer must equal a sequential append pass.
  nu::BitWriter seq;
  seq.put(5u, 3);
  seq.put(0x3FFu, 10);     // first writer ends mid-byte at bit 13
  seq.put(0xABCDu, 16);
  seq.put_bit(true);
  auto expected = seq.finish();

  std::vector<std::uint8_t> buf(expected.size(), 0);
  nu::BitSpanWriter a(buf.data(), buf.size(), 0);
  a.put(5u, 3);
  a.put(0x3FFu, 10);
  a.finish();
  nu::BitSpanWriter b(buf.data(), buf.size(), 13);
  b.put(0xABCDu, 16);
  b.put_bit(true);
  b.finish();
  EXPECT_EQ(buf, expected);
}

TEST(BitSpanWriter, ManySplitPointsAllByteBoundaryStraddles) {
  // A 997-value width-11 stream split at every possible position must be
  // byte-identical to pack_indices, whichever side of a byte the cut lands.
  nu::Pcg32 rng(20250805);
  std::vector<std::uint32_t> values(997);
  for (auto& v : values) v = rng.next() & 0x7FFu;
  const auto expected = nu::pack_indices(values, 11);
  for (std::size_t split : {1u, 7u, 8u, 64u, 100u, 500u, 996u}) {
    std::vector<std::uint8_t> buf(expected.size(), 0);
    nu::BitSpanWriter a(buf.data(), buf.size(), 0);
    for (std::size_t i = 0; i < split; ++i) a.put(values[i], 11);
    a.finish();
    nu::BitSpanWriter b(buf.data(), buf.size(), split * 11);
    for (std::size_t i = split; i < values.size(); ++i) b.put(values[i], 11);
    b.finish();
    EXPECT_EQ(buf, expected) << "split at " << split;
  }
}

TEST(BitSpanWriter, Width32AtUnalignedOffset) {
  std::vector<std::uint8_t> buf(9, 0);
  nu::BitSpanWriter w(buf.data(), buf.size(), 5);
  w.put(0xDEADBEEFu, 32);
  w.finish();
  nu::BitReader r(buf.data(), buf.size(), 5);
  EXPECT_EQ(r.get(32), 0xDEADBEEFu);
}

TEST(BitSpanWriter, WritePastEndThrows) {
  std::vector<std::uint8_t> buf(1, 0);
  nu::BitSpanWriter w(buf.data(), buf.size(), 0);
  w.put(0xFFu, 8);
  EXPECT_THROW(w.put(0xFFu, 8), numarck::ContractViolation);
}

TEST(BitReader, OffsetConstructorSkipsExactly) {
  nu::BitWriter w;
  w.put(0x2Au, 7);
  w.put(0x155u, 9);
  w.put(0x33u, 6);
  auto bytes = w.finish();
  nu::BitReader r(bytes.data(), bytes.size(), 7);
  EXPECT_EQ(r.get(9), 0x155u);
  EXPECT_EQ(r.get(6), 0x33u);
}

TEST(BitPack, CountOnesMatchesBitwiseScan) {
  nu::Pcg32 rng(99);
  std::vector<std::uint8_t> bytes(64);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next() & 0xffu);
  const auto scan = [&](std::size_t b0, std::size_t b1) {
    std::size_t c = 0;
    for (std::size_t i = b0; i < b1; ++i) {
      c += (bytes[i / 8] >> (i % 8)) & 1u;
    }
    return c;
  };
  for (std::size_t b0 : {0u, 1u, 5u, 8u, 13u, 200u}) {
    for (std::size_t b1 : {0u, 3u, 8u, 9u, 64u, 257u, 512u}) {
      if (b1 < b0) continue;
      EXPECT_EQ(nu::count_ones(bytes.data(), bytes.size(), b0, b1),
                scan(b0, b1))
          << "[" << b0 << "," << b1 << ")";
    }
  }
}

TEST(BitPack, MixedWidthStreamRoundTrip) {
  nu::BitWriter w;
  w.put_bit(true);
  w.put(5u, 3);
  w.put(1000u, 10);
  w.put_bit(false);
  w.put(0xABCDu, 16);
  auto bytes = w.finish();
  nu::BitReader r(bytes);
  EXPECT_TRUE(r.get_bit());
  EXPECT_EQ(r.get(3), 5u);
  EXPECT_EQ(r.get(10), 1000u);
  EXPECT_FALSE(r.get_bit());
  EXPECT_EQ(r.get(16), 0xABCDu);
}

// ----------------------------------------------------------------- crc32 --

TEST(Crc32, MatchesKnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(nu::crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(nu::crc32("", 0), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const auto full = nu::crc32(data.data(), data.size());
  auto inc = nu::kCrc32Init;
  inc = nu::crc32_update(inc, data.data(), 10);
  inc = nu::crc32_update(inc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(inc, full);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(256);
  std::iota(data.begin(), data.end(), 0);
  const auto good = nu::crc32(data.data(), data.size());
  data[100] ^= 0x10;
  EXPECT_NE(nu::crc32(data.data(), data.size()), good);
}

namespace {

/// Bit-at-a-time CRC-32 straight from the reflected polynomial: the
/// reference the table-driven implementation must reproduce.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return c ^ 0xffffffffu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(gen());
  return out;
}

}  // namespace

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths cover empty, pure tail (< 8), every block/tail split and many
  // whole 8-byte blocks; offsets cover every alignment of the block loads.
  const auto buf = random_bytes(1100 + 8, 20260);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(nu::crc32(buf.data() + off, len),
                crc32_bitwise(buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32, ChainedUpdateMatchesOneShotAtEverySplit) {
  const auto buf = random_bytes(4096, 7);
  const auto full = nu::crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    auto inc = nu::crc32_update(nu::kCrc32Init, buf.data(), split);
    inc = nu::crc32_update(inc, buf.data() + split, buf.size() - split);
    ASSERT_EQ(inc, full) << "split " << split;
  }
}

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSeed) {
  nu::Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  nu::Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  nu::Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  nu::Pcg32 rng(11);
  nu::RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, BoundedNeverExceedsBound) {
  nu::Pcg32 rng(13);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.bounded(17), 17u);
}

TEST(Rng, BoundedZeroReturnsZero) {
  nu::Pcg32 rng(13);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, SplitMix64Avalanches) {
  nu::SplitMix64 a(0), b(1);
  // Nearby seeds must produce very different outputs.
  EXPECT_NE(a.next(), b.next());
}

// ----------------------------------------------------------------- stats --

TEST(RunningStats, BasicMoments) {
  nu::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsSafe) {
  nu::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  nu::Pcg32 rng(5);
  nu::RunningStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    whole.add(x);
    (i < 400 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  nu::RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  nu::RunningStats b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(Percentile, MedianOfOddRange) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(nu::percentile(v, 50.0), 3.0);
}

TEST(Percentile, ExtremesAreMinMax) {
  std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(nu::percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(nu::percentile(v, 100.0), 5.0);
}

TEST(Percentile, EmptyThrows) {
  std::vector<double> v;
  EXPECT_THROW(nu::percentile(v, 50.0), numarck::ContractViolation);
}

// ----------------------------------------------------------- byte_stream --

TEST(ByteStream, FixedWidthRoundTrip) {
  nu::ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xCDEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_f64(3.14159);
  nu::ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xCDEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.14159);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteStream, VarintRoundTripBoundaryValues) {
  nu::ByteWriter w;
  const std::uint64_t cases[] = {0,      1,       127,        128,
                                 16383,  16384,   0xFFFFFFFFull,
                                 0xFFFFFFFFFFFFFFFFull};
  for (auto v : cases) w.put_varint(v);
  nu::ByteReader r(w.bytes());
  for (auto v : cases) EXPECT_EQ(r.get_varint(), v);
}

TEST(ByteStream, StringAndVectorRoundTrip) {
  nu::ByteWriter w;
  w.put_string("dens");
  w.put_vector(std::vector<double>{1.0, -2.5, 3.75});
  nu::ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "dens");
  EXPECT_EQ(r.get_vector<double>(), (std::vector<double>{1.0, -2.5, 3.75}));
}

TEST(ByteStream, TruncatedReadThrows) {
  nu::ByteWriter w;
  w.put_u16(7);
  nu::ByteReader r(w.bytes());
  EXPECT_THROW((void)r.get_u32(), numarck::ContractViolation);
}

TEST(ByteStream, TruncatedVarintThrows) {
  std::vector<std::uint8_t> bad{0x80, 0x80};  // continuation never ends
  nu::ByteReader r(bad);
  EXPECT_THROW((void)r.get_varint(), numarck::ContractViolation);
}

TEST(ByteStream, RemainingAndPositionAreConsistent) {
  nu::ByteWriter w;
  w.put_u32(1);
  w.put_u32(2);
  nu::ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.get_u32();
  EXPECT_EQ(r.position(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
}

// ---------------------------------------------------------------- expect --

TEST(Expect, ThrowsWithExpressionInMessage) {
  try {
    NUMARCK_EXPECT(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const numarck::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("math is broken"), std::string::npos);
  }
}

TEST(Expect, PassesSilently) {
  NUMARCK_EXPECT(2 + 2 == 4, "fine");
  SUCCEED();
}
