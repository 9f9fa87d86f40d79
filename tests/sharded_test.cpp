// Tests for sharded (per-rank) compression.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "numarck/core/sharded.hpp"
#include "numarck/metrics/metrics.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/rng.hpp"
#include "numarck/util/thread_pool.hpp"
#include "pool_nesting.hpp"

namespace nk = numarck::core;

namespace {

std::vector<double> snapshot(std::size_t n, double t) {
  std::vector<double> v(n);
  for (std::size_t j = 0; j < n; ++j) {
    v[j] = 2.0 + std::sin(0.002 * static_cast<double>(j) + t);
  }
  return v;
}

nk::ShardedOptions options(std::size_t shards) {
  nk::ShardedOptions o;
  o.codec.error_bound = 0.001;
  o.shards = shards;
  return o;
}

}  // namespace

TEST(Sharded, FirstStepIsFullEverywhere) {
  nk::ShardedCompressor comp(options(4));
  const auto step = comp.push(snapshot(10000, 0.0));
  EXPECT_TRUE(step.is_full());
  EXPECT_EQ(step.shard_steps.size(), 4u);
  for (const auto& s : step.shard_steps) EXPECT_TRUE(s.is_full);
}

TEST(Sharded, ReconstructionMatchesUnsharded) {
  // Sharding changes the learned tables, not the guarantee: the
  // reconstruction must satisfy the same per-point bound.
  nk::ShardedCompressor comp(options(8));
  nk::ShardedReconstructor rec;
  std::vector<double> truth;
  for (int it = 0; it < 5; ++it) {
    truth = snapshot(10000, it * 0.4);
    rec.push(comp.push(truth));
  }
  ASSERT_EQ(rec.state().size(), truth.size());
  EXPECT_LT(numarck::metrics::max_relative_error(truth, rec.state()), 0.01);
  EXPECT_GT(numarck::metrics::pearson(truth, rec.state()), 0.9999);
}

TEST(Sharded, ShardSizesCoverSnapshotExactly) {
  nk::ShardedCompressor comp(options(7));  // 10000 not divisible by 7
  const auto step = comp.push(snapshot(10000, 0.0));
  std::size_t total = 0;
  for (const auto& s : step.shard_steps) total += s.point_count;
  EXPECT_EQ(total, 10000u);
}

TEST(Sharded, SingleShardMatchesPlainCompressor) {
  nk::ShardedCompressor sharded(options(1));
  nk::Options plain_opts;
  plain_opts.error_bound = 0.001;
  nk::VariableCompressor plain(plain_opts);

  (void)sharded.push(snapshot(8000, 0.0));
  (void)plain.push(snapshot(8000, 0.0));
  const auto a = sharded.push(snapshot(8000, 0.5));
  const auto b = plain.push(snapshot(8000, 0.5));
  EXPECT_NEAR(a.paper_compression_ratio(), b.paper_ratio_pct, 1e-9);
  EXPECT_NEAR(a.incompressible_ratio(), b.stats.incompressible_ratio(),
              1e-12);
}

TEST(Sharded, MoreShardsPayMoreTableOverhead) {
  // Same data, same distributions: the only systematic difference is the
  // per-shard table charge, so Eq. 3 must degrade with the shard count.
  double prev_ratio = 1e9;
  for (std::size_t shards : {1u, 4u, 16u}) {
    nk::ShardedCompressor comp(options(shards));
    (void)comp.push(snapshot(40000, 0.0));
    const auto step = comp.push(snapshot(40000, 0.5));
    EXPECT_LT(step.paper_compression_ratio(), prev_ratio + 1e-9);
    prev_ratio = step.paper_compression_ratio();
  }
}

TEST(Sharded, HeterogeneousShardsAdaptLocally) {
  // Half the domain is quiet, half is violent: per-shard tables can model
  // both regimes; the test asserts both halves remain within bound.
  numarck::util::Pcg32 rng(4);
  const std::size_t n = 20000;
  std::vector<double> prev(n), curr(n);
  for (std::size_t j = 0; j < n; ++j) {
    prev[j] = rng.uniform(1.0, 2.0);
    const double ratio = j < n / 2 ? rng.normal() * 0.002
                                   : 0.3 + rng.normal() * 0.05;
    curr[j] = prev[j] * (1.0 + ratio);
  }
  nk::ShardedCompressor comp(options(2));
  nk::ShardedReconstructor rec;
  rec.push(comp.push(prev));
  rec.push(comp.push(curr));
  EXPECT_LT(numarck::metrics::max_relative_error(curr, rec.state()), 0.0011);
}

TEST(Sharded, FewerPointsThanShardsThrows) {
  nk::ShardedCompressor comp(options(16));
  EXPECT_THROW(comp.push(snapshot(8, 0.0)), numarck::ContractViolation);
}

TEST(Sharded, LengthChangeThrows) {
  nk::ShardedCompressor comp(options(2));
  (void)comp.push(snapshot(1000, 0.0));
  EXPECT_THROW(comp.push(snapshot(999, 0.1)), numarck::ContractViolation);
}

TEST(Sharded, ReconstructorRejectsShardCountChange) {
  nk::ShardedCompressor a(options(2)), b(options(3));
  nk::ShardedReconstructor rec;
  rec.push(a.push(snapshot(900, 0.0)));
  const auto other = b.push(snapshot(900, 0.0));
  EXPECT_THROW(rec.push(other), numarck::ContractViolation);
}

TEST(Sharded, StepsAreBitIdenticalAcrossPoolSizes) {
  // Shards and their inner stages share the pool; neither may let the pool
  // size reach a stored byte. 12,000 points per shard is enough for the
  // inner stages to split into chunks of their own.
  std::vector<std::vector<std::vector<std::uint8_t>>> reference;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    numarck::util::ThreadPool pool(workers);
    auto opts = options(3);
    opts.pool = &pool;
    nk::ShardedCompressor comp(opts);
    std::vector<std::vector<std::vector<std::uint8_t>>> payloads;
    for (int it = 0; it < 3; ++it) {
      const auto step = comp.push(snapshot(36000, it * 0.3));
      payloads.emplace_back();
      for (const auto& s : step.shard_steps) {
        payloads.back().push_back(s.payload);
      }
    }
    if (reference.empty()) {
      reference = payloads;
    } else {
      EXPECT_EQ(payloads, reference) << "workers=" << workers;
    }
  }
}

TEST(Sharded, PushInsideAChunkOfItsOwnPoolFinishes) {
  // Every thread of a 2-worker pool holds a chunk, and each pushes through
  // a compressor on that same pool: the push must not wait on pool work
  // that no free thread can run.
  numarck::test_support::expect_finishes_inside_every_chunk(
      2,
      [](numarck::util::ThreadPool& pool) {
        auto opts = options(2);
        opts.pool = &pool;
        nk::ShardedCompressor comp(opts);
        for (int it = 0; it < 2; ++it) (void)comp.push(snapshot(20000, it));
      });
}
