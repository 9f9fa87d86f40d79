// Tests for distributed K-means and the global-table distributed encoder:
// equivalence with the serial algorithms, the error-bound guarantee across
// partitions, and the storage advantage over per-shard tables.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <vector>

#include "numarck/cluster/distributed_kmeans.hpp"
#include "numarck/core/sharded.hpp"
#include "numarck/distributed/encoder.hpp"
#include "numarck/metrics/metrics.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/rng.hpp"
#include "numarck/util/thread_pool.hpp"

namespace nc = numarck::cluster;
namespace nk = numarck::core;
namespace nd = numarck::distributed;
namespace nm = numarck::mpisim;

namespace {

/// Splits xs into `parts` contiguous slices.
std::vector<std::span<const double>> partition(const std::vector<double>& xs,
                                               int parts) {
  std::vector<std::span<const double>> out;
  for (int p = 0; p < parts; ++p) {
    const std::size_t b = p * xs.size() / parts;
    const std::size_t e = (p + 1) * xs.size() / parts;
    out.emplace_back(xs.data() + b, e - b);
  }
  return out;
}

std::vector<double> mixture_data(std::size_t n, std::uint64_t seed) {
  numarck::util::Pcg32 rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = rng.uniform() < 0.7 ? rng.normal(0.0, 0.01) : rng.normal(0.25, 0.05);
  }
  return xs;
}

}  // namespace

// ---------------------------------------------------- distributed K-means --

namespace {

/// Runs distributed_kmeans1d over `xs` split contiguously across `ranks`
/// and returns every rank's result, in rank order.
std::vector<nc::KMeansResult> run_distributed(
    const std::vector<double>& xs, int ranks,
    const nc::DistributedKMeansOptions& opts) {
  nm::World world(ranks);
  const auto parts = partition(xs, ranks);
  std::vector<nc::KMeansResult> results(static_cast<std::size_t>(ranks));
  world.run([&](nm::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    results[r] = nc::distributed_kmeans1d(comm, parts[r], opts);
  });
  return results;
}

void expect_bit_identical(const nc::KMeansResult& a,
                          const nc::KMeansResult& b) {
  EXPECT_EQ(a.centroids, b.centroids);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.inertia),
            std::bit_cast<std::uint64_t>(b.inertia));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

}  // namespace

TEST(DistributedKMeans, MatchesSerialLloydOnSameData) {
  const auto xs = mixture_data(30000, 11);

  nc::KMeansOptions serial_opts;
  serial_opts.k = 63;
  serial_opts.max_iterations = 40;
  serial_opts.engine = nc::KMeansEngine::kHistogramLloyd;
  const auto serial = nc::kmeans1d(xs, serial_opts);

  nc::DistributedKMeansOptions dopts;
  dopts.k = 63;
  dopts.max_iterations = 40;

  // One rank folds the same data into the same histogram: bit-identical.
  expect_bit_identical(run_distributed(xs, 1, dopts)[0], serial);

  const auto results = run_distributed(xs, 4, dopts);
  // All ranks agree bit-for-bit with each other.
  for (std::size_t r = 1; r < results.size(); ++r) {
    expect_bit_identical(results[r], results[0]);
  }
  // And match the serial engine up to the bin moments' summation order.
  ASSERT_EQ(results[0].centroids.size(), serial.centroids.size());
  for (std::size_t c = 0; c < serial.centroids.size(); ++c) {
    EXPECT_NEAR(results[0].centroids[c], serial.centroids[c],
                1e-6 * (std::abs(serial.centroids[c]) + 1e-3));
  }
  EXPECT_NEAR(results[0].inertia, serial.inertia, 1e-6 * serial.inertia);
}

TEST(DistributedKMeans, ConstantDataMatchesSerialExactly) {
  const std::vector<double> xs(3000, 0.1);
  nc::KMeansOptions serial_opts;
  serial_opts.k = 8;
  serial_opts.engine = nc::KMeansEngine::kHistogramLloyd;
  const auto serial = nc::kmeans1d(xs, serial_opts);
  ASSERT_EQ(serial.centroids, std::vector<double>{0.1});
  EXPECT_EQ(serial.inertia, 0.0);
  EXPECT_TRUE(serial.converged);

  nc::DistributedKMeansOptions dopts;
  dopts.k = 8;
  for (const int ranks : {1, 3}) {
    for (const auto& r : run_distributed(xs, ranks, dopts)) {
      expect_bit_identical(r, serial);
    }
  }
}

TEST(DistributedKMeans, CountsSumToGlobalN) {
  const auto xs = mixture_data(10000, 12);
  nm::World world(3);
  const auto parts = partition(xs, 3);
  world.run([&](nm::Communicator& comm) {
    nc::DistributedKMeansOptions o;
    o.k = 16;
    const auto r = nc::distributed_kmeans1d(
        comm, parts[static_cast<std::size_t>(comm.rank())], o);
    std::uint64_t total = 0;
    for (auto c : r.counts) total += c;
    EXPECT_EQ(total, xs.size());
  });
}

TEST(DistributedKMeans, HandlesEmptyRank) {
  // One rank holds no data at all (a quiet partition) — the collectives
  // must still line up.
  const auto xs = mixture_data(5000, 13);
  nm::World world(3);
  world.run([&](nm::Communicator& comm) {
    std::span<const double> mine;
    if (comm.rank() < 2) {
      const std::size_t half = xs.size() / 2;
      mine = std::span<const double>(xs.data() + comm.rank() * half, half);
    }
    nc::DistributedKMeansOptions o;
    o.k = 8;
    const auto r = nc::distributed_kmeans1d(comm, mine, o);
    EXPECT_FALSE(r.centroids.empty());
  });
}

TEST(DistributedKMeans, AllRanksEmptyGivesEmptyResult) {
  nm::World world(2);
  world.run([](nm::Communicator& comm) {
    nc::DistributedKMeansOptions o;
    o.k = 4;
    const auto r = nc::distributed_kmeans1d(comm, {}, o);
    EXPECT_TRUE(r.centroids.empty());
  });
}

// ------------------------------------------------------ distributed encode --

namespace {

struct Snapshots {
  std::vector<double> prev, curr;
};

Snapshots climate_like(std::size_t n, std::uint64_t seed) {
  numarck::util::Pcg32 rng(seed);
  Snapshots s;
  s.prev.resize(n);
  s.curr.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    s.prev[j] = rng.uniform(1.0, 5.0);
    const double ratio = rng.uniform() < 0.9 ? rng.normal() * 0.004
                                             : rng.uniform(-0.5, 0.5);
    s.curr[j] = s.prev[j] * (1.0 + ratio);
  }
  return s;
}

}  // namespace

class DistributedEncodeStrategy
    : public ::testing::TestWithParam<nk::Strategy> {};

TEST_P(DistributedEncodeStrategy, BoundHoldsAndRanksAgreeOnMetrics) {
  const auto data = climate_like(24000, 21);
  nk::Options opts;
  opts.error_bound = 0.001;
  opts.strategy = GetParam();

  constexpr int kRanks = 4;
  nm::World world(kRanks);
  const auto prev_parts = partition(data.prev, kRanks);
  const auto curr_parts = partition(data.curr, kRanks);
  std::vector<nd::EncodeResult> results(kRanks);
  world.run([&](nm::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    results[r] = nd::encode_iteration(comm, prev_parts[r], curr_parts[r], opts);
  });

  // Per-rank decode satisfies the bound on its partition.
  for (int r = 0; r < kRanks; ++r) {
    const auto& res = results[static_cast<std::size_t>(r)];
    const auto dec = nk::decode_iteration(
        prev_parts[static_cast<std::size_t>(r)], res.local);
    for (std::size_t j = 0; j < dec.size(); ++j) {
      const double p = prev_parts[static_cast<std::size_t>(r)][j];
      const double c = curr_parts[static_cast<std::size_t>(r)][j];
      if (p == 0.0) continue;
      if (std::abs(c) < opts.error_bound && std::abs(p) <= opts.error_bound) {
        continue;
      }
      EXPECT_LE(std::abs((dec[j] - c) / p), opts.error_bound * 1.0001);
    }
    // Global metrics identical everywhere.
    EXPECT_DOUBLE_EQ(res.global_gamma, results[0].global_gamma);
    EXPECT_DOUBLE_EQ(res.global_paper_ratio, results[0].global_paper_ratio);
    EXPECT_EQ(res.global_points, data.prev.size());
  }
  // All ranks share the identical global table.
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)].local.centers,
              results[0].local.centers);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, DistributedEncodeStrategy,
                         ::testing::Values(nk::Strategy::kEqualWidth,
                                           nk::Strategy::kLogScale,
                                           nk::Strategy::kClustering));

TEST(DistributedEncode, BeatsPerShardTablesOnStorage) {
  // Same rank count: the global table is charged once, the sharded local
  // tables once per shard — distributed Eq. 3 must win.
  const auto data = climate_like(20000, 31);
  nk::Options opts;
  opts.error_bound = 0.001;
  opts.strategy = nk::Strategy::kClustering;

  constexpr int kRanks = 8;
  nm::World world(kRanks);
  const auto prev_parts = partition(data.prev, kRanks);
  const auto curr_parts = partition(data.curr, kRanks);
  std::vector<double> ratios(kRanks);
  world.run([&](nm::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    ratios[r] =
        nd::encode_iteration(comm, prev_parts[r], curr_parts[r], opts)
            .global_paper_ratio;
  });

  nk::ShardedOptions sopts;
  sopts.codec = opts;
  sopts.shards = kRanks;
  nk::ShardedCompressor sharded(sopts);
  (void)sharded.push(data.prev);
  const auto sharded_step = sharded.push(data.curr);

  EXPECT_GT(ratios[0], sharded_step.paper_compression_ratio());
}

TEST(DistributedEncode, EquivalentToSerialOnOneRank) {
  const auto data = climate_like(8000, 41);
  nk::Options opts;
  opts.error_bound = 0.001;
  opts.strategy = nk::Strategy::kEqualWidth;

  nm::World world(1);
  nd::EncodeResult dist;
  world.run([&](nm::Communicator& comm) {
    dist = nd::encode_iteration(comm, data.prev, data.curr, opts);
  });
  const auto serial = nk::encode_iteration(data.prev, data.curr, opts);
  EXPECT_EQ(dist.local.centers, serial.centers);
  EXPECT_EQ(dist.local.indices, serial.indices);
  EXPECT_EQ(dist.local.exact_values, serial.exact_values);
  EXPECT_NEAR(dist.global_paper_ratio, serial.paper_compression_ratio(), 1e-9);
}

TEST(DistributedEncode, SerializesByteIdenticalToSerialEncode) {
  // A stored record must not depend on how the encode was parallelized. One
  // rank on a 4-worker pool stores the same bytes as the serial encoder on
  // one worker; with four ranks, every rank's record equals the serial
  // encode of its partition against the shared table.
  const auto data = climate_like(40000, 51);
  nk::Options opts;
  opts.error_bound = 0.001;
  numarck::util::ThreadPool serial_pool(1);
  numarck::util::ThreadPool wide_pool(4);
  nk::Options serial_opts = opts;
  serial_opts.pool = &serial_pool;
  opts.pool = &wide_pool;

  opts.strategy = serial_opts.strategy = nk::Strategy::kEqualWidth;
  nm::World one(1);
  nd::EncodeResult dist;
  one.run([&](nm::Communicator& comm) {
    dist = nd::encode_iteration(comm, data.prev, data.curr, opts);
  });
  EXPECT_EQ(
      dist.local.serialize(),
      nk::encode_iteration(data.prev, data.curr, serial_opts).serialize());

  opts.strategy = serial_opts.strategy = nk::Strategy::kClustering;
  constexpr int kRanks = 4;
  nm::World world(kRanks);
  const auto prev_parts = partition(data.prev, kRanks);
  const auto curr_parts = partition(data.curr, kRanks);
  std::vector<nd::EncodeResult> results(kRanks);
  world.run([&](nm::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    results[r] = nd::encode_iteration(comm, prev_parts[r], curr_parts[r], opts);
  });
  for (std::size_t r = 0; r < kRanks; ++r) {
    nk::BinModel model;
    model.strategy = nk::Strategy::kClustering;
    model.centers = results[r].local.centers;
    EXPECT_EQ(results[r].local.serialize(),
              nk::encode_iteration_with_model(prev_parts[r], curr_parts[r],
                                              model, serial_opts)
                  .serialize())
        << "rank " << r;
    EXPECT_EQ(results[r].global_mean_error, results[0].global_mean_error);
  }
}

TEST(DistributedEncode, PartitionSizeMismatchThrows) {
  nm::World world(1);
  world.run([](nm::Communicator& comm) {
    std::vector<double> a{1.0, 2.0};
    std::vector<double> b{1.0};
    nk::Options opts;
    EXPECT_THROW(nd::encode_iteration(comm, a, b, opts),
                 numarck::ContractViolation);
  });
}
