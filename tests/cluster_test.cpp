// Tests for histogram construction and the 1-D K-means engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "numarck/cluster/histogram.hpp"
#include "numarck/cluster/kmeans1d.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/parallel_for.hpp"
#include "numarck/util/rng.hpp"

namespace nc = numarck::cluster;

// ------------------------------------------------------------- histogram --

TEST(Histogram, UniformDataFillsBinsEvenly) {
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(i / 999.0);
  const auto h = nc::equal_width_histogram(xs, 10);
  EXPECT_EQ(h.bins(), 10u);
  EXPECT_EQ(h.total, 1000u);
  for (auto c : h.counts) EXPECT_NEAR(static_cast<double>(c), 100.0, 1.0);
}

TEST(Histogram, EdgesSpanDataRange) {
  std::vector<double> xs{-3.0, 7.0, 1.0};
  const auto h = nc::equal_width_histogram(xs, 5);
  EXPECT_DOUBLE_EQ(h.edges.front(), -3.0);
  EXPECT_DOUBLE_EQ(h.edges.back(), 7.0);
  EXPECT_EQ(h.total, 3u);
}

TEST(Histogram, MaxValueLandsInLastBin) {
  std::vector<double> xs{0.0, 1.0};
  const auto h = nc::equal_width_histogram(xs, 4);
  EXPECT_EQ(h.bin_of(1.0), 3u);
  EXPECT_EQ(h.bin_of(0.0), 0u);
}

TEST(Histogram, OutOfRangeReturnsNpos) {
  std::vector<double> xs{0.0, 1.0};
  const auto h = nc::equal_width_histogram(xs, 4);
  EXPECT_EQ(h.bin_of(-0.1), nc::Histogram::npos);
  EXPECT_EQ(h.bin_of(1.1), nc::Histogram::npos);
}

TEST(Histogram, DegenerateConstantData) {
  std::vector<double> xs(100, 5.0);
  const auto h = nc::equal_width_histogram(xs, 8);
  EXPECT_EQ(h.total, 100u);  // all values binned despite zero range
}

TEST(Histogram, EmptyInput) {
  std::vector<double> xs;
  const auto h = nc::equal_width_histogram(xs, 4);
  EXPECT_EQ(h.total, 0u);
  EXPECT_EQ(h.bins(), 4u);
}

TEST(Histogram, CentersAreMidpoints) {
  std::vector<double> xs{0.0, 10.0};
  const auto h = nc::equal_width_histogram(xs, 5);
  for (std::size_t b = 0; b < 5; ++b) {
    EXPECT_DOUBLE_EQ(h.centers[b], 0.5 * (h.edges[b] + h.edges[b + 1]));
  }
}

TEST(Histogram, ExplicitRangeExcludesOutliers) {
  std::vector<double> xs{-100.0, 0.2, 0.4, 0.6, 100.0};
  const auto h = nc::equal_width_histogram_range(xs, 4, 0.0, 1.0);
  EXPECT_EQ(h.total, 3u);
}

TEST(Histogram, CountsSumToTotal) {
  numarck::util::Pcg32 rng(3);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.normal();
  const auto h = nc::equal_width_histogram(xs, 64);
  std::uint64_t sum = 0;
  for (auto c : h.counts) sum += c;
  EXPECT_EQ(sum, h.total);
  EXPECT_EQ(h.total, xs.size());
}

// ------------------------------------------------------ nearest_centroid --

TEST(NearestCentroid, PicksClosest) {
  std::vector<double> c{0.0, 1.0, 10.0};
  EXPECT_EQ(nc::nearest_centroid(c, -5.0), 0u);
  EXPECT_EQ(nc::nearest_centroid(c, 0.4), 0u);
  EXPECT_EQ(nc::nearest_centroid(c, 0.6), 1u);
  EXPECT_EQ(nc::nearest_centroid(c, 4.0), 1u);
  EXPECT_EQ(nc::nearest_centroid(c, 8.0), 2u);
  EXPECT_EQ(nc::nearest_centroid(c, 100.0), 2u);
}

TEST(NearestCentroid, TieGoesToLower) {
  std::vector<double> c{0.0, 2.0};
  EXPECT_EQ(nc::nearest_centroid(c, 1.0), 0u);
}

TEST(NearestCentroid, ExactMidpointTieBreaksLowAtEveryBoundary) {
  // The documented rule — (x - lo) <= (hi - x) resolves exact midpoints to
  // the LOWER centroid — at every adjacent pair, including negative and
  // unevenly spaced ones. BinLookup and the sorted-boundary engine rely on
  // this exact behaviour for bit-identical assignments.
  const std::vector<double> c{-3.0, -1.0, 0.0, 0.25, 8.0};
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    const double mid = 0.5 * (c[i] + c[i + 1]);
    EXPECT_EQ(nc::nearest_centroid(c, mid), i) << "boundary " << i;
    // And one ulp above the midpoint flips to the upper centroid.
    const double above = std::nextafter(mid, c[i + 1]);
    if (std::abs(above - c[i]) > std::abs(c[i + 1] - above)) {
      EXPECT_EQ(nc::nearest_centroid(c, above), i + 1) << "boundary " << i;
    }
  }
}

TEST(NearestCentroid, SingleCentroid) {
  std::vector<double> c{5.0};
  EXPECT_EQ(nc::nearest_centroid(c, -1e9), 0u);
}

TEST(NearestCentroid, EmptyTableThrowsContractViolation) {
  const std::vector<double> none;
  EXPECT_THROW((void)nc::nearest_centroid(none, 1.0),
               numarck::ContractViolation);
}

TEST(NearestCentroid, MatchesLinearScan) {
  numarck::util::Pcg32 rng(17);
  std::vector<double> cents(50);
  for (auto& c : cents) c = rng.uniform(-10, 10);
  std::sort(cents.begin(), cents.end());
  for (int t = 0; t < 1000; ++t) {
    const double x = rng.uniform(-12, 12);
    std::size_t best = 0;
    for (std::size_t i = 1; i < cents.size(); ++i) {
      if (std::abs(cents[i] - x) < std::abs(cents[best] - x)) best = i;
    }
    EXPECT_NEAR(std::abs(cents[nc::nearest_centroid(cents, x)] - x),
                std::abs(cents[best] - x), 1e-15);
  }
}

// ---------------------------------------------------------------- kmeans --

namespace {

std::vector<double> three_blob_data(std::size_t per_blob) {
  numarck::util::Pcg32 rng(99);
  std::vector<double> xs;
  for (double center : {-10.0, 0.0, 10.0}) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      xs.push_back(rng.normal(center, 0.3));
    }
  }
  return xs;
}

}  // namespace

class KMeansEngineTest : public ::testing::TestWithParam<nc::KMeansEngine> {};

TEST_P(KMeansEngineTest, RecoversWellSeparatedClusters) {
  const auto xs = three_blob_data(500);
  nc::KMeansOptions o;
  o.k = 3;
  o.engine = GetParam();
  const auto r = nc::kmeans1d(xs, o);
  ASSERT_EQ(r.centroids.size(), 3u);
  EXPECT_NEAR(r.centroids[0], -10.0, 0.1);
  EXPECT_NEAR(r.centroids[1], 0.0, 0.1);
  EXPECT_NEAR(r.centroids[2], 10.0, 0.1);
  for (auto c : r.counts) EXPECT_NEAR(static_cast<double>(c), 500.0, 5.0);
  EXPECT_TRUE(r.converged);
}

TEST_P(KMeansEngineTest, CentroidsAreSorted) {
  numarck::util::Pcg32 rng(4);
  std::vector<double> xs(3000);
  for (auto& x : xs) x = rng.normal();
  nc::KMeansOptions o;
  o.k = 16;
  o.engine = GetParam();
  const auto r = nc::kmeans1d(xs, o);
  EXPECT_TRUE(std::is_sorted(r.centroids.begin(), r.centroids.end()));
}

TEST_P(KMeansEngineTest, CountsSumToN) {
  numarck::util::Pcg32 rng(6);
  std::vector<double> xs(2777);
  for (auto& x : xs) x = rng.uniform(0, 1);
  nc::KMeansOptions o;
  o.k = 31;
  o.engine = GetParam();
  const auto r = nc::kmeans1d(xs, o);
  std::uint64_t n = 0;
  for (auto c : r.counts) n += c;
  EXPECT_EQ(n, xs.size());
}

TEST_P(KMeansEngineTest, FewerPointsThanClusters) {
  std::vector<double> xs{1.0, 2.0, 3.0};
  nc::KMeansOptions o;
  o.k = 10;
  o.engine = GetParam();
  const auto r = nc::kmeans1d(xs, o);
  EXPECT_LE(r.centroids.size(), 3u);
  std::uint64_t n = 0;
  for (auto c : r.counts) n += c;
  EXPECT_EQ(n, 3u);
}

TEST_P(KMeansEngineTest, ConstantDataCollapsesToOneCentroid) {
  std::vector<double> xs(500, 7.5);
  nc::KMeansOptions o;
  o.k = 8;
  o.engine = GetParam();
  const auto r = nc::kmeans1d(xs, o);
  ASSERT_GE(r.centroids.size(), 1u);
  for (auto c : r.centroids) EXPECT_DOUBLE_EQ(c, 7.5);
}

TEST_P(KMeansEngineTest, EmptyInputGivesEmptyResult) {
  std::vector<double> xs;
  nc::KMeansOptions o;
  o.k = 4;
  o.engine = GetParam();
  const auto r = nc::kmeans1d(xs, o);
  EXPECT_TRUE(r.centroids.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, KMeansEngineTest,
    ::testing::Values(nc::KMeansEngine::kSortedBoundary,
                      nc::KMeansEngine::kHistogramLloyd));

namespace {

/// Textbook O(n k) Lloyd, the reference for the exact engine: kmeans1d's
/// default seeding (mass quantiles of a max(4k, 256)-bin equal-width
/// histogram), then rounds of a linear nearest-centroid scan per point and a
/// mean update; an empty cluster moves to the point farthest from its
/// centroid, at most one per round. Returns the inertia at the fixpoint.
double textbook_lloyd_inertia(const std::vector<double>& xs, std::size_t k,
                              std::size_t max_rounds) {
  const auto h =
      nc::equal_width_histogram(xs, std::max<std::size_t>(4 * k, 256));
  std::vector<double> cents;
  std::size_t bin = 0;
  double cum = 0.0;
  const auto total = static_cast<double>(h.total);
  for (std::size_t i = 0; i < k; ++i) {
    const double target =
        total * (static_cast<double>(i) + 0.5) / static_cast<double>(k);
    while (bin + 1 < h.bins() &&
           cum + static_cast<double>(h.counts[bin]) < target) {
      cum += static_cast<double>(h.counts[bin++]);
    }
    const auto in_bin = static_cast<double>(h.counts[bin]);
    const double frac =
        in_bin > 0.0 ? std::clamp((target - cum) / in_bin, 0.0, 1.0) : 0.5;
    cents.push_back(h.edges[bin] + frac * (h.edges[bin + 1] - h.edges[bin]));
  }
  std::sort(cents.begin(), cents.end());
  cents.erase(std::unique(cents.begin(), cents.end()), cents.end());

  std::vector<std::size_t> owner(xs.size());
  const auto assign = [&] {
    double inertia = 0.0, far_d = -1.0, far_x = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < cents.size(); ++c) {
        if (std::abs(xs[i] - cents[c]) < std::abs(xs[i] - cents[best])) {
          best = c;
        }
      }
      owner[i] = best;
      const double d2 = (xs[i] - cents[best]) * (xs[i] - cents[best]);
      inertia += d2;
      if (d2 > far_d) {
        far_d = d2;
        far_x = xs[i];
      }
    }
    return std::pair{inertia, far_x};
  };
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const double far_x = assign().second;
    std::vector<double> sum(cents.size(), 0.0), cnt(cents.size(), 0.0);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      sum[owner[i]] += xs[i];
      cnt[owner[i]] += 1.0;
    }
    bool reseeded = false;
    double shift = 0.0;
    std::vector<double> next = cents;
    for (std::size_t c = 0; c < cents.size(); ++c) {
      if (cnt[c] > 0.0) {
        next[c] = sum[c] / cnt[c];
      } else if (!reseeded) {
        next[c] = far_x;
        reseeded = true;
      }
      shift = std::max(shift, std::abs(next[c] - cents[c]));
    }
    std::sort(next.begin(), next.end());
    cents.swap(next);
    if (!reseeded && shift <= 1e-12) break;
  }
  return assign().first;
}

}  // namespace

TEST(KMeans, EnginesConvergeToSameInertia) {
  numarck::util::Pcg32 rng(21);
  std::vector<double> xs(20000);
  for (auto& x : xs) {
    x = rng.uniform() < 0.7 ? rng.normal(0.0, 0.01) : rng.normal(0.3, 0.1);
  }
  nc::KMeansOptions o;
  o.k = 63;
  o.max_iterations = 60;
  o.engine = nc::KMeansEngine::kSortedBoundary;
  const auto b = nc::kmeans1d(xs, o);
  const double a = textbook_lloyd_inertia(xs, o.k, o.max_iterations);
  // Same seeding and same update rule: the fixpoints must agree closely.
  EXPECT_NEAR(a, b.inertia, 0.02 * std::max(a, b.inertia));
}

TEST(KMeans, DensityAdaptiveSeedingResolvesDenseCore) {
  // 90 % of the mass in a tight core, 10 % spread over wide tails: seeds
  // must concentrate where the mass is (this is what makes the clustering
  // strategy beat equal-width binning in the paper).
  numarck::util::Pcg32 rng(8);
  std::vector<double> xs(30000);
  for (auto& x : xs) {
    x = rng.uniform() < 0.9 ? rng.normal(0.0, 0.005) : rng.uniform(-1.0, 1.0);
  }
  nc::KMeansOptions o;
  o.k = 100;
  const auto r = nc::kmeans1d(xs, o);
  std::size_t in_core = 0;
  for (auto c : r.centroids) {
    if (std::abs(c) < 0.02) ++in_core;
  }
  EXPECT_GT(in_core, 50u);  // majority of centroids in the 2 %-wide core
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  numarck::util::Pcg32 rng(12);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.normal();
  double prev = 1e300;
  for (std::size_t k : {2u, 4u, 8u, 16u, 32u}) {
    nc::KMeansOptions o;
    o.k = k;
    const auto r = nc::kmeans1d(xs, o);
    EXPECT_LT(r.inertia, prev);
    prev = r.inertia;
  }
}

TEST(KMeans, QuantileInitAlsoWorks) {
  const auto xs = three_blob_data(200);
  nc::KMeansOptions o;
  o.k = 3;
  o.init = nc::KMeansInit::kQuantile;
  const auto r = nc::kmeans1d(xs, o);
  ASSERT_EQ(r.centroids.size(), 3u);
  EXPECT_NEAR(r.centroids[1], 0.0, 0.2);
}

TEST(KMeans, InvalidKThrows) {
  std::vector<double> xs{1.0};
  nc::KMeansOptions o;
  o.k = 0;
  EXPECT_THROW(nc::kmeans1d(xs, o), numarck::ContractViolation);
}

// ----------------------------------------------------- weighted histogram --

TEST(WeightedHistogram, MomentsAreExactPerBin) {
  // 4 points placed in known bins of a [0, 4) 4-bin histogram.
  const std::vector<double> xs{0.5, 1.25, 1.75, 3.5};
  const auto h = nc::weighted_histogram(xs, 4, 0.0, 4.0);
  ASSERT_EQ(h.bins(), 4u);
  EXPECT_DOUBLE_EQ(h.width, 1.0);
  EXPECT_DOUBLE_EQ(h.count[0], 1.0);
  EXPECT_DOUBLE_EQ(h.count[1], 2.0);
  EXPECT_DOUBLE_EQ(h.count[2], 0.0);
  EXPECT_DOUBLE_EQ(h.count[3], 1.0);
  EXPECT_DOUBLE_EQ(h.sum[1], 1.25 + 1.75);
  EXPECT_DOUBLE_EQ(h.sumsq[1], 1.25 * 1.25 + 1.75 * 1.75);
  EXPECT_DOUBLE_EQ(h.center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.center(3), 3.5);
}

TEST(WeightedHistogram, OutOfRangeValuesClampToEdgeBins) {
  const std::vector<double> xs{-100.0, 0.25, 100.0};
  const auto h = nc::weighted_histogram(xs, 2, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(h.count[0], 2.0);  // -100 clamps into bin 0, next to 0.25
  EXPECT_DOUBLE_EQ(h.count[1], 1.0);  // +100 clamps into bin 1
  EXPECT_DOUBLE_EQ(h.sum[0], -100.0 + 0.25);
  EXPECT_DOUBLE_EQ(h.sum[1], 100.0);
}

TEST(WeightedHistogram, TotalsMatchInputOnRandomData) {
  numarck::util::Pcg32 rng(33);
  std::vector<double> xs(10000);
  double sum = 0.0;
  for (auto& x : xs) {
    x = rng.normal();
    sum += x;
  }
  const auto h = nc::weighted_histogram(xs, 512, -6.0, 6.0);
  double cnt = 0.0, s = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) {
    cnt += h.count[b];
    s += h.sum[b];
  }
  EXPECT_DOUBLE_EQ(cnt, 10000.0);
  EXPECT_NEAR(s, sum, 1e-9 * std::abs(sum) + 1e-9);
}

TEST(WeightedHistogram, DegenerateRangeThrows) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)nc::weighted_histogram(xs, 4, 2.0, 2.0),
               numarck::ContractViolation);
}

TEST(HistogramLloyd, InertiaWithinResolutionBoundOfExact) {
  // The file-header bound: per point, d_hist <= d_exact + w. Summing squares
  // and applying Cauchy-Schwarz: inertia_hist <= inertia_exact
  // + 2 w sqrt(n * inertia_exact) + n w^2.
  numarck::util::Pcg32 rng(55);
  std::vector<double> xs(40000);
  for (auto& x : xs) {
    x = rng.uniform() < 0.8 ? rng.normal(0.0, 0.01) : rng.normal(0.25, 0.05);
  }
  const auto [lo_it, hi_it] = std::minmax_element(xs.begin(), xs.end());
  nc::KMeansOptions o;
  o.k = 63;
  o.max_iterations = 60;
  o.engine = nc::KMeansEngine::kSortedBoundary;
  const auto exact = nc::kmeans1d(xs, o);
  o.engine = nc::KMeansEngine::kHistogramLloyd;
  o.histogram_bins = 1 << 14;
  const auto hist = nc::kmeans1d(xs, o);
  const double w = (*hi_it - *lo_it) / static_cast<double>(o.histogram_bins);
  const double n = static_cast<double>(xs.size());
  const double bound =
      exact.inertia + 2.0 * w * std::sqrt(n * exact.inertia) + n * w * w;
  EXPECT_LE(hist.inertia, bound * 1.001);
  EXPECT_GT(hist.inertia, 0.0);
}

TEST(HistogramLloyd, IsDeterministicAcrossThreadCounts) {
  numarck::util::Pcg32 rng(77);
  std::vector<double> xs(30000);
  for (auto& x : xs) x = rng.normal();
  std::vector<double> reference;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    numarck::util::ThreadPool pool(threads);
    nc::KMeansOptions o;
    o.k = 31;
    o.engine = nc::KMeansEngine::kHistogramLloyd;
    o.pool = &pool;
    const auto r = nc::kmeans1d(xs, o);
    if (reference.empty()) {
      reference = r.centroids;
      ASSERT_FALSE(reference.empty());
    } else {
      ASSERT_EQ(r.centroids.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(r.centroids[i], reference[i]) << "centroid " << i
            << " differs at " << threads << " threads";
      }
    }
  }
}

TEST(KMeans, RespectsExplicitPool) {
  numarck::util::ThreadPool pool(1);  // deterministic single-thread
  const auto xs = three_blob_data(100);
  nc::KMeansOptions o;
  o.k = 3;
  o.pool = &pool;
  const auto r = nc::kmeans1d(xs, o);
  EXPECT_EQ(r.centroids.size(), 3u);
}

// ------------------------------------------- histogram engine bit identity --
//
// The kHistogramLloyd engine folds and iterates over populated bins only. The
// oracle below is the dense formulation it replaced — a per-chunk fold into
// all H bins and a Lloyd over H-entry prefix sums with a binary search per
// bin in the reseed scan — kept here verbatim as the reference. The two must
// agree bit for bit on centroids, counts, inertia, iterations and the
// convergence flag.

namespace {

nc::WeightedHistogram oracle_dense_fold(std::span<const double> xs,
                                        std::size_t bins, double lo, double hi,
                                        numarck::util::ThreadPool& pool) {
  nc::WeightedHistogram h;
  h.lo = lo;
  h.hi = hi;
  h.width = (hi - lo) / static_cast<double>(bins);
  const double inv_width = static_cast<double>(bins) / (hi - lo);
  struct Moments {
    std::vector<double> cnt, sum, sumsq;
    explicit Moments(std::size_t b) : cnt(b, 0.0), sum(b, 0.0), sumsq(b, 0.0) {}
  };
  const numarck::util::ChunkPlan plan(
      0, xs.size(),
      numarck::util::effective_workers(std::thread::hardware_concurrency() +
                                       1));
  std::vector<Moments> partials(plan.chunks, Moments(bins));
  numarck::util::parallel_chunks(
      pool, plan, [&](std::size_t c, std::size_t i0, std::size_t i1) {
        Moments& m = partials[c];
        for (std::size_t i = i0; i < i1; ++i) {
          const double x = xs[i];
          const double est = (x - lo) * inv_width;
          const std::size_t b =
              est <= 0.0 ? 0
                         : std::min(bins - 1, static_cast<std::size_t>(est));
          m.cnt[b] += 1.0;
          m.sum[b] += x;
          m.sumsq[b] += x * x;
        }
      });
  h.count.assign(bins, 0.0);
  h.sum.assign(bins, 0.0);
  h.sumsq.assign(bins, 0.0);
  for (const Moments& m : partials) {
    for (std::size_t b = 0; b < bins; ++b) {
      h.count[b] += m.cnt[b];
      h.sum[b] += m.sum[b];
      h.sumsq[b] += m.sumsq[b];
    }
  }
  return h;
}

std::vector<double> oracle_seeds(const nc::WeightedHistogram& h, std::size_t k,
                                 double total) {
  std::vector<double> c;
  std::size_t bin = 0;
  double cum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double target =
        total * (static_cast<double>(i) + 0.5) / static_cast<double>(k);
    while (bin + 1 < h.bins() && cum + h.count[bin] < target) {
      cum += h.count[bin];
      ++bin;
    }
    const double in_bin = h.count[bin];
    const double frac =
        in_bin > 0.0 ? std::clamp((target - cum) / in_bin, 0.0, 1.0) : 0.5;
    c.push_back(h.lo + (static_cast<double>(bin) + frac) * h.width);
  }
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  return c;
}

std::size_t oracle_boundary_bin(const nc::WeightedHistogram& h, double mid) {
  const std::size_t bins = h.bins();
  const double est = (mid - h.lo) / h.width + 0.5;
  std::size_t cut =
      est <= 0.0 ? 0 : std::min(bins, static_cast<std::size_t>(est));
  while (cut > 0 && h.center(cut - 1) > mid) --cut;
  while (cut < bins && h.center(cut) <= mid) ++cut;
  return cut;
}

nc::KMeansResult oracle_dense_lloyd(const nc::WeightedHistogram& h,
                                    const nc::KMeansOptions& opts) {
  nc::KMeansResult r;
  const std::size_t bins = h.bins();
  double total = 0.0;
  for (double c : h.count) total += c;
  if (total <= 0.0) return r;
  std::vector<double> pc(bins + 1, 0.0), ps(bins + 1, 0.0), pq(bins + 1, 0.0);
  for (std::size_t b = 0; b < bins; ++b) {
    pc[b + 1] = pc[b] + h.count[b];
    ps[b + 1] = ps[b] + h.sum[b];
    pq[b + 1] = pq[b] + h.sumsq[b];
  }
  // Populated bins that fit in k are their own clusters, while their means
  // ascend strictly; Lloyd runs otherwise.
  std::vector<double> means;
  for (std::size_t b = 0; b < bins; ++b) {
    if (h.count[b] > 0.0) means.push_back(h.sum[b] / h.count[b]);
  }
  if (means.size() <= opts.k &&
      std::adjacent_find(means.begin(), means.end(),
                         std::greater_equal<>()) == means.end()) {
    for (std::size_t b = 0; b < bins; ++b) {
      if (h.count[b] <= 0.0) continue;
      const double cent = h.sum[b] / h.count[b];
      r.inertia += h.sumsq[b] - 2.0 * cent * h.sum[b] + cent * cent * h.count[b];
      r.centroids.push_back(cent);
      r.counts.push_back(static_cast<std::uint64_t>(h.count[b] + 0.5));
    }
    r.inertia = std::max(r.inertia, 0.0);
    r.converged = true;
    return r;
  }
  std::vector<double> centroids = oracle_seeds(h, opts.k, total);
  if (centroids.empty()) return r;
  std::vector<std::size_t> cuts(centroids.size() + 1);
  const auto place_cuts = [&](const std::vector<double>& cents) {
    const std::size_t k = cents.size();
    cuts[0] = 0;
    cuts[k] = bins;
    for (std::size_t c = 1; c < k; ++c) {
      const double mid = 0.5 * (cents[c - 1] + cents[c]);
      cuts[c] = std::max(oracle_boundary_bin(h, mid), cuts[c - 1]);
    }
  };
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    ++r.iterations;
    place_cuts(centroids);
    const std::size_t k = centroids.size();
    std::vector<double> next = centroids;
    bool reseeded = false;
    double max_shift = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      const double cnt = pc[cuts[c + 1]] - pc[cuts[c]];
      if (cnt > 0.0) {
        next[c] = (ps[cuts[c + 1]] - ps[cuts[c]]) / cnt;
      } else if (!reseeded) {
        double far_d = 0.0, far_v = 0.0;
        for (std::size_t b = 0; b < bins; ++b) {
          if (h.count[b] <= 0.0) continue;
          const double x = h.center(b);
          const double d = x - centroids[nc::nearest_centroid(centroids, x)];
          if (d * d > far_d) {
            far_d = d * d;
            far_v = x;
          }
        }
        if (far_d > 0.0) {
          next[c] = far_v;
          reseeded = true;
        }
      }
      max_shift = std::max(max_shift, std::abs(next[c] - centroids[c]));
    }
    std::sort(next.begin(), next.end());
    centroids.swap(next);
    if (!reseeded && max_shift <= opts.tolerance) {
      r.converged = true;
      break;
    }
  }
  place_cuts(centroids);
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    const double cnt = pc[cuts[c + 1]] - pc[cuts[c]];
    if (cnt <= 0.0) continue;
    const double sum = ps[cuts[c + 1]] - ps[cuts[c]];
    const double sq = pq[cuts[c + 1]] - pq[cuts[c]];
    const double cent = centroids[c];
    r.inertia += sq - 2.0 * cent * sum + cent * cent * cnt;
    r.centroids.push_back(cent);
    r.counts.push_back(static_cast<std::uint64_t>(cnt + 0.5));
  }
  r.inertia = std::max(r.inertia, 0.0);
  return r;
}

/// The engine's public entry point as the dense formulation computed it.
nc::KMeansResult oracle_histogram_kmeans(std::span<const double> xs,
                                         const nc::KMeansOptions& opts,
                                         numarck::util::ThreadPool& pool) {
  nc::KMeansResult r;
  if (xs.empty()) return r;
  const auto [lo_it, hi_it] = std::minmax_element(xs.begin(), xs.end());
  if (*lo_it >= *hi_it) {
    r.centroids.push_back(*lo_it);
    r.counts.push_back(xs.size());
    r.converged = true;
    return r;
  }
  const std::size_t bins =
      opts.histogram_bins != 0
          ? opts.histogram_bins
          : std::min<std::size_t>(std::max<std::size_t>(64 * opts.k, 4096),
                                  std::size_t{1} << 18);
  return oracle_dense_lloyd(oracle_dense_fold(xs, bins, *lo_it, *hi_it, pool),
                            opts);
}

void expect_bit_identical(const nc::KMeansResult& got,
                          const nc::KMeansResult& want, const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.centroids.size(), want.centroids.size());
  for (std::size_t c = 0; c < want.centroids.size(); ++c) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.centroids[c]),
              std::bit_cast<std::uint64_t>(want.centroids[c]))
        << "centroid " << c << ": " << got.centroids[c] << " vs "
        << want.centroids[c];
  }
  EXPECT_EQ(got.counts, want.counts);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.inertia),
            std::bit_cast<std::uint64_t>(want.inertia))
      << got.inertia << " vs " << want.inertia;
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
}

/// kHistogramLloyd at the codec's settings (k = 255, 30 rounds) against the
/// dense oracle, on the given pool.
void expect_engine_matches_oracle(std::span<const double> xs, std::size_t k,
                                  numarck::util::ThreadPool& pool,
                                  const char* what) {
  nc::KMeansOptions o;
  o.k = k;
  o.max_iterations = 30;
  o.engine = nc::KMeansEngine::kHistogramLloyd;
  o.pool = &pool;
  expect_bit_identical(nc::kmeans1d(xs, o),
                       oracle_histogram_kmeans(xs, o, pool), what);
}

/// Heavy-tailed change ratios in the shape a Sedov blast produces: most
/// points just past the error bound, a Pareto tail that stretches the range
/// so the bulk lands in a handful of the H fine bins.
std::vector<double> heavy_tailed_ratios(std::size_t n, std::uint64_t seed) {
  numarck::util::Pcg32 rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) {
    const double mag = 1e-3 / std::pow(1.0 - rng.uniform(), 1.6);
    x = rng.uniform() < 0.5 ? -mag : mag;
  }
  return xs;
}

}  // namespace

TEST(HistogramLloyd, PopulatedBinsThatFitAreTheirOwnClusters) {
  // A Sedov-shaped learn set fills fewer fine bins than k: each populated
  // bin is then its own cluster, at its exact mean, and no round runs.
  const auto xs = heavy_tailed_ratios(1000, 3);
  const auto [lo_it, hi_it] = std::minmax_element(xs.begin(), xs.end());
  constexpr std::size_t kBins = 64 * 255;
  const auto h = nc::weighted_histogram(xs, kBins, *lo_it, *hi_it);
  std::vector<std::size_t> populated;
  double within = 0.0;  // summed within-bin squared error
  for (std::size_t b = 0; b < h.bins(); ++b) {
    if (h.count[b] <= 0.0) continue;
    populated.push_back(b);
    const double mean = h.sum[b] / h.count[b];
    within += h.sumsq[b] - 2.0 * mean * h.sum[b] + mean * mean * h.count[b];
  }
  const std::size_t m = populated.size();
  ASSERT_LT(m, 255u);
  ASSERT_GT(m, 2u);

  nc::KMeansOptions o;
  o.max_iterations = 30;
  o.engine = nc::KMeansEngine::kHistogramLloyd;
  o.histogram_bins = kBins;  // the same grid for every k below
  for (const std::size_t k : {std::size_t{255}, m}) {
    o.k = k;
    SCOPED_TRACE("k=" + std::to_string(k));
    const nc::KMeansResult r = nc::kmeans1d(xs, o);
    ASSERT_EQ(r.centroids.size(), m);
    ASSERT_EQ(r.counts.size(), m);
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t b = populated[j];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.centroids[j]),
                std::bit_cast<std::uint64_t>(h.sum[b] / h.count[b]))
          << "bin " << b;
      EXPECT_EQ(r.counts[j], static_cast<std::uint64_t>(h.count[b]));
    }
    EXPECT_EQ(r.iterations, 0u);
    EXPECT_TRUE(r.converged);
    EXPECT_DOUBLE_EQ(r.inertia, std::max(within, 0.0));
  }

  // One cluster short: two bins must share, so Lloyd runs.
  o.k = m - 1;
  const nc::KMeansResult lloyd = nc::kmeans1d(xs, o);
  EXPECT_GT(lloyd.iterations, 0u);
  EXPECT_LE(lloyd.centroids.size(), m - 1);
  EXPECT_GT(lloyd.inertia, within);
}

TEST(HistogramLloyd, BinMeansOutOfOrderRunLloyd) {
  // Eighteen copies of 0.1 sum to a mean above nextafter(0.1), the one
  // value of the other populated bin. Per-bin clusters would break the
  // ascending table, so Lloyd runs although the two bins fit in k.
  std::vector<double> xs(18, 0.1);
  xs.push_back(std::nextafter(0.1, 1.0));
  nc::KMeansOptions o;
  o.max_iterations = 30;
  o.engine = nc::KMeansEngine::kHistogramLloyd;
  const auto [lo_it, hi_it] = std::minmax_element(xs.begin(), xs.end());
  const auto h = nc::weighted_histogram(xs, nc::resolve_histogram_bins(o),
                                        *lo_it, *hi_it);
  ASSERT_GT(h.sum.front() / h.count.front(), h.sum.back() / h.count.back());
  numarck::util::ThreadPool pool(1);
  o.pool = &pool;
  const nc::KMeansResult r = nc::kmeans1d(xs, o);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_TRUE(std::is_sorted(r.centroids.begin(), r.centroids.end()));
  expect_bit_identical(r, oracle_histogram_kmeans(xs, o, pool),
                       "means out of order");
}

TEST(HistogramLloydOracle, HeavyTailedSetWithFewerPopulatedBinsThanK) {
  const auto xs = heavy_tailed_ratios(1000, 3);
  const auto [lo_it, hi_it] = std::minmax_element(xs.begin(), xs.end());
  const auto h = nc::weighted_histogram(xs, 64 * 255, *lo_it, *hi_it);
  const auto populated = static_cast<std::size_t>(
      std::count_if(h.count.begin(), h.count.end(),
                    [](double c) { return c > 0.0; }));
  ASSERT_LT(populated, 255u);  // the regime where a cluster is always empty
  numarck::util::ThreadPool pool(1);
  expect_engine_matches_oracle(xs, 255, pool, "heavy-tailed n=1000");
}

TEST(HistogramLloydOracle, MultiChunkFoldAtEveryPoolSize) {
  const std::size_t grain2 = 2 * numarck::util::kParallelGrainSize;
  for (const std::size_t n : {grain2 - 1, grain2, grain2 + 1, 5 * grain2 + 7}) {
    auto xs = heavy_tailed_ratios(n, 10 + n);
    // Add a dense core so both regimes (populated bins above and below k)
    // appear in one set.
    numarck::util::Pcg32 rng(n);
    for (std::size_t i = 0; i < n; i += 3) xs[i] = rng.normal(0.02, 0.004);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      numarck::util::ThreadPool pool(threads);
      const std::string what =
          "n=" + std::to_string(n) + " threads=" + std::to_string(threads);
      expect_engine_matches_oracle(xs, 255, pool, what.c_str());
    }
  }
}

TEST(HistogramLloydOracle, DuplicateAndTwoValueSets) {
  numarck::util::ThreadPool pool(2);
  std::vector<double> dup;
  for (int i = 0; i < 900; ++i) dup.push_back(0.001 * (1 + i % 3));
  expect_engine_matches_oracle(dup, 255, pool, "three repeated values");
  std::vector<double> two(1201, -0.25);
  for (std::size_t i = 0; i < two.size(); i += 4) two[i] = 0.75;
  expect_engine_matches_oracle(two, 255, pool, "two values");
  expect_engine_matches_oracle(two, 2, pool, "two values, k=2");
  const std::vector<double> same(64, 0.125);
  expect_engine_matches_oracle(same, 255, pool, "one value");
}

TEST(HistogramLloydOracle, OneClusterAndMoreClustersThanPoints) {
  numarck::util::ThreadPool pool(1);
  const auto xs = heavy_tailed_ratios(3000, 8);
  expect_engine_matches_oracle(xs, 1, pool, "k=1");
  const auto few = heavy_tailed_ratios(40, 9);
  expect_engine_matches_oracle(few, 255, pool, "k > n");
  expect_engine_matches_oracle(few, 63, pool, "k > n, k=63");
}

TEST(HistogramLloydOracle, WeightedLloydOnDenseHistogramWithEmptyInteriorBins) {
  // Two well-separated clumps leave most interior bins empty; a hand-made
  // histogram with fractional weights exercises the distributed input shape.
  numarck::util::Pcg32 rng(12);
  std::vector<double> xs;
  for (int i = 0; i < 700; ++i) xs.push_back(rng.normal(-3.0, 0.05));
  for (int i = 0; i < 300; ++i) xs.push_back(rng.normal(4.0, 0.2));
  const auto h = nc::weighted_histogram(xs, 4096, -3.5, 5.0);
  nc::KMeansOptions o;
  o.max_iterations = 30;
  for (const std::size_t k : {1u, 7u, 63u, 255u}) {
    o.k = k;
    const std::string what = "folded, k=" + std::to_string(k);
    expect_bit_identical(nc::weighted_histogram_lloyd(h, o),
                         oracle_dense_lloyd(h, o), what.c_str());
  }

  nc::WeightedHistogram w;
  w.lo = -1.0;
  w.hi = 1.0;
  w.width = 2.0 / 40.0;
  w.count.assign(40, 0.0);
  w.sum.assign(40, 0.0);
  w.sumsq.assign(40, 0.0);
  for (const std::size_t b : {0u, 3u, 4u, 17u, 30u, 31u}) {
    const double c = w.center(b);
    w.count[b] = 2.5 + static_cast<double>(b);
    w.sum[b] = w.count[b] * c;
    w.sumsq[b] = w.count[b] * c * c;
  }
  for (const std::size_t k : {1u, 3u, 6u, 20u}) {
    o.k = k;
    const std::string what = "hand-made, k=" + std::to_string(k);
    expect_bit_identical(nc::weighted_histogram_lloyd(w, o),
                         oracle_dense_lloyd(w, o), what.c_str());
  }

  // Zero and one Lloyd rounds expose the seeds themselves. The masses put a
  // seed target exactly at the end of the first populated bin (300 of 1200
  // at k = 2), where the quantile walk must stop rather than move on.
  std::fill(w.count.begin(), w.count.end(), 0.0);
  std::fill(w.sum.begin(), w.sum.end(), 0.0);
  std::fill(w.sumsq.begin(), w.sumsq.end(), 0.0);
  for (const auto& [b, c] : {std::pair{2u, 300.0}, {9u, 300.0}, {20u, 600.0}}) {
    w.count[b] = c;
    w.sum[b] = c * w.center(b);
    w.sumsq[b] = c * w.center(b) * w.center(b);
  }
  for (const std::size_t rounds : {0u, 1u, 30u}) {
    for (const std::size_t k : {1u, 2u, 4u}) {
      o.k = k;
      o.max_iterations = rounds;
      const std::string what = "exact quantile, k=" + std::to_string(k) +
                               " rounds=" + std::to_string(rounds);
      expect_bit_identical(nc::weighted_histogram_lloyd(w, o),
                           oracle_dense_lloyd(w, o), what.c_str());
    }
  }
}
