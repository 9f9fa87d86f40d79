// 1-D K-means used by the clustering-based approximation strategy (§II-C-3
// of the paper).
//
// The paper runs its own MPI parallel K-means over the change ratios with
// k = 2^B - 1 clusters, seeding the centroids from the equal-width histogram
// "to achieve more reliable segmentation results". This module reproduces
// that algorithm with two engines, one for production and one as the exact
// reference; distributed_kmeans.hpp runs the production engine across ranks:
//
//  * kSortedBoundary — the exact reference: data is sorted once; because
//    nearest-centroid regions in 1-D are intervals delimited by centroid
//    midpoints, each Lloyd step reduces to k binary searches over the sorted
//    array plus prefix-sum lookups, costing O(k log n) instead of the
//    textbook O(n k), and reaches the same Lloyd fixpoint. A final
//    per-point pass reports exact counts and inertia.
//
//  * kHistogramLloyd — histogram-compressed Lloyd, the production engine (the
//    core::Options default and the only one that runs across ranks): one
//    O(n + H) pass folds the data onto a fine fixed-resolution equal-width
//    grid of H bins and keeps only the m <= min(n, H) populated bins
//    (per-bin population, Σx and Σx², see WeightedHistogram). The fold is a
//    stable counting sort by bin index with one offsets array of H + 1
//    entries. When the m populated bins fit in k clusters, each bin is its
//    own cluster, centered on its mean: that partition has zero error
//    between bins, so it is the optimum at bin granularity, and no Lloyd
//    round runs (iterations = 0, converged); the bin means must ascend
//    strictly, and if FP rounding breaks that, Lloyd runs. Small learn sets
//    are the common case: a Sedov-blast snapshot gives about 1,200 ratios
//    that fill about 140 of the H = 16,320 bins at B = 8, fewer than
//    k = 255. Lloyd from quantile seeds would only approach the per-bin
//    answer, reseeding an empty cluster every round. Otherwise (m > k) Lloyd runs over the populated
//    bins via prefix sums: each round places the cuts in one O(m + k) walk,
//    plus O(m + k) in a round where a cluster is empty and must be reseeded.
//    Exactness bound: with bin width w = (max−min)/H, a bin's points are
//    within w/2 of its center, so the bin-granular assignment picks for every
//    point a centroid at most w farther than its true nearest; it can differ
//    from the exact partition only for points within w of a boundary
//    midpoint. Centroids are exact means (true Σx, not quantized positions)
//    of that w-perturbed partition, and the reported inertia satisfies
//    inertia_exact <= inertia_hist <= Σ_j (d_exact(x_j) + w)². Pick H so that
//    w is far below the user error bound E and the gap is invisible (the
//    default 64·k bins gives w ≈ range/16k at B = 8).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "numarck/util/thread_pool.hpp"

namespace numarck::cluster {

enum class KMeansEngine : std::uint8_t {
  kSortedBoundary,   ///< O(n log n) once + O(k log n) per iteration, exact
  kHistogramLloyd,   ///< O(n + H) once + O(m + k) per iteration (m populated
                     ///< bins; none when m <= k), resolution-bounded
};

enum class KMeansInit : std::uint8_t {
  /// The paper's seeding ("prior-knowledge from the equal-width histogram"),
  /// implemented as density-weighted placement: a fine equal-width histogram
  /// acts as the density estimate and the k seeds sit at its mass quantiles.
  kEqualWidthHistogram,
  /// Naive reading of the same phrase: seeds at the k equal-width bin
  /// centers. Kept for the ablation bench — in 1-D, Lloyd cannot migrate
  /// centroids across a dense core, so this seeding stays near-equal-width
  /// and loses badly on irregular data.
  kBinCenters,
  /// k-quantiles of the raw data (exact, needs a sort; extension).
  kQuantile,
};

struct KMeansOptions {
  std::size_t k = 255;
  std::size_t max_iterations = 50;
  double tolerance = 1e-12;       ///< max centroid shift to declare convergence
  KMeansEngine engine = KMeansEngine::kSortedBoundary;
  KMeansInit init = KMeansInit::kEqualWidthHistogram;
  /// kHistogramLloyd resolution H; 0 = resolve_histogram_bins' default. Bin
  /// width w = range/H is the engine's exactness knob (see file header).
  std::size_t histogram_bins = 0;
  numarck::util::ThreadPool* pool = nullptr;  ///< null -> process-global pool
};

struct KMeansResult {
  std::vector<double> centroids;       ///< ascending, size <= k (empty clusters dropped)
  std::vector<std::uint64_t> counts;   ///< population per centroid
  double inertia = 0.0;                ///< sum of squared distances to assigned centroid
  std::size_t iterations = 0;          ///< Lloyd iterations actually run
  bool converged = false;
};

/// The kHistogramLloyd resolution H for `opts`: opts.histogram_bins when set,
/// else max(64 k, 4096) capped at 2^18. The serial and distributed histogram
/// paths both size their grid here.
std::size_t resolve_histogram_bins(const KMeansOptions& opts);

/// Runs K-means over xs. kSortedBoundary handles n < k by returning one
/// centroid per distinct value; kHistogramLloyd returns one centroid per
/// populated bin whenever those bins fit in k (n < k included), with
/// iterations = 0. Empty clusters are reseeded once per round to the point
/// (bin center) farthest from its centroid; clusters still empty at
/// convergence are dropped from the result.
KMeansResult kmeans1d(std::span<const double> xs, const KMeansOptions& opts);

/// Index of the nearest centroid (centroids must be sorted ascending and
/// non-empty — an empty table throws ContractViolation; there is no valid
/// index to return). O(log k). Tie-break: a point exactly at the midpoint of
/// two adjacent centroids resolves to the LOWER centroid — the comparison is
/// (x - lo) <= (hi - x), and BinLookup / the sorted-boundary engine use the
/// same rule so all assignment paths agree bit-for-bit.
std::size_t nearest_centroid(std::span<const double> centroids, double x);

/// Sufficient statistics of a data set folded onto a fixed equal-width grid:
/// per-bin population, Σx and Σx² (all doubles so a distributed run can ship
/// the three arrays through one summing allreduce). This is the input of the
/// kHistogramLloyd engine; ranks that sum their local WeightedHistograms
/// element-wise obtain the global one.
struct WeightedHistogram {
  double lo = 0.0;     ///< left edge of bin 0
  double hi = 0.0;     ///< right edge of the last bin
  double width = 0.0;  ///< (hi - lo) / bins
  std::vector<double> count;  ///< per-bin population
  std::vector<double> sum;    ///< per-bin Σx
  std::vector<double> sumsq;  ///< per-bin Σx²

  [[nodiscard]] std::size_t bins() const noexcept { return count.size(); }
  [[nodiscard]] double center(std::size_t b) const noexcept {
    return lo + (static_cast<double>(b) + 0.5) * width;
  }
};

/// Folds xs into `bins` equal-width bins over [lo, hi] in one O(n + bins)
/// pass (values outside the range clamp to the edge bins). Requires lo < hi.
/// The chunk decomposition of the per-bin sums is pinned to the machine, not
/// the pool, so the (floating-point) moment sums are identical for every
/// thread count.
WeightedHistogram weighted_histogram(std::span<const double> xs,
                                     std::size_t bins, double lo, double hi,
                                     numarck::util::ThreadPool* pool = nullptr);

/// Weighted Lloyd over a prebuilt histogram: the kHistogramLloyd iteration
/// after an O(H) pass that drops the empty bins. Populated bins that fit in
/// opts.k are returned as their own clusters; otherwise density-quantile
/// seeding from the bin masses, then up to opts.max_iterations Lloyd steps
/// over the populated bins. A bin with zero population must carry zero moments, as any
/// fold produces. Deterministic — depends only on the histogram contents,
/// never on thread count, so every rank of a distributed run computes the
/// identical result from the allreduced histogram. opts.engine/init/pool are
/// ignored.
KMeansResult weighted_histogram_lloyd(const WeightedHistogram& h,
                                      const KMeansOptions& opts);

}  // namespace numarck::cluster
