#include "numarck/cluster/kmeans1d.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "numarck/cluster/histogram.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/parallel_for.hpp"

namespace numarck::cluster {

namespace {

using numarck::util::ThreadPool;

ThreadPool& pool_or_global(ThreadPool* p) {
  return p ? *p : ThreadPool::global();
}

std::vector<double> init_centroids(std::span<const double> xs,
                                   const KMeansOptions& opts, ThreadPool& pool) {
  std::vector<double> c;
  c.reserve(opts.k);
  switch (opts.init) {
    case KMeansInit::kEqualWidthHistogram: {
      // Paper seeding ("prior-knowledge from the equal-width histogram"):
      // an equal-width histogram (finer than k) serves as a density
      // estimate, and the k seeds are placed at its mass quantiles, with
      // linear interpolation inside bins. Density-weighted placement is what
      // makes the clustering strategy adapt to "multiple dense areas spread
      // unevenly" (§II-C-3) within few Lloyd iterations — plain bin-center
      // seeding cannot migrate centroids across a dense core in 1-D.
      const std::size_t hist_bins = std::max<std::size_t>(4 * opts.k, 256);
      Histogram h = equal_width_histogram(xs, hist_bins, &pool);
      if (h.total == 0) break;
      const double total = static_cast<double>(h.total);
      std::size_t bin = 0;
      double cum = 0.0;  // mass strictly before current bin
      for (std::size_t i = 0; i < opts.k; ++i) {
        const double target =
            total * (static_cast<double>(i) + 0.5) / static_cast<double>(opts.k);
        while (bin + 1 < h.bins() &&
               cum + static_cast<double>(h.counts[bin]) < target) {
          cum += static_cast<double>(h.counts[bin]);
          ++bin;
        }
        const double in_bin = static_cast<double>(h.counts[bin]);
        const double frac =
            in_bin > 0.0 ? std::clamp((target - cum) / in_bin, 0.0, 1.0) : 0.5;
        c.push_back(h.edges[bin] + frac * (h.edges[bin + 1] - h.edges[bin]));
      }
      break;
    }
    case KMeansInit::kBinCenters: {
      Histogram h = equal_width_histogram(xs, opts.k, &pool);
      c = h.centers;
      break;
    }
    case KMeansInit::kQuantile: {
      std::vector<double> sorted(xs.begin(), xs.end());
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t i = 0; i < opts.k; ++i) {
        const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(opts.k);
        const auto idx = static_cast<std::size_t>(
            q * static_cast<double>(sorted.size() - 1) + 0.5);
        c.push_back(sorted[idx]);
      }
      break;
    }
  }
  std::sort(c.begin(), c.end());
  // Collapse exact duplicates (possible with quantile init on skewed data);
  // Lloyd cannot separate identical centroids.
  c.erase(std::unique(c.begin(), c.end()), c.end());
  return c;
}

/// Per-cluster accumulators for one assignment pass.
struct Accum {
  std::vector<double> sum;
  std::vector<std::uint64_t> cnt;
  double inertia = 0.0;

  explicit Accum(std::size_t k) : sum(k, 0.0), cnt(k, 0) {}
  Accum() = default;

  void merge(const Accum& o) {
    for (std::size_t i = 0; i < sum.size(); ++i) {
      sum[i] += o.sum[i];
      cnt[i] += o.cnt[i];
    }
    inertia += o.inertia;
  }
};

/// One parallel nearest-centroid assignment + accumulation pass: returns
/// merged per-cluster sums/counts and the total inertia.
Accum assign_pass(std::span<const double> xs, std::span<const double> centroids,
                  ThreadPool& pool) {
  const std::size_t k = centroids.size();
  return numarck::util::parallel_reduce<Accum>(
      pool, 0, xs.size(), Accum(k),
      [&xs, centroids, k](std::size_t i0, std::size_t i1) {
        Accum a(k);
        for (std::size_t i = i0; i < i1; ++i) {
          const double x = xs[i];
          const std::size_t c = nearest_centroid(centroids, x);
          a.sum[c] += x;
          ++a.cnt[c];
          const double d = x - centroids[c];
          const double d2 = d * d;
          a.inertia += d2;
        }
        return a;
      },
      [](Accum a, Accum b) {
        a.merge(b);
        return a;
      });
}

/// Exact sorted-boundary engine. Requires xs sorted ascending and a prefix-sum
/// array; each Lloyd step finds, for every pair of adjacent centroids, the
/// boundary midpoint via binary search and updates means from prefix sums.
KMeansResult sorted_boundary(std::span<const double> xs, const KMeansOptions& opts,
                             std::vector<double> centroids, ThreadPool& pool) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  std::vector<double> prefix(n + 1, 0.0);
  std::partial_sum(sorted.begin(), sorted.end(), prefix.begin() + 1);

  KMeansResult r;
  std::vector<std::size_t> bounds(centroids.size() + 1);
  std::vector<std::uint64_t> counts(centroids.size(), 0);
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    ++r.iterations;
    const std::size_t k = centroids.size();
    bounds.assign(k + 1, 0);
    bounds[k] = n;
    for (std::size_t c = 1; c < k; ++c) {
      const double mid = 0.5 * (centroids[c - 1] + centroids[c]);
      // Points < mid belong to c-1; ties (== mid) resolve to the lower
      // centroid, matching nearest_centroid.
      bounds[c] = static_cast<std::size_t>(
          std::upper_bound(sorted.begin(), sorted.end(), mid) - sorted.begin());
    }
    bool reseeded = false;
    double max_shift = 0.0;
    std::vector<double> next = centroids;
    for (std::size_t c = 0; c < k; ++c) {
      const std::size_t i0 = bounds[c];
      const std::size_t i1 = bounds[c + 1];
      counts[c] = i1 - i0;
      if (i1 > i0) {
        next[c] = (prefix[i1] - prefix[i0]) / static_cast<double>(i1 - i0);
      } else if (!reseeded) {
        // Reseed the empty cluster to the sorted extreme farthest from its
        // nearest populated centroid.
        const double lo_d = std::abs(sorted.front() -
                                     centroids[nearest_centroid(centroids, sorted.front())]);
        const double hi_d = std::abs(sorted.back() -
                                     centroids[nearest_centroid(centroids, sorted.back())]);
        next[c] = lo_d > hi_d ? sorted.front() : sorted.back();
        reseeded = true;
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
  // Final exact per-point pass for counts and inertia.
  Accum fin = assign_pass(xs, centroids, pool);
  r.inertia = fin.inertia;
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    if (fin.cnt[c] > 0) {
      r.centroids.push_back(centroids[c]);
      r.counts.push_back(fin.cnt[c]);
    }
  }
  return r;
}

/// The populated bins of an equal-width grid, ascending by grid index, with
/// their moments — everything the histogram Lloyd reads. An empty bin only
/// adds +0.0 to a total or prefix sum (no accumulator here can hold -0.0),
/// so leaving it out changes no bit of the result.
struct PopulatedBins {
  double lo = 0.0;       ///< left edge of grid bin 0
  double width = 0.0;    ///< grid bin width
  std::size_t bins = 0;  ///< grid size H (populated or not)
  std::vector<std::uint32_t> bin;  ///< grid index per listed bin, ascending
  std::vector<double> count, sum, sumsq;

  [[nodiscard]] std::size_t size() const noexcept { return bin.size(); }
  /// Same expression as WeightedHistogram::center.
  [[nodiscard]] double center(std::size_t b) const noexcept {
    return lo + (static_cast<double>(b) + 0.5) * width;
  }
  void push(std::size_t b, double cnt, double s, double q) {
    bin.push_back(static_cast<std::uint32_t>(b));
    count.push_back(cnt);
    sum.push_back(s);
    sumsq.push_back(q);
  }
};

/// Folds xs onto `bins` equal-width bins over [lo, hi] (values outside clamp
/// to the edge bins) and lists the populated ones. O(n + H): a stable
/// counting sort by bin index (one offsets array of H + 1 entries) groups
/// each bin's points in index order; a bin's Σx and Σx² then accumulate per
/// chunk of a ChunkPlan pinned to the machine, not the pool, and the chunk
/// partials merge in chunk order, so every per-bin sum is identical for
/// every thread count.
PopulatedBins fold_populated(std::span<const double> xs, std::size_t bins,
                             double lo, double hi, ThreadPool& pool) {
  NUMARCK_EXPECT(bins >= 1, "weighted histogram needs at least one bin");
  NUMARCK_EXPECT(lo < hi, "weighted histogram: range must be non-degenerate");
  const std::size_t n = xs.size();
  NUMARCK_EXPECT(n < std::numeric_limits<std::uint32_t>::max() &&
                     bins < std::numeric_limits<std::uint32_t>::max(),
                 "weighted histogram: point or bin count exceeds 32-bit "
                 "offsets");
  PopulatedBins p;
  p.lo = lo;
  p.width = (hi - lo) / static_cast<double>(bins);
  p.bins = bins;
  const double inv_width = static_cast<double>(bins) / (hi - lo);

  std::vector<std::uint32_t> bin_of(n);
  numarck::util::parallel_chunks(
      pool, numarck::util::ChunkPlan(0, n, pool.size()),
      [&](std::size_t, std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const double est = (xs[i] - lo) * inv_width;
          bin_of[i] = static_cast<std::uint32_t>(
              est <= 0.0 ? 0
                         : std::min(bins - 1, static_cast<std::size_t>(est)));
        }
      });
  std::vector<std::uint32_t> offset(bins + 1, 0);
  for (const std::uint32_t b : bin_of) ++offset[b + 1];
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[offset[bin_of[i]]++] = static_cast<std::uint32_t>(i);
  }

  const numarck::util::ChunkPlan plan(
      0, n,
      numarck::util::effective_workers(std::thread::hardware_concurrency() +
                                       1));
  for (std::size_t j = 0; j < n;) {
    const std::uint32_t b = bin_of[order[j]];
    double cnt = 0.0, sum = 0.0, sumsq = 0.0;
    while (j < n && bin_of[order[j]] == b) {
      // One chunk's share of the bin, summed in point order.
      const std::size_t chunk_end = (order[j] / plan.step + 1) * plan.step;
      double s = 0.0, q = 0.0;
      for (; j < n && bin_of[order[j]] == b && order[j] < chunk_end; ++j) {
        const double x = xs[order[j]];
        cnt += 1.0;
        s += x;
        q += x * x;
      }
      sum += s;
      sumsq += q;
    }
    p.push(b, cnt, sum, sumsq);
  }
  return p;
}

/// Density-quantile seeds from the bin masses — the same "prior knowledge
/// from the equal-width histogram" placement init_centroids uses, read off
/// the (finer) Lloyd histogram instead of a separate pass. The walk visits
/// populated bins only: an empty bin never holds a quantile, and the mass
/// before the end of the last populated bin is the total, above every
/// target, so the walk never runs past it.
std::vector<double> seeds_from_bins(const PopulatedBins& p, std::size_t k,
                                    double total) {
  std::vector<double> c;
  c.reserve(k);
  std::size_t j = 0;
  double cum = 0.0;  // mass strictly before bin j
  for (std::size_t i = 0; i < k; ++i) {
    const double target =
        total * (static_cast<double>(i) + 0.5) / static_cast<double>(k);
    while (j + 1 < p.size() && cum + p.count[j] < target) {
      cum += p.count[j];
      ++j;
    }
    const double frac = std::clamp((target - cum) / p.count[j], 0.0, 1.0);
    c.push_back(p.lo + (static_cast<double>(p.bin[j]) + frac) * p.width);
  }
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  return c;
}

/// First grid bin whose center is strictly above `mid` (bins with center
/// <= mid belong to the lower cluster, matching nearest_centroid's
/// tie-to-lower rule). The affine guess is within one slot; the scan repairs
/// FP residue.
std::size_t boundary_bin(const PopulatedBins& p, double mid) {
  const double est = (mid - p.lo) / p.width + 0.5;
  std::size_t cut =
      est <= 0.0 ? 0 : std::min(p.bins, static_cast<std::size_t>(est));
  while (cut > 0 && p.center(cut - 1) > mid) --cut;
  while (cut < p.bins && p.center(cut) <= mid) ++cut;
  return cut;
}

/// The populated bin center farthest from its nearest centroid, as
/// (squared distance, center); the distance is 0 when every center sits on a
/// centroid. Centers ascend with the list, so the nearest centroid comes
/// from one monotone walk under nearest_centroid's rule (first centroid
/// >= x, ties to the lower): O(m + k).
std::pair<double, double> farthest_center(const PopulatedBins& p,
                                          std::span<const double> centroids) {
  const std::size_t k = centroids.size();
  double far_d = 0.0, far_v = 0.0;
  std::size_t hi = 0;  // first centroid >= x
  for (std::size_t j = 0; j < p.size(); ++j) {
    const double x = p.center(p.bin[j]);
    while (hi < k && centroids[hi] < x) ++hi;
    const std::size_t c =
        hi == 0   ? 0
        : hi == k ? k - 1
                  : ((x - centroids[hi - 1]) <= (centroids[hi] - x) ? hi - 1
                                                                     : hi);
    const double d = x - centroids[c];
    if (d * d > far_d) {
      far_d = d * d;
      far_v = x;
    }
  }
  return {far_d, far_v};
}

/// One cluster per populated bin, centered on the bin's mean: with zero
/// error between bins, the best partition at bin granularity. False (and r
/// untouched) when FP rounding leaves a bin mean at or below its left
/// neighbour's, since the table must ascend strictly; the caller then runs
/// Lloyd, whose rounds sort.
bool bins_as_clusters(const PopulatedBins& p, KMeansResult& r) {
  for (std::size_t j = 1; j < p.size(); ++j) {
    if (p.sum[j] / p.count[j] <= p.sum[j - 1] / p.count[j - 1]) return false;
  }
  for (std::size_t j = 0; j < p.size(); ++j) {
    const double cent = p.sum[j] / p.count[j];
    r.inertia += p.sumsq[j] - 2.0 * cent * p.sum[j] + cent * cent * p.count[j];
    r.centroids.push_back(cent);
    r.counts.push_back(static_cast<std::uint64_t>(p.count[j] + 0.5));
  }
  r.inertia = std::max(r.inertia, 0.0);
  r.converged = true;
  return true;
}

/// Weighted Lloyd over the populated bins. When the m populated bins fit in
/// k clusters, each is its own cluster (bins_as_clusters) and no round runs.
/// Otherwise prefix sums over the m listed bins make a cluster's statistics
/// O(1) differences; each round places k cuts in grid space (boundary_bin)
/// and maps them to list positions in one walk, O(m + k), plus O(m + k) for
/// the reseed walk in rounds where a cluster is empty.
KMeansResult populated_lloyd(const PopulatedBins& p,
                             const KMeansOptions& opts) {
  KMeansResult r;
  const std::size_t m = p.size();
  double total = 0.0;
  for (double c : p.count) total += c;
  if (total <= 0.0) return r;
  if (m <= opts.k && bins_as_clusters(p, r)) return r;

  std::vector<double> pc(m + 1, 0.0), ps(m + 1, 0.0), pq(m + 1, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    pc[j + 1] = pc[j] + p.count[j];
    ps[j + 1] = ps[j] + p.sum[j];
    pq[j + 1] = pq[j] + p.sumsq[j];
  }

  std::vector<double> centroids = seeds_from_bins(p, opts.k, total);
  if (centroids.empty()) return r;

  std::vector<std::size_t> cuts(centroids.size() + 1);
  const auto place_cuts = [&](const std::vector<double>& cents) {
    const std::size_t k = cents.size();
    cuts[0] = 0;
    cuts[k] = m;
    std::size_t grid_cut = 0;
    std::size_t j = 0;  // first listed bin at or above grid_cut
    for (std::size_t c = 1; c < k; ++c) {
      const double mid = 0.5 * (cents[c - 1] + cents[c]);
      grid_cut = std::max(boundary_bin(p, mid), grid_cut);
      while (j < m && p.bin[j] < grid_cut) ++j;
      cuts[c] = j;
    }
  };

  std::vector<double> next(centroids.size());
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    ++r.iterations;
    place_cuts(centroids);
    const std::size_t k = centroids.size();
    std::copy(centroids.begin(), centroids.end(), next.begin());
    bool reseeded = false;
    bool far_known = false;
    std::pair<double, double> far{0.0, 0.0};
    double max_shift = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      const double cnt = pc[cuts[c + 1]] - pc[cuts[c]];
      if (cnt > 0.0) {
        next[c] = (ps[cuts[c + 1]] - ps[cuts[c]]) / cnt;
      } else if (!reseeded) {
        // Reseed to the populated bin center farthest from its nearest
        // centroid (the farthest-point repair at bin granularity). The walk
        // depends only on this round's centroids, so it runs at most once.
        if (!far_known) {
          far = farthest_center(p, centroids);
          far_known = true;
        }
        if (far.first > 0.0) {
          next[c] = far.second;
          reseeded = true;
        }
      }
      max_shift = std::max(max_shift, std::abs(next[c] - centroids[c]));
    }
    // Cluster means ascend with their bin ranges; only a reseed or an empty
    // cluster's kept centroid can land out of order, so an insertion pass
    // sorts in about O(k).
    for (std::size_t c = 1; c < k; ++c) {
      const double v = next[c];
      std::size_t i = c;
      for (; i > 0 && next[i - 1] > v; --i) next[i] = next[i - 1];
      next[i] = v;
    }
    centroids.swap(next);
    if (!reseeded && max_shift <= opts.tolerance) {
      r.converged = true;
      break;
    }
  }

  // Final statistics straight from the prefix sums — no per-point pass. The
  // counts are exact (every point lives in exactly one bin) and the inertia
  // uses the true per-bin second moments, so it is exact for the
  // bin-granular partition (see the header's resolution bound).
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
  // Σx² - 2cΣx + c²n can land a hair below zero in FP for razor-thin
  // clusters; clamp so callers can rely on inertia >= 0.
  r.inertia = std::max(r.inertia, 0.0);
  return r;
}

/// Histogram-compressed engine: fold the data onto a fine equal-width grid
/// in one O(n + H) pass, then run weighted Lloyd over the populated bins.
KMeansResult histogram_lloyd(std::span<const double> xs,
                             const KMeansOptions& opts, ThreadPool& pool) {
  using P = std::pair<double, double>;
  const P mm = numarck::util::parallel_reduce<P>(
      pool, 0, xs.size(),
      P{std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()},
      [&xs](std::size_t i0, std::size_t i1) {
        P r{std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity()};
        for (std::size_t i = i0; i < i1; ++i) {
          r.first = std::min(r.first, xs[i]);
          r.second = std::max(r.second, xs[i]);
        }
        return r;
      },
      [](P a, P b) {
        return P{std::min(a.first, b.first), std::max(a.second, b.second)};
      });
  KMeansResult r;
  if (mm.first >= mm.second) {
    // Degenerate: every value identical — one exact centroid, zero inertia.
    r.centroids.push_back(mm.first);
    r.counts.push_back(xs.size());
    r.converged = true;
    return r;
  }
  return populated_lloyd(
      fold_populated(xs, resolve_histogram_bins(opts), mm.first, mm.second,
                     pool),
      opts);
}

}  // namespace

std::size_t resolve_histogram_bins(const KMeansOptions& opts) {
  if (opts.histogram_bins != 0) return opts.histogram_bins;
  return std::min<std::size_t>(std::max<std::size_t>(64 * opts.k, 4096),
                               std::size_t{1} << 18);
}

std::size_t nearest_centroid(std::span<const double> centroids, double x) {
  NUMARCK_EXPECT(!centroids.empty(),
                 "nearest_centroid: empty centroid table has no nearest index");
  const std::size_t k = centroids.size();
  if (k <= 1) return 0;
  const auto it = std::lower_bound(centroids.begin(), centroids.end(), x);
  if (it == centroids.begin()) return 0;
  if (it == centroids.end()) return k - 1;
  const std::size_t hi = static_cast<std::size_t>(it - centroids.begin());
  const std::size_t lo = hi - 1;
  // Ties go to the lower centroid.
  return (x - centroids[lo]) <= (centroids[hi] - x) ? lo : hi;
}

KMeansResult kmeans1d(std::span<const double> xs, const KMeansOptions& opts) {
  NUMARCK_EXPECT(opts.k >= 1, "k must be >= 1");
  KMeansResult r;
  if (xs.empty()) return r;
  auto& pool = pool_or_global(opts.pool);

  // The histogram engine owns its seeding (density quantiles of the same
  // fine histogram it iterates over), so it skips init_centroids entirely —
  // that keeps it at exactly one O(n) pass over the data.
  if (opts.engine == KMeansEngine::kHistogramLloyd) {
    return histogram_lloyd(xs, opts, pool);
  }

  std::vector<double> seeds = init_centroids(xs, opts, pool);
  if (seeds.empty()) return r;

  return sorted_boundary(xs, opts, std::move(seeds), pool);
}

WeightedHistogram weighted_histogram(std::span<const double> xs,
                                     std::size_t bins, double lo, double hi,
                                     numarck::util::ThreadPool* pool) {
  const PopulatedBins p =
      fold_populated(xs, bins, lo, hi, pool_or_global(pool));
  WeightedHistogram h;
  h.lo = lo;
  h.hi = hi;
  h.width = p.width;
  h.count.assign(bins, 0.0);
  h.sum.assign(bins, 0.0);
  h.sumsq.assign(bins, 0.0);
  for (std::size_t j = 0; j < p.size(); ++j) {
    h.count[p.bin[j]] = p.count[j];
    h.sum[p.bin[j]] = p.sum[j];
    h.sumsq[p.bin[j]] = p.sumsq[j];
  }
  return h;
}

KMeansResult weighted_histogram_lloyd(const WeightedHistogram& h,
                                      const KMeansOptions& opts) {
  NUMARCK_EXPECT(opts.k >= 1, "k must be >= 1");
  const std::size_t bins = h.bins();
  NUMARCK_EXPECT(h.sum.size() == bins && h.sumsq.size() == bins,
                 "weighted histogram: moment arrays disagree on bin count");
  NUMARCK_EXPECT(bins < std::numeric_limits<std::uint32_t>::max(),
                 "weighted histogram: bin count exceeds 32-bit indices");
  PopulatedBins p;
  p.lo = h.lo;
  p.width = h.width;
  p.bins = bins;
  for (std::size_t b = 0; b < bins; ++b) {
    if (h.count[b] > 0.0) p.push(b, h.count[b], h.sum[b], h.sumsq[b]);
  }
  return populated_lloyd(p, opts);
}

}  // namespace numarck::cluster
