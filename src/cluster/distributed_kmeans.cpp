#include "numarck/cluster/distributed_kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numarck/util/expect.hpp"

namespace numarck::cluster {

namespace {

/// Local (per-rank) accumulation for one Lloyd pass; mirrors the serial
/// engine's Accum so the distributed fixpoint matches it exactly.
struct LocalPass {
  std::vector<double> sum;
  std::vector<double> cnt;  // doubles so one allreduce carries everything
  double inertia = 0.0;
  double farthest_dist = -1.0;
  double farthest_value = 0.0;
};

LocalPass local_assign(std::span<const double> xs,
                       std::span<const double> centroids) {
  LocalPass a;
  a.sum.assign(centroids.size(), 0.0);
  a.cnt.assign(centroids.size(), 0.0);
  for (double x : xs) {
    const std::size_t c = nearest_centroid(centroids, x);
    a.sum[c] += x;
    a.cnt[c] += 1.0;
    const double d = x - centroids[c];
    const double d2 = d * d;
    a.inertia += d2;
    if (d2 > a.farthest_dist) {
      a.farthest_dist = d2;
      a.farthest_value = x;
    }
  }
  return a;
}

/// kHistogramLloyd path: fold the local slice into a WeightedHistogram over
/// the already-agreed global [lo, hi], merge the three moment arrays with a
/// single summing allreduce, then run the deterministic weighted Lloyd
/// locally on every rank — no further collectives.
KMeansResult distributed_histogram_lloyd(mpisim::Communicator& comm,
                                         std::span<const double> local,
                                         const DistributedKMeansOptions& opts,
                                         double lo, double hi) {
  KMeansOptions ko;
  ko.k = opts.k;
  ko.max_iterations = opts.max_iterations;
  ko.tolerance = opts.tolerance;
  ko.histogram_bins = opts.histogram_bins;
  const std::size_t bins = opts.histogram_bins
                               ? opts.histogram_bins
                               : std::min<std::size_t>(
                                     std::max<std::size_t>(64 * opts.k, 4096),
                                     std::size_t{1} << 18);
  // Local fold. Ranks with no data still contribute a zero histogram so the
  // allreduce stays collective.
  WeightedHistogram h = weighted_histogram(local, bins, lo, hi);
  // One collective: [count | sum | sumsq].
  std::vector<double> packed;
  packed.reserve(3 * bins);
  packed.insert(packed.end(), h.count.begin(), h.count.end());
  packed.insert(packed.end(), h.sum.begin(), h.sum.end());
  packed.insert(packed.end(), h.sumsq.begin(), h.sumsq.end());
  const auto global = comm.allreduce_sum(std::span<const double>(packed));
  h.count.assign(global.begin(), global.begin() + static_cast<std::ptrdiff_t>(bins));
  h.sum.assign(global.begin() + static_cast<std::ptrdiff_t>(bins),
               global.begin() + static_cast<std::ptrdiff_t>(2 * bins));
  h.sumsq.assign(global.begin() + static_cast<std::ptrdiff_t>(2 * bins),
                 global.end());
  return weighted_histogram_lloyd(h, ko);
}

}  // namespace

KMeansResult distributed_kmeans1d(mpisim::Communicator& comm,
                                  std::span<const double> local,
                                  const DistributedKMeansOptions& opts) {
  NUMARCK_EXPECT(opts.k >= 1, "k must be >= 1");
  KMeansResult result;

  // --- global extent ---------------------------------------------------
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double x : local) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  lo = comm.allreduce_min(lo);
  hi = comm.allreduce_max(hi);
  const std::uint64_t total = comm.allreduce_sum(
      static_cast<std::uint64_t>(local.size()));
  if (total == 0) return result;
  if (lo == hi) {
    const double pad = (std::abs(lo) + 1.0) * 1e-12;
    lo -= pad;
    hi += pad;
  }

  if (opts.engine == KMeansEngine::kHistogramLloyd) {
    return distributed_histogram_lloyd(comm, local, opts, lo, hi);
  }

  // --- density-weighted seeding from a global equal-width histogram -----
  const std::size_t hist_bins =
      opts.seed_histogram_bins ? opts.seed_histogram_bins
                               : std::max<std::size_t>(4 * opts.k, 256);
  std::vector<std::uint64_t> local_counts(hist_bins, 0);
  const double width = (hi - lo) / static_cast<double>(hist_bins);
  for (double x : local) {
    auto b = static_cast<std::size_t>((x - lo) / width);
    if (b >= hist_bins) b = hist_bins - 1;
    ++local_counts[b];
  }
  const auto counts = comm.allreduce_sum(
      std::span<const std::uint64_t>(local_counts));

  std::vector<double> centroids;
  centroids.reserve(opts.k);
  {
    std::size_t bin = 0;
    double cum = 0.0;
    const double n = static_cast<double>(total);
    for (std::size_t i = 0; i < opts.k; ++i) {
      const double target =
          n * (static_cast<double>(i) + 0.5) / static_cast<double>(opts.k);
      while (bin + 1 < hist_bins &&
             cum + static_cast<double>(counts[bin]) < target) {
        cum += static_cast<double>(counts[bin]);
        ++bin;
      }
      const double in_bin = static_cast<double>(counts[bin]);
      const double frac =
          in_bin > 0.0 ? std::clamp((target - cum) / in_bin, 0.0, 1.0) : 0.5;
      centroids.push_back(lo + (static_cast<double>(bin) + frac) * width);
    }
    std::sort(centroids.begin(), centroids.end());
    centroids.erase(std::unique(centroids.begin(), centroids.end()),
                    centroids.end());
  }

  // --- Lloyd iterations with one allreduce per step ---------------------
  for (std::size_t it = 0; it < opts.max_iterations; ++it) {
    ++result.iterations;
    LocalPass pass = local_assign(local, centroids);
    // Pack [sums | counts | farthest_dist, farthest_value] into one vector
    // so each Lloyd step costs a single collective, as the MPI code does.
    std::vector<double> packed;
    packed.reserve(2 * centroids.size() + 2);
    packed.insert(packed.end(), pass.sum.begin(), pass.sum.end());
    packed.insert(packed.end(), pass.cnt.begin(), pass.cnt.end());
    packed.push_back(pass.farthest_dist);
    packed.push_back(0.0);  // placeholder: farthest handled by a max-vote
    auto global = comm.allreduce_sum(std::span<const double>(packed));
    const double global_far = comm.allreduce_max(pass.farthest_dist);
    // The rank owning the global farthest point broadcasts its value. Break
    // ties deterministically by letting every rank propose either its value
    // or -inf and taking the max (values are compared, not ranks).
    const double far_value = comm.allreduce_max(
        pass.farthest_dist == global_far ? pass.farthest_value
                                         : -std::numeric_limits<double>::infinity());

    const std::size_t k = centroids.size();
    std::vector<double> next = centroids;
    bool reseeded = false;
    double max_shift = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      const double cnt = global[k + c];
      if (cnt > 0.0) {
        next[c] = global[c] / cnt;
      } else if (!reseeded && global_far > 0.0) {
        next[c] = far_value;
        reseeded = true;
      }
      max_shift = std::max(max_shift, std::abs(next[c] - centroids[c]));
    }
    std::sort(next.begin(), next.end());
    centroids.swap(next);
    if (!reseeded && max_shift <= opts.tolerance) {
      result.converged = true;
      break;
    }
  }

  // --- final exact pass for counts/inertia -------------------------------
  LocalPass fin = local_assign(local, centroids);
  std::vector<double> packed;
  packed.insert(packed.end(), fin.cnt.begin(), fin.cnt.end());
  packed.push_back(fin.inertia);
  const auto global = comm.allreduce_sum(std::span<const double>(packed));
  result.inertia = global.back();
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    const auto cnt = static_cast<std::uint64_t>(global[c] + 0.5);
    if (cnt > 0) {
      result.centroids.push_back(centroids[c]);
      result.counts.push_back(cnt);
    }
  }
  return result;
}

}  // namespace numarck::cluster
