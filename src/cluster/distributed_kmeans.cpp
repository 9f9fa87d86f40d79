#include "numarck/cluster/distributed_kmeans.hpp"

#include <algorithm>
#include <limits>

#include "numarck/util/expect.hpp"

namespace numarck::cluster {

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
  if (lo >= hi) {
    // Degenerate: every value identical — one exact centroid, zero inertia,
    // as the serial engine returns.
    result.centroids.push_back(lo);
    result.counts.push_back(total);
    result.converged = true;
    return result;
  }

  // --- one collective: the global weighted histogram -------------------
  KMeansOptions ko;
  ko.k = opts.k;
  ko.max_iterations = opts.max_iterations;
  ko.tolerance = opts.tolerance;
  ko.histogram_bins = opts.histogram_bins;
  const std::size_t bins = resolve_histogram_bins(ko);
  // Ranks with no data still contribute a zero histogram so the allreduce
  // stays collective.
  WeightedHistogram h = weighted_histogram(local, bins, lo, hi);
  std::vector<double> packed;
  packed.reserve(3 * bins);
  packed.insert(packed.end(), h.count.begin(), h.count.end());
  packed.insert(packed.end(), h.sum.begin(), h.sum.end());
  packed.insert(packed.end(), h.sumsq.begin(), h.sumsq.end());
  const auto global = comm.allreduce_sum(std::span<const double>(packed));
  const auto at = [&global](std::size_t i) {
    return global.begin() + static_cast<std::ptrdiff_t>(i);
  };
  h.count.assign(at(0), at(bins));
  h.sum.assign(at(bins), at(2 * bins));
  h.sumsq.assign(at(2 * bins), global.end());
  return weighted_histogram_lloyd(h, ko);
}

}  // namespace numarck::cluster
