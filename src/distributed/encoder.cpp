#include "numarck/distributed/encoder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numarck/cluster/distributed_kmeans.hpp"
#include "numarck/core/change_ratio.hpp"
#include "numarck/metrics/metrics.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/parallel_for.hpp"

namespace numarck::distributed {

namespace {

/// The same learn-set filter as core::encode_iteration's stage 2, with the
/// same stride sampling: every stride-th needs-bin ratio by *local* ordinal.
/// (The local ordinal is rank-deterministic, so the global learn set is a
/// pure function of the data partitioning — independent of thread counts.)
std::vector<double> build_learn_set(std::span<const double> prev,
                                    std::span<const double> curr,
                                    const core::ChangeRatios& cr,
                                    const core::Options& opts) {
  const double E = opts.error_bound;
  const double small = opts.resolved_small_value_threshold();
  const auto stride = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(1.0 / opts.sampling_ratio)));
  std::vector<double> learn;
  learn.reserve(cr.defined_count / stride + 1);
  std::size_t ordinal = 0;
  for (std::size_t j = 0; j < prev.size(); ++j) {
    if (!cr.valid[j] || std::abs(cr.ratio[j]) < E) continue;
    if (small > 0.0 && std::abs(curr[j]) < small && std::abs(prev[j]) <= small) {
      continue;
    }
    if (ordinal % stride == 0) learn.push_back(cr.ratio[j]);
    ++ordinal;
  }
  return learn;
}

core::BinModel learn_global_model(mpisim::Communicator& comm,
                                  std::span<const double> learn,
                                  const core::Options& opts) {
  const std::size_t bins = opts.max_bins();
  switch (opts.strategy) {
    case core::Strategy::kEqualWidth: {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (double r : learn) {
        lo = std::min(lo, r);
        hi = std::max(hi, r);
      }
      lo = comm.allreduce_min(lo);
      hi = comm.allreduce_max(hi);
      if (!(lo <= hi)) return {};  // nobody had a ratio to learn from
      return core::equal_width_from_range(lo, hi, bins);
    }
    case core::Strategy::kLogScale: {
      core::LogScaleSides sides;
      for (double r : learn) {
        const double mag = std::abs(r);
        if (mag < opts.error_bound) continue;
        if (r < 0.0) {
          ++sides.neg_count;
          sides.neg_max = std::max(sides.neg_max, mag);
        } else {
          ++sides.pos_count;
          sides.pos_max = std::max(sides.pos_max, mag);
        }
      }
      sides.neg_count = comm.allreduce_sum(sides.neg_count);
      sides.pos_count = comm.allreduce_sum(sides.pos_count);
      sides.neg_max = comm.allreduce_max(sides.neg_max);
      sides.pos_max = comm.allreduce_max(sides.pos_max);
      core::BinModel m =
          core::log_scale_from_sides(sides, bins, opts.error_bound);
      m.strategy = core::Strategy::kLogScale;
      return m;
    }
    case core::Strategy::kClustering: {
      cluster::DistributedKMeansOptions ko;
      ko.k = bins;
      ko.max_iterations = opts.kmeans_max_iterations;
      ko.histogram_bins = opts.kmeans_histogram_bins;
      const auto r = cluster::distributed_kmeans1d(comm, learn, ko);
      core::BinModel m;
      m.strategy = core::Strategy::kClustering;
      m.centers = r.centroids;
      return m;
    }
  }
  return {};
}

}  // namespace

EncodeResult encode_iteration(mpisim::Communicator& comm,
                              std::span<const double> previous_local,
                              std::span<const double> current_local,
                              const core::Options& opts) {
  opts.validate();
  NUMARCK_EXPECT(previous_local.size() == current_local.size(),
                 "distributed encode: partition size mismatch");
  EncodeResult out;

  // Stage 1 (local): forward predictive coding.
  const core::ChangeRatios cr =
      core::compute_change_ratios(previous_local, current_local);

  // Stage 2 (collective): learn the global table.
  const std::vector<double> learn =
      build_learn_set(previous_local, current_local, cr, opts);
  const core::BinModel model = learn_global_model(comm, learn, opts);

  // Stage 3 (local): encode the partition with the shared table.
  out.local = core::encode_iteration_with_model(previous_local, current_local,
                                                model, opts);

  // Aggregate metrics (one small allreduce): [points | exact points | one
  // error-sum slot per rank]. The counts are exact in any arrival order. A
  // rank writes only its own error slot, so the allreduce adds nothing but
  // zeros to it; the ranks' error sums then combine in rank order through
  // the same fixed-block reduction as the local stats, never in the order
  // the ranks happened to arrive.
  const auto& st = out.local.stats;
  const double n_local = static_cast<double>(st.total_points);
  std::vector<double> packed(2 + static_cast<std::size_t>(comm.size()), 0.0);
  packed[0] = n_local;
  packed[1] = static_cast<double>(st.exact_total());
  packed[2 + static_cast<std::size_t>(comm.rank())] =
      st.mean_ratio_error * n_local;
  const auto agg = comm.allreduce_sum(std::span<const double>(packed));
  const double err_sum = util::block_reduce<double>(
      opts.pool ? *opts.pool : util::ThreadPool::global(), 2, agg.size(), 0.0,
      [&agg](std::size_t i0, std::size_t i1) {
        double s = 0.0;
        for (std::size_t i = i0; i < i1; ++i) s += agg[i];
        return s;
      },
      [](double a, double b) { return a + b; });
  out.global_max_error = comm.allreduce_max(st.max_ratio_error);
  out.global_points = static_cast<std::uint64_t>(agg[0] + 0.5);
  const double n = agg[0];
  out.global_gamma = n > 0 ? agg[1] / n : 0.0;
  out.global_mean_error = n > 0 ? err_sum / n : 0.0;

  // Paper Eq. 3, table charged once.
  if (out.global_points > 0) {
    out.global_paper_ratio = metrics::numarck_compression_ratio_percent(
        out.global_points, out.global_gamma, opts.index_bits);
  }
  return out;
}

}  // namespace numarck::distributed
