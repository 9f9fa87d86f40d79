// Distributed 1-D K-means over the simulated message-passing runtime — the
// algorithm the paper actually ran (their MPI parallel K-means package,
// references [1] and [13]), on the production kHistogramLloyd engine.
//
// Data stays where it lives: each rank holds its local slice of the change
// ratios and only aggregates cross the network —
//   extent:    allreduce(min), allreduce(max), allreduce(point count);
//   histogram: each rank folds its slice into a local WeightedHistogram over
//              the global [min, max] and ONE summing allreduce merges the
//              three moment arrays [count | sum | sumsq] (3·H doubles).
// Every rank then runs the identical deterministic weighted Lloyd
// (weighted_histogram_lloyd) on the global histogram, so the traffic does
// not depend on the number of Lloyd iterations and every rank returns the
// identical result. On one rank the result is bit-identical to the serial
// kHistogramLloyd engine; on several it differs only by the summation order
// of the bin moments. Constant data (min == max) follows the serial rule:
// one exact centroid, zero inertia, converged.
#pragma once

#include <span>

#include "numarck/cluster/kmeans1d.hpp"
#include "numarck/mpisim/world.hpp"

namespace numarck::cluster {

struct DistributedKMeansOptions {
  std::size_t k = 255;
  std::size_t max_iterations = 30;
  double tolerance = 1e-12;
  /// Histogram resolution H; 0 = resolve_histogram_bins' default.
  std::size_t histogram_bins = 0;
};

/// Runs K-means over the union of all ranks' `local` slices. Must be called
/// collectively (every rank of `comm`, same options). Returns the same
/// result on every rank; `counts` are global populations.
KMeansResult distributed_kmeans1d(mpisim::Communicator& comm,
                                  std::span<const double> local,
                                  const DistributedKMeansOptions& opts);

}  // namespace numarck::cluster
