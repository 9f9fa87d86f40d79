// Ablation study for the clustering strategy's design choices (DESIGN.md):
//  1. seeding — density-weighted histogram quantiles (our reading of the
//     paper's "prior-knowledge from the equal-width histogram") vs naive
//     bin-center seeding vs exact data quantiles;
//  2. engine — the exact O(n log n + k log n·iter) sorted-boundary
//     reference vs the O(n + H + k log m·iter) histogram-compressed
//     production engine (resolution-bounded, see kmeans1d.hpp);
//  3. Lloyd iteration budget;
//  4. histogram resolution H — the kHistogramLloyd exactness knob.
// Reported: incompressible ratio achieved by the resulting NUMARCK encode,
// K-means inertia, and wall time.
#include <cstdio>

#include "harness_common.hpp"
#include "numarck/cluster/kmeans1d.hpp"
#include "numarck/core/bin_model.hpp"
#include "numarck/core/change_ratio.hpp"
#include "numarck/util/timer.hpp"

namespace {

using namespace numarck;

/// gamma achieved when the given centroids are used as the bin table.
double gamma_with_centers(const std::vector<double>& ratios,
                          const std::vector<double>& centers, double E) {
  if (centers.empty()) return 1.0;
  core::BinModel m;
  m.centers = centers;
  std::size_t bad = 0;
  for (double r : ratios) {
    if (std::abs(m.centers[m.nearest(r)] - r) > E) ++bad;
  }
  return static_cast<double>(bad) / static_cast<double>(ratios.size());
}

}  // namespace

int main() {
  using namespace numarck;
  std::printf("=== K-means ablation (clustering strategy internals) ===\n\n");

  // The hard workload: rlds change ratios (dense core + heavy tails).
  const auto snaps = bench::climate_series(sim::climate::Variable::kRlds, 8);
  std::vector<double> ratios;
  for (std::size_t it = 1; it < snaps.size(); ++it) {
    const auto cr = core::compute_change_ratios(snaps[it - 1], snaps[it]);
    for (std::size_t j = 0; j < cr.ratio.size(); ++j) {
      if (cr.valid[j] && std::abs(cr.ratio[j]) >= 0.001) {
        ratios.push_back(cr.ratio[j]);
      }
    }
  }
  std::printf("workload: %zu rlds change ratios exceeding E=0.1%%\n\n",
              ratios.size());

  std::printf("--- 1. seeding ablation (k=255, sorted-boundary engine) ---\n");
  std::printf("%-22s | %10s | %12s | %9s\n", "init", "gamma%", "inertia",
              "time ms");
  const std::pair<cluster::KMeansInit, const char*> inits[] = {
      {cluster::KMeansInit::kBinCenters, "bin-centers (naive)"},
      {cluster::KMeansInit::kEqualWidthHistogram, "density-quantile"},
      {cluster::KMeansInit::kQuantile, "exact-quantile"},
  };
  for (const auto& [init, name] : inits) {
    cluster::KMeansOptions o;
    o.k = 255;
    o.init = init;
    o.max_iterations = 30;
    util::Timer t;
    const auto r = cluster::kmeans1d(ratios, o);
    const double ms = t.milliseconds();
    std::printf("%-22s | %10.3f | %12.6g | %9.2f\n", name,
                100.0 * gamma_with_centers(ratios, r.centroids, 0.001),
                r.inertia, ms);
  }

  std::printf("\n--- 2. engine ablation (k=255, density-quantile seeding) ---\n");
  std::printf("%-22s | %10s | %12s | %9s | %5s\n", "engine", "gamma%",
              "inertia", "time ms", "iters");
  const std::pair<cluster::KMeansEngine, const char*> engines[] = {
      {cluster::KMeansEngine::kSortedBoundary, "sorted-boundary"},
      {cluster::KMeansEngine::kHistogramLloyd, "histogram-lloyd"},
  };
  for (const auto& [engine, name] : engines) {
    cluster::KMeansOptions o;
    o.k = 255;
    o.engine = engine;
    o.max_iterations = 30;
    util::Timer t;
    const auto r = cluster::kmeans1d(ratios, o);
    const double ms = t.milliseconds();
    std::printf("%-22s | %10.3f | %12.6g | %9.2f | %5zu\n", name,
                100.0 * gamma_with_centers(ratios, r.centroids, 0.001),
                r.inertia, ms, r.iterations);
  }

  std::printf("\n--- 3. Lloyd iteration budget (sorted-boundary) ---\n");
  std::printf("%5s | %10s | %12s\n", "iters", "gamma%", "inertia");
  for (std::size_t iters : {1u, 3u, 10u, 30u, 100u}) {
    cluster::KMeansOptions o;
    o.k = 255;
    o.max_iterations = iters;
    const auto r = cluster::kmeans1d(ratios, o);
    std::printf("%5zu | %10.3f | %12.6g\n", iters,
                100.0 * gamma_with_centers(ratios, r.centroids, 0.001),
                r.inertia);
  }

  std::printf("\n--- 4. histogram resolution H (histogram-lloyd engine) ---\n");
  std::printf("%8s | %10s | %12s | %9s\n", "H", "gamma%", "inertia", "time ms");
  for (std::size_t bins : {std::size_t{1} << 10, std::size_t{1} << 12,
                           std::size_t{1} << 14, std::size_t{1} << 16,
                           std::size_t{1} << 18}) {
    cluster::KMeansOptions o;
    o.k = 255;
    o.engine = cluster::KMeansEngine::kHistogramLloyd;
    o.histogram_bins = bins;
    o.max_iterations = 30;
    util::Timer t;
    const auto r = cluster::kmeans1d(ratios, o);
    const double ms = t.milliseconds();
    std::printf("%8zu | %10.3f | %12.6g | %9.2f\n", bins,
                100.0 * gamma_with_centers(ratios, r.centroids, 0.001),
                r.inertia, ms);
  }

  std::printf("\nconclusions: density-quantile seeding is what makes the\n"
              "clustering strategy adaptive (naive bin-center seeding degrades\n"
              "to ~equal-width); the histogram engine matches the exact\n"
              "sorted-boundary fixpoint once H makes the bin width small\n"
              "against E (the default 64k bins), at a per-iteration cost\n"
              "independent of n;\n"
              "a handful of Lloyd iterations already captures most of the\n"
              "benefit.\n");
  return 0;
}
