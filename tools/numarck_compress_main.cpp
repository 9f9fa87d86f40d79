// numarck-compress — compress a raw float64 iteration stream into a
// NUMARCK checkpoint container.
//
//   numarck-compress --input run.f64 --output run.ckpt
//       --points 32768 [--error-bound 0.001] [--bits 8]
//       [--strategy clustering] [--var dens] [--postpass auto]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "numarck/tools/cli.hpp"

namespace {

const char* kUsage =
    "usage: numarck-compress --input FILE --output FILE [--points N]\n"
    "                        [--error-bound E] [--bits B]\n"
    "                        [--strategy equal-width|log-scale|clustering]\n"
    "                        [--predictor previous|linear]\n"
    "                        [--kmeans-engine histogram|exact]\n"
    "                        [--sampling-ratio R]  # learn-set fraction (0,1]\n"
    "                        [--codec numarck|fpc|isabela|bspline]\n"
    "                        [--postpass none|huffman|rans|auto]\n"
    "                        [--var NAME] [--no-postpass]\n";

}  // namespace

int main(int argc, char** argv) {
  numarck::tools::CompressJob job;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n%s", a.c_str(), kUsage);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--input") {
      job.input_path = value();
    } else if (a == "--output") {
      job.output_path = value();
    } else if (a == "--points") {
      job.points_per_iteration = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--error-bound") {
      job.options.error_bound = std::strtod(value().c_str(), nullptr);
    } else if (a == "--bits") {
      job.options.index_bits =
          static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    } else if (a == "--strategy") {
      job.options.strategy = numarck::tools::parse_strategy(value());
    } else if (a == "--predictor") {
      job.options.predictor = numarck::tools::parse_predictor(value());
    } else if (a == "--kmeans-engine") {
      job.options.kmeans_engine = numarck::tools::parse_kmeans_engine(value());
    } else if (a == "--sampling-ratio") {
      job.options.sampling_ratio = std::strtod(value().c_str(), nullptr);
    } else if (a == "--codec") {
      try {
        job.options.codec_id = numarck::tools::parse_codec(value());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    } else if (a == "--var") {
      job.variable = value();
    } else if (a == "--postpass") {
      try {
        job.postpass = numarck::tools::parse_postpass(value());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    } else if (a == "--no-postpass") {  // legacy alias for --postpass none
      job.postpass = numarck::tools::PostpassMode::kNone;
    } else if (a == "--help" || a == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n%s", a.c_str(), kUsage);
      return 2;
    }
  }
  if (job.input_path.empty() || job.output_path.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  try {
    const auto r = numarck::tools::compress_file(job);
    std::printf("%zu iterations x %zu points: %zu -> %zu bytes (%.1f%% saved)\n",
                r.iterations, r.points_per_iteration, r.input_bytes,
                r.output_bytes,
                100.0 * (1.0 - static_cast<double>(r.output_bytes) /
                                   static_cast<double>(r.input_bytes)));
    std::printf("mean incompressible ratio %.3f%%, mean Eq.3 ratio %.2f%%\n",
                100.0 * r.mean_gamma, r.mean_paper_ratio);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
