// User-facing knobs of the NUMARCK compressor, mirroring the paper's inputs:
//   E — user tolerance error threshold on the change ratio (§II-C),
//   B — approximation precision, bits per stored index (§II-C),
//   the approximation strategy (§II-C-1/2/3),
// plus engineering extensions (closed-loop reference mode, K-means engine
// selection, explicit thread pool).
#pragma once

#include <cstddef>
#include <cstdint>

#include "numarck/cluster/kmeans1d.hpp"
#include "numarck/util/thread_pool.hpp"

namespace numarck::core {

/// The three distribution-learning strategies from §II-C.
enum class Strategy : std::uint8_t {
  kEqualWidth = 0,  ///< §II-C-1: equal-width histogram bins, midpoint centers
  kLogScale = 1,    ///< §II-C-2: log-spaced magnitude bins, per sign
  kClustering = 2,  ///< §II-C-3: K-means, seeded from the equal-width histogram
};

/// Which previous iteration the change ratios are computed against.
enum class Reference : std::uint8_t {
  /// Paper behaviour (Algorithm 1): ratios against the true previous
  /// iteration. Per-iteration ratio error is bounded by E but errors
  /// accumulate across chained checkpoints (observed in §III-G / Fig. 8).
  kTruePrevious = 0,
  /// Extension: ratios against the *reconstructed* previous iteration, like a
  /// video codec predicting from decoded frames. Accumulation is eliminated;
  /// costs one extra reconstruction per compressed iteration.
  kReconstructedPrevious = 1,
};

/// How the prediction base for the change ratios is formed (extension; the
/// paper uses kPrevious, i.e. first-order forward prediction).
enum class Predictor : std::uint8_t {
  /// Eq. 1 verbatim: base_j = D_{i-1,j}.
  kPrevious = 0,
  /// Second-order: linear extrapolation base_j = 2 D_{i-1,j} - D_{i-2,j}.
  /// For smoothly evolving simulations the residual ratios shrink by an
  /// order of magnitude, which buys either smaller B or smaller γ at the
  /// same bound (bench/ext_predictor). Falls back to kPrevious on the first
  /// delta (no second history point yet).
  kLinear = 1,
};

const char* to_string(Strategy s) noexcept;
const char* to_string(Reference r) noexcept;
const char* to_string(Predictor p) noexcept;

/// Optional lossless post-pass applied when a NUMARCK record is serialized
/// (§III-B: "we can further use a lossless compression technique ... on our
/// compressed data"). Each stream is only replaced when the coded form is
/// smaller, so enabling a pass never loses.
///
/// Index-stream coding has two backends: canonical Huffman and interleaved
/// rANS (lossless/rans.hpp). Enabling both is the *auto* policy — a
/// histogram-flatness heuristic picks the coder per record (rANS for long
/// skewed streams, Huffman for short ones, neither when the histogram is
/// too flat to beat the packed B-bit form). Enabling exactly one restricts
/// the choice to that backend. The chosen coder's id travels in the record
/// flags, so any combination deserializes without knowing the policy.
struct Postpass {
  bool huffman_indices = false;  ///< entropy-code the B-bit index stream
  bool rle_bitmap = false;       ///< run-length code the ζ bitmap
  bool fpc_exact = false;        ///< FPC the exact-value doubles
  bool rans_indices = false;     ///< rANS-code the B-bit index stream

  static Postpass none() noexcept { return {}; }
  /// Every pass, with index coding in auto huffman-vs-rans mode.
  static Postpass all() noexcept { return {true, true, true, true}; }
  /// The pre-rANS coder set — exactly what all() meant when the v1 golden
  /// containers were written, kept so their byte-identity stays testable.
  static Postpass v1() noexcept { return {true, true, true, false}; }
};

struct Options {
  /// Which registered compressor backend `VariableCompressor` encodes delta
  /// iterations with. Wire ids live in numarck/codec/codec.hpp (0 = NUMARCK,
  /// the default; this header deliberately does not include the registry).
  std::uint8_t codec_id = 0;

  /// Lossless post-pass for NUMARCK payloads, applied at encode time so
  /// `CompressedStep::stored_bytes()` is exactly the on-disk payload size.
  Postpass postpass = Postpass::none();

  /// User tolerance error threshold E as a fraction (0.001 = 0.1 %).
  double error_bound = 0.001;

  /// Index precision B in bits; the bin table holds up to 2^B - 1 learned
  /// representatives (index 0 is reserved for |ratio| < E).
  unsigned index_bits = 8;

  /// Small-value rule (Algorithm 1, line 5: "if abs(D_{i,j}) < E"): when the
  /// current *and* previous values are both below this absolute threshold,
  /// the point is coded as index 0 (reconstructed as the previous value,
  /// absolute error <= 2x the threshold). This is what makes near-zero
  /// fields like CMIP runoff compressible — their relative changes are
  /// meaningless but their absolute values are noise. Negative means
  /// "default to error_bound" (the paper reuses E); 0 disables the rule and
  /// enforces the pure ratio bound everywhere.
  double small_value_threshold = -1.0;

  [[nodiscard]] double resolved_small_value_threshold() const noexcept {
    return small_value_threshold < 0.0 ? error_bound : small_value_threshold;
  }

  Strategy strategy = Strategy::kClustering;
  Reference reference = Reference::kTruePrevious;
  Predictor predictor = Predictor::kPrevious;

  /// K-means controls (only used by Strategy::kClustering). kHistogramLloyd
  /// folds the learn set in O(n + H) onto m populated bins. When m <= k each
  /// bin becomes its own cluster and no Lloyd round runs; otherwise each
  /// round costs O(m + k) (see kmeans1d.hpp). Pick kSortedBoundary to
  /// recover the exact 1-D fixpoint for serial reference runs. The
  /// distributed encoder always learns through kHistogramLloyd.
  cluster::KMeansEngine kmeans_engine = cluster::KMeansEngine::kHistogramLloyd;
  std::size_t kmeans_max_iterations = 30;

  /// kHistogramLloyd resolution H; 0 = the engine default (max(64 k, 4096),
  /// capped at 2^18). Larger H tightens the w = range/H exactness bound.
  std::size_t kmeans_histogram_bins = 0;

  /// Fraction of compressible change ratios fed to the distribution learner
  /// (1.0 = learn from all of them). Sampling is stride-based over the global
  /// needs-bin ordinal, so the learn set — and therefore the whole encode —
  /// is identical for every thread count. The per-point error-bound guarantee
  /// is untouched: classification still checks *every* point against the
  /// learned bin table and marks out-of-bound points incompressible; a coarse
  /// sample can only raise γ (fewer points land inside a bin), never the
  /// reconstruction error.
  double sampling_ratio = 1.0;

  /// Thread pool for all data-parallel stages; null = process-global pool.
  util::ThreadPool* pool = nullptr;

  /// ISABELA backend (codec id 2): points per sorted window and B-spline
  /// coefficients kept per full window (baselines/isabela.hpp).
  std::size_t isabela_window = 512;
  std::size_t isabela_coeffs = 30;

  /// B-spline backend (codec id 3): control points as a fraction of the
  /// point count, at least 1/1024 (baselines/bspline_compressor.hpp).
  double bspline_coeff_fraction = 0.8;

  /// Maximum number of learned bins: 2^B - 1.
  [[nodiscard]] std::size_t max_bins() const noexcept {
    return (std::size_t{1} << index_bits) - 1;
  }

  /// Throws ContractViolation when a field is out of its valid domain.
  void validate() const;
};

}  // namespace numarck::core
