// The NUMARCK per-iteration codec (Algorithm 1, lines 3–10, plus §II-D).
//
// encode_iteration compresses snapshot `current` against snapshot `previous`:
//   1. forward predictive coding — compute change ratios (Eq. 1);
//   2. learn the distribution with the configured strategy;
//   3. per point, assign the nearest representative; points whose ratio error
//      would exceed E — and points with an undefined ratio — escape to exact
//      storage (the ζ = 0 path).
//
// decode_iteration applies the §II-D reconstruction rule:
//   ε_{i,j} = D_{i,j}                     when ζ = 0 (exact)
//   ε_{i,j} = D'_{i-1,j} (1 + ΔD'_{i,j})  otherwise.
//
// Whether `previous` is the true or the reconstructed previous iteration is
// the caller's choice (Options::reference is implemented by the pipeline in
// compressor.hpp); the codec itself is reference-agnostic.
//
// Both directions are data-parallel over Options::pool with a two-pass
// classify-then-pack design (see codec.cpp); the packed streams are
// guaranteed bit-identical for any pool size, with the sequential append
// path kept as the single-worker reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "numarck/core/bin_model.hpp"
#include "numarck/core/encoded.hpp"
#include "numarck/core/options.hpp"

namespace numarck::core {

/// Compresses `current` against `previous` (same length). The per-point
/// guarantee: for every compressible point, |Δ' - Δ| <= E; every other point
/// is stored bit-exact.
EncodedIteration encode_iteration(std::span<const double> previous,
                                  std::span<const double> current,
                                  const Options& opts);

/// Like encode_iteration, but with an externally learned representative
/// table (the distributed global-table path: ranks learn `model` together,
/// then each encodes its partition locally). The error-bound guarantee is
/// unconditional — a model that fits the data poorly only raises γ.
EncodedIteration encode_iteration_with_model(std::span<const double> previous,
                                             std::span<const double> current,
                                             const BinModel& model,
                                             const Options& opts);

/// Reconstructs the iteration from `previous` (typically itself a
/// reconstruction) and the encoded record. Inverse of encode_iteration when
/// called with the same previous snapshot. Decoding is data-parallel over
/// `pool` (null = process-global): each chunk derives its index/exact
/// cursors from a popcount pass over the ζ bitmap, so the output is
/// identical for any pool size.
std::vector<double> decode_iteration(std::span<const double> previous,
                                     const EncodedIteration& enc,
                                     util::ThreadPool* pool = nullptr);

/// decode_iteration into the caller's `out` (enc.point_count values), which
/// may be `previous` itself but must not partially overlap it. In place, a
/// point whose index is 0 keeps its value and is never written. Runs the
/// same checks as decode_iteration; a throw may leave `out` partly decoded.
void decode_iteration_into(std::span<const double> previous,
                           const EncodedIteration& enc, std::span<double> out,
                           util::ThreadPool* pool = nullptr);

namespace detail {

// The two per-point loops of the codec, exposed so the kernel tests and
// fuzzers can check them against the narrow reference loops.

/// Per-span counts of the classify pass; fields match IterationStats.
/// err_sum accumulates in point order.
struct ClassifyStats {
  std::size_t small = 0;
  std::size_t below = 0;
  std::size_t undefined = 0;
  std::size_t needs_bin = 0;
  double err_sum = 0.0;
  double err_max = 0.0;
};

/// The encoder's classify pass over n points: labels[j] becomes 0
/// (small-value or below-threshold), 0xFFFFFFFF (exact: zero previous or
/// non-finite ratio) or 0xFFFFFFFE (needs a bin). `small_threshold` <= 0
/// disables the small-value rule.
ClassifyStats classify_span(const double* previous, const double* current,
                            std::uint32_t* labels, std::size_t n,
                            double error_bound, double small_threshold);

/// Decodes points [i0, i1) of `enc` into out[i0, i1), where `comp_before`
/// is the number of compressible points before i0 (the ζ popcount up to
/// i0). `out` may equal `previous` (in-place decode). A ζ = 0xFF group whose
/// 8 indices are all zero is detected with word loads and carries
/// `previous` (nothing is written in place). The stream lengths must already
/// be validated against ζ, as decode_iteration does; an index past the
/// center table throws ContractViolation.
void decode_span(const double* previous, const EncodedIteration& enc,
                 std::size_t i0, std::size_t i1, std::size_t comp_before,
                 double* out);

}  // namespace detail

}  // namespace numarck::core
