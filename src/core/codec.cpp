#include "numarck/core/codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "numarck/util/bitpack.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/parallel_for.hpp"

namespace numarck::core {

// The encoder is a two-pass classify-then-pack pipeline:
//
//   Pass A (classify) — one parallel sweep assigns every point a uint32
//   label: the index value it will pack (0 for small-value / below-threshold,
//   c+1 for a binned point) or an exact/needs-bin marker. The same labels
//   feed the learn-set gather, so the predicates run once instead of twice
//   (the old stage-2 scan re-evaluated them to build the learn set). The
//   change ratio (Eq. 1) is computed inline in every pass that needs it —
//   one divide is cheaper than materializing and re-reading an n-element
//   ratio + validity pair of arrays, and it keeps the sampled path at a
//   single streaming read of (previous, current).
//
//   Pass B (pack) — per-chunk counts of compressible points turn into
//   exclusive prefix sums, which give every chunk the absolute bit offset of
//   its slice of the ζ / index streams and the element offset of its exact
//   values. Chunks then pack disjoint regions concurrently (BitSpanWriter
//   merges the shared straddle bytes atomically). Because every offset is
//   absolute, the streams are bit-identical for any thread count.
//
// decode_iteration is symmetric: a popcount pass over ζ recovers each
// chunk's index/exact cursors from the same prefix sums, then chunks decode
// concurrently.
//
// The two per-point loops, classify_span and decode_span, are plain
// portable code (detail:: in codec.hpp so the kernel tests can reach them).

namespace {

// Final per-point labels. Index values occupy [0, 2^16 - 1] (index_bits is
// at most 16), so the markers can never collide with a real index.
constexpr std::uint32_t kLabelExact = 0xFFFFFFFFu;     // ζ = 0, value escapes
constexpr std::uint32_t kLabelNeedsBin = 0xFFFFFFFEu;  // transient: pass A2

/// Eq. 1 for one point. Callers on needs-bin labels are guaranteed a finite
/// result: classify_points already exact-escaped zero-denominator and
/// non-finite points, and (previous, current) are immutable between passes.
inline double change_ratio_at(std::span<const double> previous,
                              std::span<const double> current, std::size_t j) {
  return (current[j] - previous[j]) / previous[j];
}

using detail::ClassifyStats;

/// Pass A1: model-free classification. Labels every point as index 0
/// (small-value or below-threshold), exact (undefined ratio) or needs-bin;
/// the needs-bin points are exactly the learn-set candidates. Each block
/// runs the fused change-ratio + classify loop; the stats reduce over
/// util::block_reduce's fixed blocks, so err_sum — stored in the record as
/// mean_ratio_error — rounds the same at every pool size.
ClassifyStats classify_points(std::span<const double> previous,
                              std::span<const double> current,
                              const Options& opts, util::ThreadPool& pool,
                              std::vector<std::uint32_t>& labels) {
  const std::size_t n = current.size();
  labels.resize(n);
  const double E = opts.error_bound;
  const double small = opts.resolved_small_value_threshold();
  return util::block_reduce<ClassifyStats>(
      pool, 0, n, ClassifyStats{},
      [&](std::size_t i0, std::size_t i1) {
        return detail::classify_span(previous.data() + i0,
                                     current.data() + i0, labels.data() + i0,
                                     i1 - i0, E, small);
      },
      [](ClassifyStats a, const ClassifyStats& b) {
        a.small += b.small;
        a.below += b.below;
        a.undefined += b.undefined;
        a.needs_bin += b.needs_bin;
        a.err_sum += b.err_sum;
        a.err_max = std::max(a.err_max, b.err_max);
        return a;
      });
}

/// Gathers every stride-th needs-bin ratio in point order. The stride walks
/// the *global* needs-bin ordinal (per-chunk counts + exclusive prefix sums
/// give each chunk both its write offset and its starting ordinal), so the
/// sampled learn set is a pure function of the data — identical for every
/// thread count and chunking. stride == 1 recovers the full learn set.
std::vector<double> gather_learn_set(std::span<const double> previous,
                                     std::span<const double> current,
                                     const std::vector<std::uint32_t>& labels,
                                     std::size_t needs_bin_total,
                                     std::size_t stride,
                                     util::ThreadPool& pool) {
  if (needs_bin_total == 0) return {};
  std::vector<double> learn((needs_bin_total + stride - 1) / stride);
  const util::ChunkPlan plan(0, labels.size(), pool.size());
  std::vector<std::size_t> ordinal(plan.chunks);
  util::parallel_chunks(pool, plan,
                        [&](std::size_t c, std::size_t i0, std::size_t i1) {
                          std::size_t count = 0;
                          for (std::size_t j = i0; j < i1; ++j) {
                            count += labels[j] == kLabelNeedsBin;
                          }
                          ordinal[c] = count;
                        });
  std::size_t running = 0;
  for (auto& o : ordinal) {
    const std::size_t count = o;
    o = running;
    running += count;
  }
  NUMARCK_EXPECT(running == needs_bin_total, "learn-set gather count drifted");
  util::parallel_chunks(
      pool, plan, [&](std::size_t c, std::size_t i0, std::size_t i1) {
        std::size_t o = ordinal[c];
        for (std::size_t j = i0; j < i1; ++j) {
          if (labels[j] != kLabelNeedsBin) continue;
          if (o % stride == 0) {
            learn[o / stride] = change_ratio_at(previous, current, j);
          }
          ++o;
        }
      });
  return learn;
}

struct AssignStats {
  std::size_t binned = 0;
  std::size_t out_of_bound = 0;
  double err_sum = 0.0;
  double err_max = 0.0;
};

/// Pass A2: resolves every needs-bin label to a bin index (via the O(1)
/// lookup) or an exact escape when the nearest center misses the bound. This
/// is the pass that preserves the per-point error bound under sampling: it
/// re-checks every point against the bound regardless of whether its ratio
/// was in the (possibly sampled) learn set. BinLookup's repair step keeps
/// the lookup O(1); the stats reduce over the same fixed blocks as pass A1.
AssignStats assign_bins(std::span<const double> previous,
                        std::span<const double> current, const BinModel& model,
                        double error_bound, util::ThreadPool& pool,
                        std::vector<std::uint32_t>& labels) {
  const BinLookup lookup(model);
  const bool have_model = !model.empty();
  return util::block_reduce<AssignStats>(
      pool, 0, labels.size(), AssignStats{},
      [&](std::size_t i0, std::size_t i1) {
        AssignStats s;
        for (std::size_t j = i0; j < i1; ++j) {
          if (labels[j] != kLabelNeedsBin) continue;
          if (have_model) {
            const double r = change_ratio_at(previous, current, j);
            const std::size_t c = lookup.nearest(r);
            const double err = std::abs(model.centers[c] - r);
            if (err <= error_bound) {
              labels[j] = static_cast<std::uint32_t>(c + 1);
              ++s.binned;
              s.err_sum += err;
              s.err_max = std::max(s.err_max, err);
              continue;
            }
          }
          labels[j] = kLabelExact;
          ++s.out_of_bound;
        }
        return s;
      },
      [](AssignStats a, const AssignStats& b) {
        a.binned += b.binned;
        a.out_of_bound += b.out_of_bound;
        a.err_sum += b.err_sum;
        a.err_max = std::max(a.err_max, b.err_max);
        return a;
      });
}

/// Pass B: per-chunk compressible counts -> exclusive prefix sums ->
/// packing of disjoint stream regions at absolute offsets (the single-chunk
/// plan degenerates to a sequential pass over the whole range, so there is
/// one layout and one code path for every thread count).
///
/// Within a chunk the labels are walked as runs: an exact run turns into a
/// put_zeros cursor skip plus one memcpy of contiguous current values, a
/// compressible run into put_ones plus a bulk put_many of the labels —
/// replacing the old per-point branch + put_bit + put sequence.
void pack_streams(std::span<const double> current,
                  const std::vector<std::uint32_t>& labels,
                  unsigned index_bits, util::ThreadPool& pool,
                  EncodedIteration& enc) {
  const std::size_t n = labels.size();
  const util::ChunkPlan plan(0, n, pool.size());
  std::vector<std::size_t> comp_before(plan.chunks);
  util::parallel_chunks(pool, plan,
                        [&](std::size_t c, std::size_t i0, std::size_t i1) {
                          std::size_t count = 0;
                          for (std::size_t j = i0; j < i1; ++j) {
                            count += labels[j] != kLabelExact;
                          }
                          comp_before[c] = count;
                        });
  std::size_t total_comp = 0;
  for (auto& o : comp_before) {
    const std::size_t count = o;
    o = total_comp;
    total_comp += count;
  }
  const std::size_t total_exact = n - total_comp;

  enc.zeta.assign((n + 7) / 8, 0);
  enc.indices.assign((total_comp * index_bits + 7) / 8, 0);
  enc.exact_values.resize(total_exact);
  util::parallel_chunks(
      pool, plan, [&](std::size_t c, std::size_t i0, std::size_t i1) {
        util::BitSpanWriter zeta(enc.zeta.data(), enc.zeta.size(), i0);
        util::BitSpanWriter idx(enc.indices.data(), enc.indices.size(),
                                comp_before[c] * index_bits);
        // Exact cursor: points before i0 minus compressible points before i0.
        std::size_t exact_pos = i0 - comp_before[c];
        std::size_t j = i0;
        while (j < i1) {
          std::size_t run = j;
          if (labels[j] == kLabelExact) {
            while (run < i1 && labels[run] == kLabelExact) ++run;
            zeta.put_zeros(run - j);
            std::memcpy(enc.exact_values.data() + exact_pos,
                        current.data() + j, (run - j) * sizeof(double));
            exact_pos += run - j;
          } else {
            while (run < i1 && labels[run] != kLabelExact) ++run;
            zeta.put_ones(run - j);
            idx.put_many(labels.data() + j, run - j, index_bits);
          }
          j = run;
        }
        zeta.finish();
        idx.finish();
      });
}

/// Learn-set stride for Options::sampling_ratio (1.0 -> 1, 0.01 -> 100).
std::size_t sampling_stride(const Options& opts) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(1.0 / opts.sampling_ratio)));
}

/// Stages A2 + B plus the stats roll-up, shared by every encode entry point.
EncodedIteration finish_encode(std::span<const double> previous,
                               std::span<const double> current,
                               const BinModel& model, const Options& opts,
                               util::ThreadPool& pool,
                               std::vector<std::uint32_t>& labels,
                               const ClassifyStats& cs) {
  const std::size_t n = current.size();
  EncodedIteration enc;
  enc.index_bits = opts.index_bits;
  enc.error_bound = opts.error_bound;
  enc.strategy = opts.strategy;
  enc.point_count = n;
  enc.stats.total_points = n;
  if (n == 0) return enc;
  NUMARCK_EXPECT(model.centers.size() <= opts.max_bins(),
                 "bin model larger than the index space");
  enc.centers = model.centers;

  const AssignStats as =
      assign_bins(previous, current, model, opts.error_bound, pool, labels);
  pack_streams(current, labels, opts.index_bits, pool, enc);

  enc.stats.small_value = cs.small;
  enc.stats.below_threshold = cs.below;
  enc.stats.exact_undefined = cs.undefined;
  enc.stats.binned = as.binned;
  enc.stats.exact_out_of_bound = as.out_of_bound;
  enc.stats.mean_ratio_error =
      (cs.err_sum + as.err_sum) / static_cast<double>(n);
  enc.stats.max_ratio_error = std::max(cs.err_max, as.err_max);
  return enc;
}

/// True when bits [bit, bit + count) of an LSB-first stream are all zero,
/// tested 56 bits per word load (the caller has checked the range against
/// the stream length).
bool bits_are_zero(const std::uint8_t* bytes, std::size_t size_bytes,
                   std::size_t bit, std::size_t count) {
  while (count > 0) {
    const unsigned take = count < 56 ? static_cast<unsigned>(count) : 56;
    const std::size_t byte = bit >> 3;
    const unsigned phase = static_cast<unsigned>(bit & 7);
    std::uint64_t w = 0;
    if (std::endian::native == std::endian::little &&
        byte + 8 <= size_bytes) {
      std::memcpy(&w, bytes + byte, sizeof w);
    } else {
      for (unsigned got = 0; got < phase + take; got += 8) {
        w |= static_cast<std::uint64_t>(bytes[byte + got / 8]) << got;
      }
    }
    if (((w >> phase) & ((std::uint64_t{1} << take) - 1)) != 0) return false;
    bit += take;
    count -= take;
  }
  return true;
}

}  // namespace

namespace detail {

ClassifyStats classify_span(const double* previous, const double* current,
                            std::uint32_t* labels, std::size_t n,
                            double error_bound, double small_threshold) {
  ClassifyStats s;
  for (std::size_t j = 0; j < n; ++j) {
    // Small-value rule (Algorithm 1 line 5): both sides below the absolute
    // threshold -> "unchanged", index 0.
    if (small_threshold > 0.0 && std::abs(current[j]) < small_threshold &&
        std::abs(previous[j]) <= small_threshold) {
      labels[j] = 0;
      ++s.small;
      continue;
    }
    // Paper rule: zero denominator -> store exactly; extended to any
    // non-finite ratio so the compressor is total on junk input.
    if (previous[j] == 0.0) {
      labels[j] = kLabelExact;
      ++s.undefined;
      continue;
    }
    const double r = (current[j] - previous[j]) / previous[j];
    if (!std::isfinite(r)) {
      labels[j] = kLabelExact;
      ++s.undefined;
      continue;
    }
    const double mag = std::abs(r);
    if (mag < error_bound) {
      labels[j] = 0;
      ++s.below;
      s.err_sum += mag;  // approximated ratio is exactly 0
      s.err_max = std::max(s.err_max, mag);
      continue;
    }
    labels[j] = kLabelNeedsBin;
    ++s.needs_bin;
  }
  return s;
}

void decode_span(const double* previous, const EncodedIteration& enc,
                 std::size_t i0, std::size_t i1, std::size_t comp_before,
                 double* out) {
  const std::uint8_t* zeta = enc.zeta.data();
  const std::uint8_t* indices = enc.indices.data();
  const std::size_t indices_size = enc.indices.size();
  const double* centers = enc.centers.data();
  const std::size_t center_count = enc.centers.size();
  const double* exact = enc.exact_values.data();
  const unsigned B = enc.index_bits;
  const std::uint64_t mask = B == 32 ? 0xffffffffull : ((1ull << B) - 1);
  const bool in_place = out == previous;
  std::size_t exact_pos = i0 - comp_before;
  std::size_t index_bit = comp_before * B;

  // Point by point: the unaligned head and tail, and mixed ζ bytes.
  const auto decode_run = [&](std::size_t j0, std::size_t j1) {
    for (std::size_t j = j0; j < j1; ++j) {
      if (((zeta[j >> 3] >> (j & 7)) & 1u) == 0) {
        out[j] = exact[exact_pos++];
        continue;
      }
      const std::uint32_t i =
          util::read_bits_at(indices, indices_size, index_bit, B, mask);
      index_bit += B;
      if (i == 0) {
        out[j] = previous[j];  // |ΔD| < E: carry the previous value
      } else {
        NUMARCK_EXPECT(i <= center_count, "decode: index out of table");
        out[j] = previous[j] * (1.0 + centers[i - 1]);
      }
    }
  };

  const std::size_t head = std::min(i1, (i0 + 7) & ~std::size_t{7});
  decode_run(i0, head);
  std::size_t j = head;
  for (; j + 8 <= i1; j += 8) {
    const std::uint8_t z = zeta[j >> 3];
    if (z == 0x00) {  // 8 exact values
      std::memcpy(out + j, exact + exact_pos, 8 * sizeof(double));
      exact_pos += 8;
    } else if (z == 0xFF) {  // 8 indices: exactly B bytes of the stream
      if (bits_are_zero(indices, indices_size, index_bit, 8 * B)) {
        // All carry `previous`; in place there is nothing to write.
        if (!in_place) {
          std::memcpy(out + j, previous + j, 8 * sizeof(double));
        }
        index_bit += 8 * B;
        continue;
      }
      std::uint32_t idx[8];
      std::uint32_t top = 0;
      for (unsigned k = 0; k < 8; ++k) {
        idx[k] = util::read_bits_at(indices, indices_size, index_bit, B, mask);
        index_bit += B;
        top = std::max(top, idx[k]);
      }
      NUMARCK_EXPECT(top <= center_count, "decode: index out of table");
      // Branch-free lanes: index 0 selects `previous` itself, so it is
      // carried bit for bit (NaN payloads included).
      for (unsigned k = 0; k < 8; ++k) {
        const std::uint32_t i = idx[k];
        const double pv = previous[j + k];
        const double scaled = pv * (1.0 + centers[i != 0 ? i - 1 : 0]);
        out[j + k] = i == 0 ? pv : scaled;
      }
    } else {
      decode_run(j, j + 8);
    }
  }
  decode_run(j, i1);
}

}  // namespace detail

EncodedIteration encode_iteration(std::span<const double> previous,
                                  std::span<const double> current,
                                  const Options& opts) {
  opts.validate();
  NUMARCK_EXPECT(previous.size() == current.size(),
                 "encode: snapshot size mismatch");
  auto& pool = opts.pool ? *opts.pool : util::ThreadPool::global();

  // Stage 1+2 fused: one sweep evaluates Eq. 1 and classifies; the needs-bin
  // labels are the learn-set candidates (defined, not small-valued, and not
  // already satisfied by the zero index). The gather then samples every
  // stride-th candidate by global ordinal.
  std::vector<std::uint32_t> labels;
  const ClassifyStats cs =
      classify_points(previous, current, opts, pool, labels);
  const std::vector<double> learn_set = gather_learn_set(
      previous, current, labels, cs.needs_bin, sampling_stride(opts), pool);
  const BinModel model = learn_bins(learn_set, opts);

  // Stage 3: assignment + packing from the labels.
  return finish_encode(previous, current, model, opts, pool, labels, cs);
}

EncodedIteration encode_iteration_with_model(std::span<const double> previous,
                                             std::span<const double> current,
                                             const BinModel& model,
                                             const Options& opts) {
  opts.validate();
  NUMARCK_EXPECT(previous.size() == current.size(),
                 "encode: snapshot size mismatch");
  auto& pool = opts.pool ? *opts.pool : util::ThreadPool::global();
  std::vector<std::uint32_t> labels;
  const ClassifyStats cs =
      classify_points(previous, current, opts, pool, labels);
  return finish_encode(previous, current, model, opts, pool, labels, cs);
}

void decode_iteration_into(std::span<const double> previous,
                           const EncodedIteration& enc, std::span<double> out,
                           util::ThreadPool* pool) {
  const std::size_t n = enc.point_count;
  NUMARCK_EXPECT(previous.size() == n,
                 "decode: previous snapshot has wrong length");
  NUMARCK_EXPECT(out.size() == n, "decode: output span has wrong length");
  const auto lo = reinterpret_cast<std::uintptr_t>(out.data());
  const auto plo = reinterpret_cast<std::uintptr_t>(previous.data());
  NUMARCK_EXPECT(n == 0 || lo == plo || lo + n * sizeof(double) <= plo ||
                     plo + n * sizeof(double) <= lo,
                 "decode: output partially overlaps the previous snapshot");
  auto& tp = pool ? *pool : util::ThreadPool::global();

  // One validated span path for every thread count: a popcount pass over ζ
  // rebuilds the per-chunk compressible counts the encoder packed with, the
  // stream lengths are checked against those totals up front (the container
  // may be forged), then each chunk decodes its span independently.
  NUMARCK_EXPECT(enc.zeta.size() * 8 >= n, "decode: ζ bitmap too short");
  const util::ChunkPlan plan(0, n, tp.size());
  std::vector<std::size_t> comp_before(plan.chunks);
  util::parallel_chunks(tp, plan,
                        [&](std::size_t c, std::size_t i0, std::size_t i1) {
                          comp_before[c] = util::count_ones(
                              enc.zeta.data(), enc.zeta.size(), i0, i1);
                        });
  std::size_t total_comp = 0;
  for (auto& o : comp_before) {
    const std::size_t count = o;
    o = total_comp;
    total_comp += count;
  }
  NUMARCK_EXPECT(n - total_comp == enc.exact_values.size(),
                 "decode: exact stream length mismatch");
  if (total_comp != 0) {
    NUMARCK_EXPECT(enc.index_bits >= 1 && enc.index_bits <= 32,
                   "decode: index width out of range");
    NUMARCK_EXPECT(enc.indices.size() * 8 / enc.index_bits >= total_comp,
                   "decode: index stream too short");
  }
  util::parallel_chunks(
      tp, plan, [&](std::size_t c, std::size_t i0, std::size_t i1) {
        detail::decode_span(previous.data(), enc, i0, i1, comp_before[c],
                            out.data());
      });
}

std::vector<double> decode_iteration(std::span<const double> previous,
                                     const EncodedIteration& enc,
                                     util::ThreadPool* pool) {
  std::vector<double> out(enc.point_count);
  decode_iteration_into(previous, enc, out, pool);
  return out;
}

}  // namespace numarck::core
