// The four registered compressor backends behind the codec::Codec interface
// (see codec/codec.hpp for the id table and capability semantics).
//
// The spatial codecs (isabela, bspline) are the §III-F baselines wrapped in
// an error-bound patch stream: encode fits the model, decodes it locally,
// and stores an exact (index, value) patch for every point whose
// reconstruction would violate the bound E — the same "escape to exact"
// move NUMARCK makes with its ζ = 0 path, so all backends give the per-point
// guarantee |x' - x| <= E·|x| or |x' - x| <= E. Payload layout is
// docs/FORMAT.md §7.
#include <algorithm>
#include <cmath>
#include <utility>

#include "numarck/baselines/bspline_compressor.hpp"
#include "numarck/baselines/isabela.hpp"
#include "numarck/codec/codec.hpp"
#include "numarck/core/codec.hpp"
#include "numarck/lossless/fpc.hpp"
#include "numarck/util/byte_stream.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/parallel_for.hpp"

namespace numarck::codec {

namespace {

std::vector<double> linear_base(std::span<const double> previous,
                                std::span<const double> previous2) {
  std::vector<double> base(previous.size());
  for (std::size_t j = 0; j < base.size(); ++j) {
    base[j] = 2.0 * previous[j] - previous2[j];
  }
  return base;
}

double honest_ratio_pct(std::size_t payload_bytes, std::size_t points) {
  if (points == 0) return 0.0;
  const double raw = static_cast<double>(points) * 8.0;
  return (raw - static_cast<double>(payload_bytes)) / raw * 100.0;
}

bool within_bound(double recon, double orig, double bound) {
  const double err = std::abs(recon - orig);
  return err <= bound * std::abs(orig) || err <= bound;
}

double point_error(double recon, double orig) {
  const double err = std::abs(recon - orig);
  const double mag = std::abs(orig);
  return mag > 0.0 ? std::min(err / mag, err) : err;
}

// ---------------------------------------------------------------------------
// numarck (id 0): the paper's change-ratio codec, serialized with the
// post-pass configured in Options so the payload is the exact on-disk form.

class NumarckCodec final : public Codec {
 public:
  std::uint8_t id() const noexcept override { return kNumarckId; }
  const char* name() const noexcept override { return "numarck"; }
  Caps caps() const noexcept override { return {true, true, false}; }

  core::CompressedStep encode(std::span<const double> current,
                              std::span<const double> previous,
                              std::span<const double> previous2,
                              const core::Options& opts) const override {
    NUMARCK_EXPECT(previous.size() == current.size(),
                   "numarck codec: needs a reference snapshot of equal length");
    const bool linear =
        opts.predictor == core::Predictor::kLinear && !previous2.empty();
    core::EncodedIteration enc =
        linear ? core::encode_iteration(linear_base(previous, previous2),
                                        current, opts)
               : core::encode_iteration(previous, current, opts);
    enc.predictor =
        linear ? core::Predictor::kLinear : core::Predictor::kPrevious;
    core::CompressedStep step;
    step.codec_id = kNumarckId;
    step.point_count = enc.point_count;
    step.payload = enc.serialize(opts.postpass);
    step.stats = enc.stats;
    step.paper_ratio_pct = enc.paper_compression_ratio();
    return step;
  }

  std::vector<double> decode(std::span<const std::uint8_t> payload,
                             std::span<const double> previous,
                             std::span<const double> previous2,
                             std::size_t expected_points) const override {
    const core::EncodedIteration enc =
        parse(payload, previous, expected_points);
    if (enc.predictor == core::Predictor::kLinear) {
      NUMARCK_EXPECT(previous2.size() == previous.size() && !previous2.empty(),
                     "numarck codec: linear-coded delta without two states");
      return core::decode_iteration(linear_base(previous, previous2), enc);
    }
    return core::decode_iteration(previous, enc);
  }

  bool reads_previous2(
      std::span<const std::uint8_t> payload) const noexcept override {
    const auto prefix = core::EncodedIteration::peek(payload);
    return !prefix || prefix->predictor != core::Predictor::kPrevious;
  }

  void decode_in_place(std::span<const std::uint8_t> payload,
                       std::span<double> state,
                       std::size_t expected_points) const override {
    const core::EncodedIteration enc = parse(payload, state, expected_points);
    NUMARCK_EXPECT(enc.predictor == core::Predictor::kPrevious,
                   "numarck codec: linear-coded delta without two states");
    core::decode_iteration_into(state, enc, state);
  }

  std::size_t validate_payload(std::span<const std::uint8_t> payload,
                               std::size_t max_points) const override {
    return core::EncodedIteration::deserialize(payload, max_points)
        .point_count;
  }

 private:
  static core::EncodedIteration parse(std::span<const std::uint8_t> payload,
                                      std::span<const double> previous,
                                      std::size_t expected_points) {
    // The caller's expected size doubles as the deserializer's forged-count
    // bound. When the caller does not know it (0: chain replay reads records
    // CRC-checked only), a delta can hold no more points than its reference;
    // only a reference-less call falls back to the built-in ceiling.
    const std::size_t bound =
        expected_points != 0 ? expected_points
        : !previous.empty()  ? previous.size()
                             : core::EncodedIteration::kDefaultMaxPointCount;
    core::EncodedIteration enc =
        core::EncodedIteration::deserialize(payload, bound);
    if (expected_points != 0) {
      NUMARCK_EXPECT(enc.point_count == expected_points,
                     "numarck codec: payload point count mismatch");
    }
    return enc;
  }
};

// ---------------------------------------------------------------------------
// fpc (id 1): lossless full-snapshot compression; the reference-free codec
// every stream starts with.

class FpcCodec final : public Codec {
 public:
  std::uint8_t id() const noexcept override { return kFpcId; }
  const char* name() const noexcept override { return "fpc"; }
  Caps caps() const noexcept override { return {false, true, true}; }

  core::CompressedStep encode(std::span<const double> current,
                              std::span<const double> /*previous*/,
                              std::span<const double> /*previous2*/,
                              const core::Options& /*opts*/) const override {
    core::CompressedStep step;
    step.codec_id = kFpcId;
    step.point_count = current.size();
    step.payload = lossless::fpc_compress(current);
    step.stats.total_points = current.size();
    step.stats.binned = current.size();
    step.paper_ratio_pct = honest_ratio_pct(step.payload.size(), current.size());
    return step;
  }

  std::vector<double> decode(std::span<const std::uint8_t> payload,
                             std::span<const double> /*previous*/,
                             std::span<const double> /*previous2*/,
                             std::size_t expected_points) const override {
    std::vector<double> out = lossless::fpc_decompress(payload);
    if (expected_points != 0) {
      NUMARCK_EXPECT(out.size() == expected_points,
                     "fpc codec: payload point count mismatch");
    }
    return out;
  }

  std::size_t validate_payload(std::span<const std::uint8_t> payload,
                               std::size_t max_points) const override {
    const std::size_t n = lossless::fpc_validate(payload);
    NUMARCK_EXPECT(n <= max_points, "fpc: point count exceeds caller bound");
    return n;
  }
};

// ---------------------------------------------------------------------------
// The error-bound patch wrapper shared by the spatial codecs
// (docs/FORMAT.md §7): inner model bytes, then exact values for the points
// the model missed. Patch indices are delta-coded strictly ascending, so a
// forged stream cannot index out of range or allocate past the payload.

std::vector<std::uint8_t> patch_and_wrap(
    const std::vector<std::uint8_t>& inner, std::span<const double> current,
    std::vector<double>& recon, double bound, util::ThreadPool& pool,
    core::IterationStats& stats) {
  NUMARCK_EXPECT(recon.size() == current.size(),
                 "spatial codec: reconstruction size mismatch");
  std::vector<std::size_t> patched;
  for (std::size_t j = 0; j < current.size(); ++j) {
    if (!within_bound(recon[j], current[j], bound)) patched.push_back(j);
  }
  util::ByteWriter w;
  w.put_varint(inner.size());
  w.put_bytes(inner.data(), inner.size());
  w.put_f64(bound);
  w.put_varint(patched.size());
  std::size_t prev = 0;
  for (std::size_t k = 0; k < patched.size(); ++k) {
    const std::size_t j = patched[k];
    w.put_varint(k == 0 ? j : j - prev - 1);
    w.put_f64(current[j]);
    recon[j] = current[j];
    prev = j;
  }
  stats.total_points = current.size();
  stats.exact_out_of_bound = patched.size();
  stats.binned = current.size() - patched.size();
  // Same fixed-block reduction as the NUMARCK codec's stats.
  using SumMax = std::pair<double, double>;
  const SumMax err = util::block_reduce<SumMax>(
      pool, 0, current.size(), SumMax{0.0, 0.0},
      [&](std::size_t i0, std::size_t i1) {
        SumMax s{0.0, 0.0};
        for (std::size_t j = i0; j < i1; ++j) {
          const double e = point_error(recon[j], current[j]);
          s.first += e;
          s.second = std::max(s.second, e);
        }
        return s;
      },
      [](SumMax a, const SumMax& b) {
        return SumMax{a.first + b.first, std::max(a.second, b.second)};
      });
  stats.mean_ratio_error =
      current.empty() ? 0.0 : err.first / static_cast<double>(current.size());
  stats.max_ratio_error = err.second;
  return w.take();
}

struct SpatialPayload {
  std::span<const std::uint8_t> inner;
  double bound = 0.0;
  /// Absolute patch indices, strictly ascending.
  std::vector<std::size_t> patch_index;
  std::vector<double> patch_value;
};

SpatialPayload unwrap_spatial(std::span<const std::uint8_t> payload) {
  util::ByteReader r(payload);
  SpatialPayload out;
  const std::size_t inner_size = r.get_varint();
  NUMARCK_EXPECT(inner_size <= r.remaining(),
                 "spatial codec: truncated inner payload");
  out.inner = payload.subspan(r.position(), inner_size);
  r.skip(inner_size);
  out.bound = r.get_f64();
  NUMARCK_EXPECT(std::isfinite(out.bound) && out.bound >= 0.0,
                 "spatial codec: bad error bound");
  const std::size_t patch_count = r.get_varint();
  // Each patch costs >= 9 bytes (1-byte varint + f64), so a forged count
  // cannot reach the allocations below.
  NUMARCK_EXPECT(patch_count <= r.remaining() / 9,
                 "spatial codec: patch count out of range");
  out.patch_index.reserve(patch_count);
  out.patch_value.reserve(patch_count);
  std::size_t prev = 0;
  for (std::size_t k = 0; k < patch_count; ++k) {
    const std::size_t gap = r.get_varint();
    // Gap cap rules out wrap-around in the index reconstruction below.
    NUMARCK_EXPECT(gap < (std::size_t{1} << 48),
                   "spatial codec: patch gap out of range");
    const std::size_t j = k == 0 ? gap : prev + 1 + gap;
    out.patch_index.push_back(j);
    out.patch_value.push_back(r.get_f64());
    prev = j;
  }
  NUMARCK_EXPECT(r.at_end(), "spatial codec: trailing bytes");
  return out;
}

template <typename Compressed>
class SpatialCodec : public Codec {
 public:
  Caps caps() const noexcept final { return {false, true, false}; }

  core::CompressedStep encode(std::span<const double> current,
                              std::span<const double> /*previous*/,
                              std::span<const double> /*previous2*/,
                              const core::Options& opts) const final {
    Compressed model = fit(current, opts);
    std::vector<double> recon = evaluate(model);
    core::CompressedStep step;
    step.codec_id = id();
    step.point_count = current.size();
    step.payload = patch_and_wrap(
        model.serialize(), current, recon, opts.error_bound,
        opts.pool ? *opts.pool : util::ThreadPool::global(), step.stats);
    step.paper_ratio_pct = honest_ratio_pct(step.payload.size(), current.size());
    return step;
  }

  std::vector<double> decode(std::span<const std::uint8_t> payload,
                             std::span<const double> /*previous*/,
                             std::span<const double> /*previous2*/,
                             std::size_t expected_points) const final {
    const SpatialPayload p = unwrap_spatial(payload);
    const Compressed model = Compressed::deserialize(p.inner);
    if (expected_points != 0) {
      NUMARCK_EXPECT(model.point_count == expected_points,
                     "spatial codec: payload point count mismatch");
    }
    std::vector<double> out = evaluate(model);
    for (std::size_t k = 0; k < p.patch_index.size(); ++k) {
      NUMARCK_EXPECT(p.patch_index[k] < out.size(),
                     "spatial codec: patch index out of range");
      out[p.patch_index[k]] = p.patch_value[k];
    }
    return out;
  }

  std::size_t validate_payload(std::span<const std::uint8_t> payload,
                               std::size_t max_points) const final {
    const SpatialPayload p = unwrap_spatial(payload);
    const Compressed model = Compressed::deserialize(p.inner);
    NUMARCK_EXPECT(model.point_count <= max_points,
                   "spatial codec: point count exceeds caller bound");
    NUMARCK_EXPECT(p.patch_index.size() <= model.point_count,
                   "spatial codec: more patches than points");
    NUMARCK_EXPECT(p.patch_index.empty() ||
                       p.patch_index.back() < model.point_count,
                   "spatial codec: patch index out of range");
    return model.point_count;
  }

 private:
  virtual Compressed fit(std::span<const double> current,
                         const core::Options& opts) const = 0;
  virtual std::vector<double> evaluate(const Compressed& model) const = 0;
};

// isabela (id 2): sort + per-window B-spline (§III-F, [15]).
class IsabelaCodec final : public SpatialCodec<baselines::IsabelaCompressed> {
 public:
  std::uint8_t id() const noexcept override { return kIsabelaId; }
  const char* name() const noexcept override { return "isabela"; }

 private:
  baselines::IsabelaCompressed fit(std::span<const double> current,
                                   const core::Options& opts) const override {
    const baselines::Isabela isabela(
        {.window = opts.isabela_window, .coeffs = opts.isabela_coeffs});
    return isabela.compress(current);
  }
  std::vector<double> evaluate(
      const baselines::IsabelaCompressed& model) const override {
    return baselines::Isabela(model.options).decompress(model);
  }
};

// bspline (id 3): one least-squares cubic fit per iteration (§III-F, [7]).
class BsplineCodec final : public SpatialCodec<baselines::BSplineCompressed> {
 public:
  std::uint8_t id() const noexcept override { return kBsplineId; }
  const char* name() const noexcept override { return "bspline"; }

 private:
  baselines::BSplineCompressed fit(std::span<const double> current,
                                   const core::Options& opts) const override {
    return baselines::BSplineCompressor(opts.bspline_coeff_fraction)
        .compress(current);
  }
  std::vector<double> evaluate(
      const baselines::BSplineCompressed& model) const override {
    return baselines::BSplineCompressor().decompress(model);
  }
};

const NumarckCodec kNumarck;
const FpcCodec kFpc;
const IsabelaCodec kIsabela;
const BsplineCodec kBspline;

const Codec* const kRegistry[] = {&kNumarck, &kFpc, &kIsabela, &kBspline};

}  // namespace

void Codec::decode_in_place(std::span<const std::uint8_t> payload,
                            std::span<double> state,
                            std::size_t expected_points) const {
  const std::vector<double> out = decode(payload, state, {}, expected_points);
  NUMARCK_EXPECT(out.size() == state.size(),
                 "codec: in-place decode changed the point count");
  std::copy(out.begin(), out.end(), state.begin());
}

std::span<const Codec* const> all() noexcept { return kRegistry; }

const Codec* find(std::uint8_t id) noexcept {
  for (const Codec* c : kRegistry) {
    if (c->id() == id) return c;
  }
  return nullptr;
}

const Codec* find(std::string_view name) noexcept {
  for (const Codec* c : kRegistry) {
    if (name == c->name()) return c;
  }
  return nullptr;
}

const Codec& require(std::uint8_t id) {
  const Codec* c = find(id);
  NUMARCK_EXPECT(c != nullptr, "unknown codec id");
  return *c;
}

}  // namespace numarck::codec
