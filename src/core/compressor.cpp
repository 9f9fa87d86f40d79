#include "numarck/core/compressor.hpp"

#include "numarck/codec/codec.hpp"
#include "numarck/lossless/fpc.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::core {

CompressedStep CompressedStep::full_from(std::span<const double> snapshot) {
  CompressedStep step;
  step.codec_id = codec::kFpcId;
  step.is_full = true;
  step.point_count = snapshot.size();
  step.payload = lossless::fpc_compress(snapshot);
  return step;
}

CompressedStep CompressedStep::from_encoded(const EncodedIteration& enc,
                                            const Postpass& postpass) {
  CompressedStep step;
  step.codec_id = codec::kNumarckId;
  step.point_count = enc.point_count;
  step.payload = enc.serialize(postpass);
  step.stats = enc.stats;
  step.paper_ratio_pct = enc.paper_compression_ratio();
  step.index_bits = enc.index_bits;
  return step;
}

VariableCompressor::VariableCompressor(Options opts) : opts_(opts) {
  opts_.validate();
}

std::vector<double> VariableCompressor::prediction_base() const {
  if (opts_.predictor == Predictor::kLinear && !reference2_.empty()) {
    std::vector<double> base(reference_.size());
    for (std::size_t j = 0; j < base.size(); ++j) {
      base[j] = 2.0 * reference_[j] - reference2_[j];
    }
    return base;
  }
  return reference_;
}

CompressedStep VariableCompressor::push(std::span<const double> snapshot) {
  if (iter_ == 0) {
    CompressedStep step = CompressedStep::full_from(snapshot);
    reference_.assign(snapshot.begin(), snapshot.end());
    ++iter_;
    return step;
  }
  NUMARCK_EXPECT(snapshot.size() == reference_.size(),
                 "VariableCompressor: snapshot length changed mid-stream");
  const codec::Codec& c = codec::require(opts_.codec_id);
  codec::EncodeResult res = c.encode(snapshot, reference_, reference2_, opts_);
  CompressedStep step;
  step.codec_id = c.id();
  step.point_count = snapshot.size();
  step.payload = std::move(res.payload);
  step.stats = res.stats;
  step.paper_ratio_pct = res.paper_ratio_pct;
  if (c.id() == codec::kNumarckId) step.index_bits = opts_.index_bits;
  if (opts_.reference == Reference::kTruePrevious) {
    reference2_ = reference_;
    reference_.assign(snapshot.begin(), snapshot.end());
  } else {
    // Closed loop: predict the next iteration from what the decoder will
    // actually hold, so per-iteration bounds apply to the *absolute* state.
    std::vector<double> recon =
        c.decode(step.payload, reference_, reference2_, snapshot.size());
    reference2_ = std::move(reference_);
    reference_ = std::move(recon);
  }
  ++iter_;
  return step;
}

void VariableReconstructor::push(const CompressedStep& step) {
  const codec::Codec& c = codec::require(step.codec_id);
  NUMARCK_EXPECT(!step.is_full || !c.caps().temporal,
                 "reconstructor: full record with a temporal codec");
  NUMARCK_EXPECT(iter_ > 0 || starts_chain(step.is_full, step.codec_id),
                 "reconstructor: delta before the full record");
  std::vector<double> next =
      c.decode(step.payload, state_, state2_, step.point_count);
  if (step.is_full) {
    // A full record is always accepted: mid-stream it is a rebase (the
    // adaptive controller emits those), resetting the delta chain.
    state2_.clear();
  } else {
    state2_ = std::move(state_);
  }
  state_ = std::move(next);
  ++iter_;
}

bool starts_chain(bool is_full, std::uint8_t codec_id) noexcept {
  if (is_full) return true;
  const codec::Codec* c = codec::find(codec_id);
  return c != nullptr && !c->caps().temporal;
}

void ChainReplay::replay_to(std::size_t start, std::size_t target,
                            const RecordLoader& load) {
  NUMARCK_EXPECT(start <= target, "chain replay: start after the target");
  if (start_ != start || target + 1 < next_) {
    for (auto& r : recon_) r = VariableReconstructor{};
    start_ = start;
    next_ = start;
  }
  std::vector<CompressedStep> steps;
  try {
    for (; next_ <= target; ++next_) {
      steps.clear();
      load(next_, steps);
      NUMARCK_EXPECT(steps.size() == recon_.size(),
                     "chain replay: loader returned the wrong record count");
      for (std::size_t v = 0; v < steps.size(); ++v) recon_[v].push(steps[v]);
    }
  } catch (...) {
    start_.reset();
    throw;
  }
}

}  // namespace numarck::core
