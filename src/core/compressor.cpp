#include "numarck/core/compressor.hpp"

#include <utility>

#include "numarck/codec/codec.hpp"
#include "numarck/lossless/fpc.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/parallel_for.hpp"

namespace numarck::core {

CompressedStep CompressedStep::full_from(std::span<const double> snapshot) {
  CompressedStep step;
  step.codec_id = codec::kFpcId;
  step.is_full = true;
  step.point_count = snapshot.size();
  step.payload = lossless::fpc_compress(snapshot);
  return step;
}

VariableCompressor::VariableCompressor(Options opts) : opts_(opts) {
  opts_.validate();
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
  CompressedStep step = c.encode(snapshot, reference_, reference2_, opts_);
  // Only the linear predictor reads D_{i-2}; otherwise reference2_ stays
  // empty and the reference is overwritten in place.
  const bool keep2 = opts_.predictor == Predictor::kLinear;
  if (opts_.reference == Reference::kTruePrevious) {
    if (keep2) std::swap(reference2_, reference_);
    reference_.assign(snapshot.begin(), snapshot.end());
  } else {
    // Closed loop: predict the next iteration from what the decoder will
    // actually hold, so per-iteration bounds apply to the *absolute* state.
    std::vector<double> recon =
        c.decode(step.payload, reference_, reference2_, snapshot.size());
    if (keep2) reference2_ = std::move(reference_);
    reference_ = std::move(recon);
  }
  ++iter_;
  return step;
}

void VariableReconstructor::push(const CompressedStep& step,
                                 bool keep_previous) {
  const codec::Codec& c = codec::require(step.codec_id);
  NUMARCK_EXPECT(!step.is_full || !c.caps().temporal,
                 "reconstructor: full record with a temporal codec");
  NUMARCK_EXPECT(iter_ > 0 || starts_chain(step.is_full, step.codec_id),
                 "reconstructor: delta before the full record");
  // A full record is always accepted: mid-stream it is a rebase (the
  // adaptive controller emits those), resetting the delta chain.
  const bool keep = keep_previous && !step.is_full;
  if (c.caps().temporal && !c.reads_previous2(step.payload)) {
    if (keep) {
      state2_.assign(state_.begin(), state_.end());
    } else {
      state2_.clear();
    }
    try {
      c.decode_in_place(step.payload, state_, step.point_count);
    } catch (...) {
      *this = VariableReconstructor{};
      throw;
    }
  } else {
    std::vector<double> out =
        c.decode(step.payload, state_, state2_, step.point_count);
    if (keep) {
      std::swap(state2_, state_);
    } else {
      state2_.clear();
    }
    state_ = std::move(out);
  }
  ++iter_;
}

std::vector<double> VariableReconstructor::release_state() noexcept {
  std::vector<double> out = std::move(state_);
  *this = VariableReconstructor{};
  return out;
}

bool reads_previous2(const CompressedStep& step) noexcept {
  const codec::Codec* c = codec::find(step.codec_id);
  return c == nullptr || (!step.is_full && c->reads_previous2(step.payload));
}

bool starts_chain(bool is_full, std::uint8_t codec_id) noexcept {
  if (is_full) return true;
  const codec::Codec* c = codec::find(codec_id);
  return c != nullptr && !c->caps().temporal;
}

ChainReplay::ChainReplay(const std::vector<std::size_t>& starts)
    : chains_(starts.size()) {
  for (std::size_t v = 0; v < starts.size(); ++v) {
    chains_[v].start = chains_[v].next = starts[v];
  }
}

void ChainReplay::replay_to(std::size_t target, const Loader& load) {
  advance(target, load, /*keep_at_target=*/true);
}

std::vector<std::vector<double>> ChainReplay::restore(std::size_t target,
                                                      const Loader& load) {
  advance(target, load, /*keep_at_target=*/false);
  std::vector<std::vector<double>> out;
  out.reserve(chains_.size());
  for (Chain& c : chains_) out.push_back(c.recon.release_state());
  reset();
  return out;
}

void ChainReplay::reset() noexcept {
  for (Chain& c : chains_) {
    c.recon = VariableReconstructor{};
    c.next = c.start;
  }
  started_ = false;
}

void ChainReplay::advance(std::size_t target, const Loader& load,
                          bool keep_at_target) {
  const auto replay = [&](std::size_t v) {
    Chain& c = chains_[v];
    if (c.next > target) return;
    CompressedStep step = load(v, c.next);
    for (; c.next <= target; ++c.next) {
      const bool last = c.next == target;
      CompressedStep ahead;
      if (!last) ahead = load(v, c.next + 1);
      c.recon.push(step, last ? keep_at_target : reads_previous2(ahead));
      step = std::move(ahead);
    }
  };
  try {
    for (const Chain& c : chains_) {
      NUMARCK_EXPECT(c.start <= target && c.next <= target + 1,
                     "chain replay: target before a variable's position");
    }
    if (!started_) {
      for (std::size_t v = 0; v < chains_.size(); ++v) {
        chains_[v].recon.push(load(v, chains_[v].start),
                              /*keep_previous=*/false);
        ++chains_[v].next;
      }
      started_ = true;
    }
    util::ThreadPool& pool = util::ThreadPool::global();
    util::parallel_chunks(
        pool, util::ChunkPlan(0, chains_.size(), pool.size(), 1),
        [&](std::size_t, std::size_t v0, std::size_t v1) {
          for (std::size_t v = v0; v < v1; ++v) replay(v);
        });
  } catch (...) {
    reset();
    throw;
  }
}

}  // namespace numarck::core
