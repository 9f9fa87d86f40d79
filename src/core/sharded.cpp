#include "numarck/core/sharded.hpp"

#include "numarck/util/expect.hpp"
#include "numarck/util/parallel_for.hpp"

namespace numarck::core {

double ShardedStep::incompressible_ratio() const {
  std::size_t exact = 0, total = 0;
  for (const auto& s : shard_steps) {
    if (!s.is_full) {
      exact += s.stats.exact_total();
      total += s.stats.total_points;
    }
  }
  return total ? static_cast<double>(exact) / static_cast<double>(total) : 0.0;
}

double ShardedStep::paper_compression_ratio() const {
  if (point_count == 0 || is_full()) return 0.0;
  // Each shard's Eq. 3 ratio (metrics::numarck_compression_ratio_percent,
  // as its codec reported it) charges its own 2^B - 1 table; weighting them
  // by shard size gives the ratio of the summed bit counts.
  double weighted = 0.0;
  for (const auto& s : shard_steps) {
    weighted += static_cast<double>(s.point_count) * s.paper_ratio_pct;
  }
  return weighted / static_cast<double>(point_count);
}

ShardedCompressor::ShardedCompressor(const ShardedOptions& opts) : opts_(opts) {
  NUMARCK_EXPECT(opts.shards >= 1, "need at least one shard");
  opts_.codec.validate();
  compressors_.reserve(opts.shards);
  Options shard_codec = opts_.codec;
  shard_codec.pool = opts_.pool;  // inner stages nest on the shard fan-out
  for (std::size_t s = 0; s < opts.shards; ++s) {
    compressors_.emplace_back(shard_codec);
  }
}

ShardedStep ShardedCompressor::push(std::span<const double> snapshot) {
  // Held for the whole step, including the joins: push() is the unit the
  // delta chains are consistent at, so a second caller must wait it out.
  util::MutexLock lk(mu_);
  if (boundaries_.empty()) {
    NUMARCK_EXPECT(snapshot.size() >= compressors_.size(),
                   "fewer points than shards");
    boundaries_.resize(compressors_.size() + 1);
    for (std::size_t s = 0; s <= compressors_.size(); ++s) {
      boundaries_[s] = s * snapshot.size() / compressors_.size();
    }
  }
  NUMARCK_EXPECT(snapshot.size() == boundaries_.back(),
                 "sharded: snapshot length changed mid-stream");

  ShardedStep out;
  out.point_count = snapshot.size();
  out.shard_steps.resize(compressors_.size());

  // Hand each chunk raw pointers to its own shards' state, carved out under
  // mu_; the chunk body itself touches no guarded member.
  VariableCompressor* comps = compressors_.data();
  const std::size_t* bounds = boundaries_.data();
  CompressedStep* slots = out.shard_steps.data();
  auto& pool = opts_.pool ? *opts_.pool : util::ThreadPool::global();
  util::parallel_chunks(
      pool, util::ChunkPlan(0, compressors_.size(), pool.size(), 1),
      [=](std::size_t, std::size_t s0, std::size_t s1) {
        for (std::size_t s = s0; s < s1; ++s) {
          slots[s] = comps[s].push(
              snapshot.subspan(bounds[s], bounds[s + 1] - bounds[s]));
        }
      });
  return out;
}

void ShardedReconstructor::push(const ShardedStep& step) {
  if (shards_.empty()) {
    shards_.resize(step.shard_steps.size());
  }
  NUMARCK_EXPECT(shards_.size() == step.shard_steps.size(),
                 "sharded: shard count changed mid-stream");
  state_.clear();
  state_.reserve(step.point_count);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].push(step.shard_steps[s]);
    const auto& part = shards_[s].state();
    state_.insert(state_.end(), part.begin(), part.end());
  }
}

}  // namespace numarck::core
