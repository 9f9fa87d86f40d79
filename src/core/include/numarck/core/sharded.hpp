// Sharded (per-rank) compression — the paper's deployment model made
// explicit. At scale, each MPI process compresses its local partition
// independently ("minimal data movement, mostly in place", §I/§II): no
// global communication, but every shard pays for its own 2^B - 1 bin table
// and learns only its local change distribution. ShardedCompressor
// reproduces that trade-off on shared memory: the snapshot is split into
// contiguous shards, each with an independent VariableCompressor, and one
// fork-join over the pool pushes them. Each shard's own stages fork-join on
// the same pool from inside their chunk; their bytes do not depend on the
// pool size. The ext_sharding bench quantifies the compression-ratio cost
// of locality against the single-table baseline.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "numarck/core/compressor.hpp"
#include "numarck/util/thread_annotations.hpp"

namespace numarck::core {

struct ShardedOptions {
  Options codec;
  std::size_t shards = 4;               ///< simulated process count
  util::ThreadPool* pool = nullptr;     ///< null = process-global pool
};

/// One iteration's output across all shards.
struct ShardedStep {
  std::vector<CompressedStep> shard_steps;  ///< in shard order
  std::size_t point_count = 0;

  /// Aggregate incompressible ratio across shards.
  [[nodiscard]] double incompressible_ratio() const;

  /// Paper Eq. 3 per shard (each shard charges its own full 2^B - 1 table —
  /// the locality cost), averaged with the shards' point counts as weights.
  [[nodiscard]] double paper_compression_ratio() const;

  /// True when this is the first (lossless full) iteration.
  [[nodiscard]] bool is_full() const {
    return !shard_steps.empty() && shard_steps.front().is_full;
  }
};

class ShardedCompressor {
 public:
  explicit ShardedCompressor(const ShardedOptions& opts);

  /// Compresses the next snapshot; shards run concurrently on the pool.
  /// May be called from inside a chunk of that same pool.
  /// Serialized by mu_: interleaving two push() calls would corrupt every
  /// shard's delta chain, so concurrent callers queue up instead.
  ShardedStep push(std::span<const double> snapshot) EXCLUDES(mu_);

  [[nodiscard]] std::size_t shard_count() const EXCLUDES(mu_) {
    util::MutexLock lk(mu_);
    return compressors_.size();
  }

 private:
  ShardedOptions opts_;
  /// Guards the stream state below. Within one push() the elements of
  /// compressors_ are lent to pool chunks one-per-shard (disjoint, never
  /// aliased), which the analysis cannot express; the chunks therefore
  /// receive raw element pointers captured while mu_ is held.
  mutable util::Mutex mu_;
  std::vector<VariableCompressor> compressors_ GUARDED_BY(mu_);
  /// Size shards+1, set on first push.
  std::vector<std::size_t> boundaries_ GUARDED_BY(mu_);
};

class ShardedReconstructor {
 public:
  /// Replays a sharded step; must be fed the exact sequence produced.
  void push(const ShardedStep& step);

  /// Reassembled full snapshot.
  [[nodiscard]] const std::vector<double>& state() const noexcept {
    return state_;
  }

 private:
  std::vector<VariableReconstructor> shards_;
  std::vector<double> state_;
};

}  // namespace numarck::core
