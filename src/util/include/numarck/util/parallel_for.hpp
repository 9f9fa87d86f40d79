// Data-parallel loop decomposition over a ThreadPool.
//
// ChunkPlan splits [begin, end) into contiguous chunks (MPI-style block
// decomposition, oversubscribed beyond the worker count for load balancing).
// parallel_chunks executes a plan as one ThreadPool::fork_join, the pool's
// only entry point: the caller claims chunks alongside the helpers it posts
// and returns when every chunk finished. parallel_reduce additionally
// combines per-chunk partial results with a user-supplied binary op in chunk
// order — the shared-memory analogue of MPI_Allreduce, deterministic for a
// fixed pool size. block_reduce does the same over a partition that does not
// depend on the pool at all, for sums that end up in a stored record.
//
// Thread-safety contract (checked by -Wthread-safety where expressible, see
// numarck/util/thread_annotations.hpp): these helpers take no locks of their
// own — correctness rests on chunks being disjoint index ranges, so workers
// never write the same element. A `body` that touches shared state beyond
// its [i0, i1) slice must bring its own annotated Mutex. A body may call
// these helpers again on the pool it runs in (the caller of a fork-join
// only waits on chunks a running thread has claimed). When chunks throw,
// the exception of the lowest chunk index is rethrown after every chunk
// has finished.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "numarck/util/thread_pool.hpp"

namespace numarck::util {

/// Minimum work per chunk before the loop bothers going parallel. Tuned so the
/// pool is not invoked for ranges where task overhead dominates.
inline constexpr std::size_t kParallelGrainSize = 4096;

/// Chunks per worker: skewed per-chunk work (e.g. exact-heavy regions of a
/// snapshot) is balanced by handing each worker several smaller chunks
/// instead of one big one.
inline constexpr std::size_t kParallelOversubscribe = 4;

/// Elements per block of block_reduce's fixed partition.
inline constexpr std::size_t kReduceBlock = kParallelGrainSize;

/// Workers a plan may actually exploit: asking for more threads than the
/// machine has cores just multiplies scheduling overhead (the seed's
/// BENCH_codec.json shows 8-thread encode *slower* than 1-thread on a 1-core
/// box purely from this). hardware_concurrency() may return 0 ("unknown");
/// treat that as no cap rather than as zero cores.
inline std::size_t effective_workers(std::size_t requested) noexcept {
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? requested : std::min(requested, hw);
}

/// A deterministic block decomposition of [begin, end). The chunk count
/// depends only on (range size, worker count, grain), never on runtime
/// scheduling, so per-chunk results can be combined in chunk order
/// reproducibly.
struct ChunkPlan {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunks = 1;
  std::size_t step = 0;

  ChunkPlan(std::size_t b, std::size_t e, std::size_t workers,
            std::size_t grain = kParallelGrainSize)
      : begin(b), end(e) {
    const std::size_t n = end > begin ? end - begin : 0;
    step = n;
    workers = effective_workers(workers);
    if (workers <= 1 || n < 2 * grain) return;
    // Floor (not ceil) n/grain: every chunk keeps at least `grain` points, so
    // tiny inputs never shatter into sub-grain slivers.
    const std::size_t max_useful = n / grain;
    chunks = std::min(workers * kParallelOversubscribe, max_useful);
    step = (n + chunks - 1) / chunks;
    chunks = (n + step - 1) / step;  // drop chunks the rounding left empty
  }

  /// Half-open index range of chunk c.
  [[nodiscard]] std::pair<std::size_t, std::size_t> bounds(
      std::size_t c) const noexcept {
    const std::size_t i0 = begin + c * step;
    const std::size_t i1 = std::min(end, i0 + step);
    return {i0, i1};
  }
};

/// Invokes body(c, i0, i1) for every chunk of `plan`; inline when the plan is
/// a single chunk or the pool has one worker.
template <typename Body>
void parallel_chunks(ThreadPool& pool, const ChunkPlan& plan, Body&& body) {
  if (plan.end <= plan.begin) return;
  if (plan.chunks <= 1 || pool.size() <= 1) {
    for (std::size_t c = 0; c < plan.chunks; ++c) {
      const auto [i0, i1] = plan.bounds(c);
      body(c, i0, i1);
    }
    return;
  }
  struct Call {
    const ChunkPlan& plan;
    std::remove_reference_t<Body>& body;
  } call{plan, body};
  pool.fork_join(
      plan.chunks,
      [](void* ctx, std::size_t c) {
        Call& self = *static_cast<Call*>(ctx);
        const auto [i0, i1] = self.plan.bounds(c);
        self.body(c, i0, i1);
      },
      &call);
}

/// Chunked reduction: `partial(i0, i1) -> T` computed per chunk into its own
/// slot, the slots combined with `combine(T, T) -> T` in chunk order
/// (deterministic for a fixed pool size).
template <typename T, typename Partial, typename Combine>
T parallel_reduce(ThreadPool& pool, std::size_t begin, std::size_t end, T init,
                  Partial&& partial, Combine&& combine) {
  if (end <= begin) return init;
  const ChunkPlan plan(begin, end, pool.size());
  std::vector<std::optional<T>> parts(plan.chunks);
  parallel_chunks(pool, plan,
                  [&](std::size_t c, std::size_t i0, std::size_t i1) {
                    parts[c].emplace(partial(i0, i1));
                  });
  T acc = std::move(init);
  for (std::optional<T>& part : parts) {
    acc = combine(std::move(acc), std::move(*part));
  }
  return acc;
}

/// Reduction whose result does not depend on the pool: [begin, end) splits
/// into blocks of kReduceBlock elements counted from `begin`,
/// `partial(i0, i1) -> T` runs once per block (the pool only decides which
/// worker runs which blocks), and the block results combine left to right in
/// block order. A floating-point sum therefore rounds the same at every pool
/// size, serial included. T must be default-constructible.
template <typename T, typename Partial, typename Combine>
T block_reduce(ThreadPool& pool, std::size_t begin, std::size_t end, T init,
               Partial&& partial, Combine&& combine) {
  if (end <= begin) return init;
  const std::size_t blocks = (end - begin + kReduceBlock - 1) / kReduceBlock;
  std::vector<T> parts(blocks);
  parallel_chunks(pool, ChunkPlan(0, blocks, pool.size(), 1),
                  [&](std::size_t, std::size_t b0, std::size_t b1) {
                    for (std::size_t b = b0; b < b1; ++b) {
                      const std::size_t i0 = begin + b * kReduceBlock;
                      parts[b] = partial(i0, std::min(end, i0 + kReduceBlock));
                    }
                  });
  T acc = std::move(init);
  for (T& part : parts) acc = combine(std::move(acc), std::move(part));
  return acc;
}

}  // namespace numarck::util
