// A fixed-size thread pool whose one entry point is fork_join.
//
// The pool is the shared-memory analogue of the MPI process group the paper's
// parallel K-means ran on: every data-parallel kernel in this repository
// (K-means assignment, histogram builds, guard-cell exchange, per-block hydro
// sweeps, per-shard compression) decomposes its index range over the pool
// through parallel_chunks (parallel_for.hpp), which is one fork_join.
//
// Design notes (C++ Core Guidelines CP.*):
//  * one shared job per fork_join call; helpers are posted under one lock,
//    and the caller claims chunks itself before it waits, so a chunk may
//    fork-join on the pool it runs in, to any depth;
//  * the worker queue holds only those helper posts; the destructor lets
//    the workers empty it (a post whose call has returned claims nothing)
//    and joins them (RAII, no detach);
//  * a process-wide default pool sized to the hardware concurrency is provided
//    for convenience, but every parallel API also accepts an explicit pool so
//    tests can pin determinism with a single-thread pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "numarck/util/thread_annotations.hpp"

namespace numarck::util {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (always >= 1).
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Chunk body of fork_join: `run(ctx, c)` processes chunk c.
  using ChunkFn = void (*)(void* ctx, std::size_t chunk);

  /// Runs run(ctx, c) once for every chunk c in [0, chunks) and returns when
  /// all of them have finished. One shared job holds an atomic chunk cursor
  /// and a done count; at most min(size(), chunks - 1) helpers are posted
  /// under one lock, and the calling thread claims chunks too before it
  /// waits on the done count. The caller therefore only ever waits on chunks
  /// that a running thread has claimed, so a chunk may itself call
  /// fork_join on this pool. When chunks throw, the exception of the lowest
  /// chunk index is rethrown, after every chunk has finished. After
  /// shutdown has begun, or in a child forked after the pool was built
  /// (which has no workers, and whose lock and condition variable may still
  /// record them), the caller runs every chunk itself.
  void fork_join(std::size_t chunks, ChunkFn run, void* ctx) EXCLUDES(mu_);

  /// Process-wide pool sized to hardware concurrency. Never destroyed before
  /// static teardown; safe to use from any library in this repo.
  static ThreadPool& global();

 private:
  class Job;  ///< one fork_join call's shared state

  void worker_loop() EXCLUDES(mu_);

  Mutex mu_;
  std::condition_variable cv_;
  std::deque<Job*> queue_ GUARDED_BY(mu_);  ///< one entry per helper post
  std::vector<std::thread> workers_;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::uint32_t forks_ = 0;  ///< fork count when the workers started
};

}  // namespace numarck::util
