// A fixed-size work-stealing-free thread pool with a shared task queue.
//
// The pool is the shared-memory analogue of the MPI process group the paper's
// parallel K-means ran on: every data-parallel kernel in this repository
// (K-means assignment, histogram builds, guard-cell exchange, per-block hydro
// sweeps) decomposes its index range over the pool via parallel_for.
//
// Design notes (C++ Core Guidelines CP.*):
//  * tasks are type-erased std::function<void()>; submit() returns a
//    std::future so callers can propagate exceptions;
//  * fork_join() is the data-parallel entry (parallel_for.hpp builds on it):
//    one shared job per call, helpers posted under one lock, and the caller
//    claims chunks itself before it waits, so a chunk may fork-join on the
//    pool it runs in;
//  * the destructor drains the queue and joins all workers (RAII, no detach);
//  * a process-wide default pool sized to the hardware concurrency is provided
//    for convenience, but every parallel API also accepts an explicit pool so
//    tests can pin determinism with a single-thread pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
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

  /// Enqueues a callable; the returned future carries its result or exception.
  /// Racing a concurrent destructor is well defined: either the task is
  /// enqueued (and its future will be satisfied — the destructor drains the
  /// queue before the workers exit) or submit throws std::runtime_error.
  /// Never call this while holding a lock a queued task needs (EXCLUDES
  /// guards against self-deadlock through mu_ itself).
  template <typename F, typename... Args>
  auto submit(F&& f, Args&&... args)
      -> std::future<std::invoke_result_t<F, Args...>> EXCLUDES(mu_) {
    using R = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(f),
         tup = std::make_tuple(std::forward<Args>(args)...)]() mutable {
          return std::apply(std::move(fn), std::move(tup));
        });
    std::future<R> fut = task->get_future();
    {
      MutexLock lk(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

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
  void worker_loop() EXCLUDES(mu_);

  Mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::uint32_t forks_ = 0;  ///< fork count when the workers started
};

}  // namespace numarck::util
