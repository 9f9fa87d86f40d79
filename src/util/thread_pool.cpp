#include "numarck/util/thread_pool.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>

#include "numarck/util/expect.hpp"

namespace numarck::util {

/// The state one fork_join call shares with its helpers. It lives on the
/// heap and counts its references: a helper that the queue hands out after
/// the caller has returned still finds a live job, with no chunk left to
/// claim, so it never touches the caller's (gone) context.
class ThreadPool::Job {
 public:
  Job(std::size_t chunks, ChunkFn run, void* ctx)
      : chunks_(static_cast<std::uint32_t>(chunks)), run_(run), ctx_(ctx) {}

  void add_refs(std::size_t n) noexcept {
    refs_.fetch_add(static_cast<std::uint32_t>(n), std::memory_order_relaxed);
  }

  void release() noexcept {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  /// Claims and runs chunks until none is left.
  void work() noexcept {
    for (;;) {
      const std::uint32_t c = next_.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks_) return;
      try {
        run_(ctx_, c);
      } catch (...) {
        MutexLock lk(err_mu_);
        if (!err_ || c < err_chunk_) {
          err_ = std::current_exception();
          err_chunk_ = c;
        }
      }
      // Release: the chunk's writes happen before the caller's acquire.
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks_) {
        done_.notify_all();
      }
    }
  }

  /// Blocks until every chunk has finished; returns the exception of the
  /// lowest chunk that threw (null when none did).
  std::exception_ptr wait() {
    for (std::uint32_t d = done_.load(std::memory_order_acquire); d < chunks_;
         d = done_.load(std::memory_order_acquire)) {
      done_.wait(d, std::memory_order_acquire);
    }
    MutexLock lk(err_mu_);
    return err_;
  }

 private:
  const std::uint32_t chunks_;
  const ChunkFn run_;
  void* const ctx_;
  std::atomic<std::uint32_t> next_{0};
  std::atomic<std::uint32_t> done_{0};  // 32-bit: waits on a plain futex
  std::atomic<std::uint32_t> refs_{1};  // the caller's
  Mutex err_mu_;
  std::exception_ptr err_ GUARDED_BY(err_mu_);
  std::uint32_t err_chunk_ GUARDED_BY(err_mu_) = 0;
};

namespace {

/// Bumped in the child of every fork(): fork copies only the calling
/// thread, so a pool built before it has no workers there.
std::atomic<std::uint32_t> g_forks{0};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  static const int atfork = ::pthread_atfork(nullptr, nullptr, [] {
    g_forks.fetch_add(1, std::memory_order_relaxed);
  });
  NUMARCK_EXPECT(atfork == 0, "ThreadPool: pthread_atfork failed");
  forks_ = g_forks.load(std::memory_order_relaxed);
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      UniqueLock lk(mu_);
      while (!stopping_ && queue_.empty()) cv_.wait(lk.native());
      // Exit only on an empty queue: every post holds a job reference,
      // which only running the post drops.
      if (queue_.empty()) return;
      job = queue_.front();
      queue_.pop_front();
    }
    job->work();  // catches everything a chunk throws
    job->release();
  }
}

void ThreadPool::fork_join(std::size_t chunks, ChunkFn run, void* ctx) {
  if (chunks == 0) return;
  NUMARCK_EXPECT(chunks <= std::numeric_limits<std::uint32_t>::max(),
                 "fork_join: too many chunks");
  auto* job = new Job(chunks, run, ctx);
  const std::size_t want = std::min(size(), chunks - 1);
  std::size_t posted = 0;
  if (forks_ == g_forks.load(std::memory_order_relaxed)) {
    MutexLock lk(mu_);
    if (!stopping_) {
      try {
        for (; posted < want; ++posted) queue_.push_back(job);
      } catch (...) {
        // Out of memory for the queue: fewer helpers, the caller runs the
        // rest. Nothing posted can run before the lock drops.
      }
      job->add_refs(posted);
    }
  }
  for (std::size_t i = 0; i < posted; ++i) cv_.notify_one();
  job->work();
  const std::exception_ptr err = job->wait();
  job->release();
  if (err) std::rethrow_exception(err);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;  // intentionally leaked-at-exit via static storage
  return pool;
}

}  // namespace numarck::util
