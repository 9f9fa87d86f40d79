// Clang thread-safety capability annotations and annotated lock types.
//
// Clang's -Wthread-safety analysis (enabled by -DNUMARCK_THREAD_SAFETY=ON,
// see cmake/NumarckFlags.cmake and docs/ANALYSIS.md) proves lock discipline
// at compile time: every access to a GUARDED_BY member must happen with its
// mutex held, and every REQUIRES function must be called under the lock it
// names. The analysis only understands types it can see capability
// annotations on, and libstdc++'s std::mutex carries none — so this header
// supplies a thin annotated Mutex plus two scoped lock types, and the
// concurrency layer (ThreadPool, mpisim::World, ShardedCompressor,
// AdaptiveCheckpointer) holds its locks exclusively through them.
//
// Under GCC (or any compiler without the attributes) every macro expands to
// nothing and the lock types degrade to plain std::mutex wrappers with zero
// overhead; the annotations are a Clang-only compile-time contract, never a
// runtime feature.
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define NUMARCK_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef NUMARCK_THREAD_ANNOTATION_
#define NUMARCK_THREAD_ANNOTATION_(x)  // not Clang: annotations compile away
#endif

#define CAPABILITY(x) NUMARCK_THREAD_ANNOTATION_(capability(x))
#define SCOPED_CAPABILITY NUMARCK_THREAD_ANNOTATION_(scoped_lockable)
#define GUARDED_BY(x) NUMARCK_THREAD_ANNOTATION_(guarded_by(x))
#define PT_GUARDED_BY(x) NUMARCK_THREAD_ANNOTATION_(pt_guarded_by(x))
#define ACQUIRED_AFTER(...) \
  NUMARCK_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define REQUIRES(...) \
  NUMARCK_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) \
  NUMARCK_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define RELEASE(...) \
  NUMARCK_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  NUMARCK_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) NUMARCK_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) NUMARCK_THREAD_ANNOTATION_(assert_capability(x))
#define RETURN_CAPABILITY(x) NUMARCK_THREAD_ANNOTATION_(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  NUMARCK_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace numarck::util {

class UniqueLock;

/// std::mutex with the capability attribute the analysis needs. Use
/// MutexLock for plain critical sections and UniqueLock where a
/// condition_variable must wait on the lock.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Tells the analysis this mutex is held without acquiring it. The one
  /// legitimate use is the top of a predicate lambda evaluated by a wait
  /// loop that already holds the lock (see World::wait_or_fail) — the
  /// analysis cannot see through the lambda boundary.
  void assert_held() const ASSERT_CAPABILITY(this) {}

 private:
  friend class UniqueLock;
  std::mutex mu_;
};

/// RAII critical section (std::lock_guard with annotations).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Annotated std::unique_lock: supports early unlock and exposes the native
/// handle so std::condition_variable can wait on it. The analysis treats the
/// capability as held across a wait — which is exactly the caller-visible
/// contract: the predicate and the code after wait() run with the lock held.
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) ACQUIRE(mu) : lk_(mu.mu_) {}
  ~UniqueLock() RELEASE() {}

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() ACQUIRE() { lk_.lock(); }
  void unlock() RELEASE() { lk_.unlock(); }

  /// For std::condition_variable::wait/wait_until only.
  [[nodiscard]] std::unique_lock<std::mutex>& native() noexcept { return lk_; }

 private:
  std::unique_lock<std::mutex> lk_;
};

}  // namespace numarck::util
