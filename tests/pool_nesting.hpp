// Test helper: runs a fan-out from inside every chunk of a fork_join that
// occupies its whole pool, in a child process with a bounded run time, so
// a caller that waits on pool work it cannot run itself fails the test
// instead of hanging it.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdlib>
#include <latch>

#include "numarck/util/thread_pool.hpp"

namespace numarck::test_support {

/// Builds a pool of `workers` threads and fork-joins workers + 1 chunks on
/// it. A latch holds every chunk until all of them are running, so the
/// workers and the caller each hold one; then each chunk runs body(pool).
template <typename Body>
void run_inside_every_chunk(std::size_t workers, Body& body) {
  util::ThreadPool pool(workers);
  std::latch all_in(static_cast<std::ptrdiff_t>(workers + 1));
  struct Ctx {
    util::ThreadPool& pool;
    std::latch& all_in;
    Body& body;
  } ctx{pool, all_in, body};
  pool.fork_join(
      workers + 1,
      [](void* p, std::size_t) {
        Ctx& c = *static_cast<Ctx*>(p);
        c.all_in.arrive_and_wait();
        c.body(c.pool);
      },
      &ctx);
}

/// Expects run_inside_every_chunk(workers, body) to return within 60 s. It
/// runs in a child that re-executes the test binary (a forked copy of this
/// process would inherit the locks of its pools but not their threads, and
/// TSan refuses to start threads there); SIGALRM ends a child that hangs.
template <typename Body>
void expect_finishes_inside_every_chunk(std::size_t workers, Body body) {
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
  EXPECT_EXIT(
      {
        ::alarm(60);
        run_inside_every_chunk(workers, body);
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace numarck::test_support
