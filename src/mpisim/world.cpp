#include "numarck/mpisim/world.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <thread>

#include "numarck/util/expect.hpp"

namespace numarck::mpisim {

namespace {

/// Internal signal thrown on the victim rank at its scheduled death and
/// caught by World::run — it models SIGKILL, so it must not be observable
/// as an ordinary error by rank_main (user code catching ContractViolation
/// or std::exception will not intercept it).
struct RankKilled {};

}  // namespace

// ------------------------------------------------------------------ World --

World::World(int size) : size_(size) {
  NUMARCK_EXPECT(size >= 1 && size <= 512, "world size out of [1,512]");
  ops_.assign(static_cast<std::size_t>(size), 0);
}

World::~World() = default;

void World::set_fault_plan(const FaultPlan& plan) {
  NUMARCK_EXPECT(plan.victim < size_, "fault plan victim outside the world");
  util::MutexLock lk(mu_);
  fault_plan_ = plan;
}

void World::set_timeout(std::chrono::milliseconds timeout) {
  NUMARCK_EXPECT(timeout.count() > 0, "world timeout must be positive");
  util::MutexLock lk(mu_);
  timeout_ = timeout;
}

std::vector<int> World::failed_ranks() const {
  util::MutexLock lk(mu_);
  return failed_ranks_;
}

void World::run(const std::function<void(Communicator&)>& rank_main) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size_));
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, r, &rank_main, &errors] {
      Communicator comm(this, r);
      try {
        rank_main(comm);
      } catch (const RankKilled&) {
        // Scheduled node death: already recorded in failed_ranks_ by
        // check_fault; a killed node reports nothing further.
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::uint64_t World::bytes_moved() const {
  // Previously a lock-free read: racy against post()/reduce_all() while a
  // run() is live. The annotations made the hole visible; take the lock.
  util::MutexLock lk(mu_);
  return bytes_moved_;
}

void World::check_fault(int rank) {
  util::UniqueLock lk(mu_);
  const std::size_t op = ops_[static_cast<std::size_t>(rank)]++;
  if (rank == fault_plan_.victim && op >= fault_plan_.at_op &&
      std::find(failed_ranks_.begin(), failed_ranks_.end(), rank) ==
          failed_ranks_.end()) {
    failed_ranks_.push_back(rank);
    cv_.notify_all();  // wake peers blocked on this rank
    lk.unlock();
    throw RankKilled{};
  }
}

void World::throw_if_poisoned_locked(const char* what) const {
  if (!failed_ranks_.empty()) {
    const int dead = failed_ranks_.front();
    throw RankFailedError(dead, std::string(what) + ": rank " +
                                    std::to_string(dead) + " failed");
  }
}

void World::wait_or_fail(util::UniqueLock& lk,
                         const std::function<bool()>& done, const char* what) {
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  while (!done()) {
    throw_if_poisoned_locked(what);
    if (cv_.wait_until(lk.native(), deadline) == std::cv_status::timeout &&
        !done()) {
      throw_if_poisoned_locked(what);
      throw RankFailedError(
          -1, std::string(what) + " timed out after " +
                  std::to_string(timeout_.count()) + " ms (hung peer?)");
    }
  }
}

void World::post(int source, int dest, int tag,
                 std::vector<std::uint8_t> payload) {
  check_fault(source);
  util::MutexLock lk(mu_);
  bytes_moved_ += payload.size();
  mailboxes_[{source, dest, tag}].messages.push_back(std::move(payload));
  cv_.notify_all();
}

std::vector<std::uint8_t> World::take(int source, int dest, int tag) {
  check_fault(dest);
  util::UniqueLock lk(mu_);
  auto& box = mailboxes_[{source, dest, tag}];
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  // A message posted before the sender died is still deliverable (matching
  // MPI: the send completed); only an EMPTY box from a dead source fails.
  while (box.messages.empty()) {
    if (std::find(failed_ranks_.begin(), failed_ranks_.end(), source) !=
        failed_ranks_.end()) {
      throw RankFailedError(source, "recv: source rank " +
                                        std::to_string(source) + " failed");
    }
    if (cv_.wait_until(lk.native(), deadline) == std::cv_status::timeout &&
        box.messages.empty()) {
      throw RankFailedError(-1, "recv timed out after " +
                                    std::to_string(timeout_.count()) +
                                    " ms (hung peer?)");
    }
  }
  auto payload = std::move(box.messages.front());
  box.messages.pop_front();
  return payload;
}

void World::enter_barrier(int rank) {
  check_fault(rank);
  util::UniqueLock lk(mu_);
  throw_if_poisoned_locked("barrier");
  const std::uint64_t gen = barrier_gen_;
  if (++barrier_waiting_ == size_) {
    barrier_waiting_ = 0;
    ++barrier_gen_;
    cv_.notify_all();
    return;
  }
  wait_or_fail(
      lk,
      [&] {
        mu_.assert_held();  // evaluated under the wait loop's lock
        return barrier_gen_ != gen;
      },
      "barrier");
}

std::vector<double> World::reduce_all(
    int rank, std::vector<double> local,
    const std::function<void(std::vector<double>&, const std::vector<double>&)>&
        combine) {
  check_fault(rank);
  util::UniqueLock lk(mu_);
  throw_if_poisoned_locked("allreduce");
  // Wait for the previous collective round to fully drain.
  wait_or_fail(
      lk,
      [&] {
        mu_.assert_held();
        return coll_arrived_ < size_;
      },
      "allreduce");
  const std::uint64_t gen = coll_gen_;
  bytes_moved_ += local.size() * sizeof(double);
  if (!coll_has_accum_) {
    coll_accum_ = std::move(local);
    coll_has_accum_ = true;
  } else {
    combine(coll_accum_, local);
  }
  if (++coll_arrived_ == size_) {
    coll_left_ = 0;
    cv_.notify_all();
  }
  wait_or_fail(
      lk,
      [&] {
        mu_.assert_held();
        return coll_arrived_ == size_ && coll_gen_ == gen;
      },
      "allreduce");
  std::vector<double> result = coll_accum_;
  bytes_moved_ += result.size() * sizeof(double);
  if (++coll_left_ == size_) {
    coll_arrived_ = 0;
    coll_has_accum_ = false;
    coll_accum_.clear();
    ++coll_gen_;
    cv_.notify_all();
  }
  return result;
}

std::vector<double> World::do_broadcast(int rank, std::vector<double> values,
                                        int root) {
  return reduce_all(rank, rank == root ? std::move(values) : std::vector<double>{},
                    [](std::vector<double>& acc, const std::vector<double>& in) {
                      if (acc.empty()) acc = in;
                      // If acc is the root's value already, empty contributions
                      // leave it untouched.
                      else if (!in.empty()) acc = in;
                    });
}

std::vector<std::vector<std::uint8_t>> World::do_gather(
    int rank, std::vector<std::uint8_t> payload, int root) {
  check_fault(rank);
  util::UniqueLock lk(mu_);
  throw_if_poisoned_locked("gather");
  wait_or_fail(
      lk,
      [&] {
        mu_.assert_held();
        return coll_arrived_ < size_;
      },
      "gather");
  const std::uint64_t gen = coll_gen_;
  if (coll_gather_.size() != static_cast<std::size_t>(size_)) {
    coll_gather_.assign(static_cast<std::size_t>(size_), {});
  }
  bytes_moved_ += payload.size();
  coll_gather_[static_cast<std::size_t>(rank)] = std::move(payload);
  if (++coll_arrived_ == size_) {
    coll_left_ = 0;
    cv_.notify_all();
  }
  wait_or_fail(
      lk,
      [&] {
        mu_.assert_held();
        return coll_arrived_ == size_ && coll_gen_ == gen;
      },
      "gather");
  std::vector<std::vector<std::uint8_t>> result;
  if (rank == root) result = coll_gather_;
  if (++coll_left_ == size_) {
    coll_arrived_ = 0;
    coll_gather_.clear();
    ++coll_gen_;
    cv_.notify_all();
  }
  return result;
}

// ----------------------------------------------------------- Communicator --

int Communicator::size() const noexcept { return world_->size_; }

void Communicator::send(int dest, int tag, std::vector<std::uint8_t> payload) {
  NUMARCK_EXPECT(dest >= 0 && dest < size(), "send: bad destination rank");
  world_->post(rank_, dest, tag, std::move(payload));
}

std::vector<std::uint8_t> Communicator::recv(int source, int tag) {
  NUMARCK_EXPECT(source >= 0 && source < size(), "recv: bad source rank");
  return world_->take(source, rank_, tag);
}

void Communicator::send_doubles(int dest, int tag,
                                std::span<const double> values) {
  std::vector<std::uint8_t> bytes(values.size() * sizeof(double));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  send(dest, tag, std::move(bytes));
}

std::vector<double> Communicator::recv_doubles(int source, int tag) {
  const auto bytes = recv(source, tag);
  NUMARCK_EXPECT(bytes.size() % sizeof(double) == 0,
                 "recv_doubles: payload not a double array");
  std::vector<double> values(bytes.size() / sizeof(double));
  std::memcpy(values.data(), bytes.data(), bytes.size());
  return values;
}

void Communicator::barrier() { world_->enter_barrier(rank_); }

double Communicator::allreduce_sum(double value) {
  return world_->reduce_all(rank_, {value},
                            [](std::vector<double>& a,
                               const std::vector<double>& b) { a[0] += b[0]; })[0];
}

double Communicator::allreduce_min(double value) {
  return world_->reduce_all(rank_, {value},
                            [](std::vector<double>& a, const std::vector<double>& b) {
                              a[0] = std::min(a[0], b[0]);
                            })[0];
}

double Communicator::allreduce_max(double value) {
  return world_->reduce_all(rank_, {value},
                            [](std::vector<double>& a, const std::vector<double>& b) {
                              a[0] = std::max(a[0], b[0]);
                            })[0];
}

std::uint64_t Communicator::allreduce_sum(std::uint64_t value) {
  // Exact for counts below 2^53; checkpoint point counts qualify.
  return static_cast<std::uint64_t>(
      allreduce_sum(static_cast<double>(value)) + 0.5);
}

std::vector<double> Communicator::allreduce_sum(std::span<const double> values) {
  return world_->reduce_all(
      rank_, std::vector<double>(values.begin(), values.end()),
      [](std::vector<double>& a, const std::vector<double>& b) {
        NUMARCK_EXPECT(a.size() == b.size(), "allreduce: length mismatch");
        for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
      });
}

std::vector<double> Communicator::broadcast(std::vector<double> values,
                                            int root) {
  NUMARCK_EXPECT(root >= 0 && root < size(), "broadcast: bad root");
  return world_->do_broadcast(rank_, std::move(values), root);
}

std::vector<std::vector<std::uint8_t>> Communicator::gather(
    std::vector<std::uint8_t> payload, int root) {
  NUMARCK_EXPECT(root >= 0 && root < size(), "gather: bad root");
  return world_->do_gather(rank_, std::move(payload), root);
}

}  // namespace numarck::mpisim
