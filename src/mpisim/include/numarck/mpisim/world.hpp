// A simulated message-passing runtime: the substrate for reproducing the
// paper's *distributed* algorithms on one machine.
//
// The paper's clustering stage runs their MPI parallel K-means [1][13], and
// the whole pipeline is designed for per-process local computation with a
// handful of collectives ("minimal data movement, mostly in place"). We
// model that faithfully: World spawns N ranks as threads, each executing the
// same rank_main with its own Communicator; Communicators provide the MPI
// subset the algorithms need — point-to-point send/recv with tags, barrier,
// broadcast, allreduce (sum/min/max, scalar and vector) and gather — built
// on mailboxes and generation-counted barriers. Collective semantics match
// MPI: every rank must call the collective, in the same order.
//
// The runtime also meters traffic: bytes sent point-to-point and through
// collectives are counted per World, so the benches can report *data
// movement* — the paper's currency — not just wall time.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "numarck/util/thread_annotations.hpp"

namespace numarck::mpisim {

class World;

/// Raised on a *surviving* rank when a peer it depends on has died (or a
/// wait exceeded the world's timeout — indistinguishable from a hung peer).
/// This is the node-death signal of the paper's resiliency story: instead
/// of deadlocking in a collective that can never complete, every survivor
/// gets this error and can fall back to restart-from-last-complete
/// (distributed::recover_from_checkpoint).
class RankFailedError : public std::runtime_error {
 public:
  RankFailedError(int rank, const std::string& what)
      : std::runtime_error(what), rank_(rank) {}

  /// The rank observed dead, or -1 when only the timeout fired.
  [[nodiscard]] int rank() const noexcept { return rank_; }

 private:
  int rank_;
};

/// Deterministic node-death injection: kill `victim` when it begins its
/// `at_op`-th communication operation (sends, recvs, and collective entries
/// all count, per rank, starting at 0). The victim dies exactly as a killed
/// process does: no further sends, no collective participation, no error
/// handling of its own — survivors discover the death through
/// RankFailedError on their next dependent operation.
struct FaultPlan {
  int victim = -1;        ///< rank to kill; -1 disables fault injection
  std::size_t at_op = 0;  ///< operation index at which the victim dies
};

class Communicator {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;

  /// Point-to-point: blocking send/recv matched by (source, tag).
  void send(int dest, int tag, std::vector<std::uint8_t> payload);
  [[nodiscard]] std::vector<std::uint8_t> recv(int source, int tag);

  /// Typed convenience overloads.
  void send_doubles(int dest, int tag, std::span<const double> values);
  [[nodiscard]] std::vector<double> recv_doubles(int source, int tag);

  /// Collectives (every rank must participate, same order).
  void barrier();
  [[nodiscard]] double allreduce_sum(double value);
  [[nodiscard]] double allreduce_min(double value);
  [[nodiscard]] double allreduce_max(double value);
  [[nodiscard]] std::uint64_t allreduce_sum(std::uint64_t value);
  /// Element-wise vector sum across ranks (all ranks pass equal lengths).
  [[nodiscard]] std::vector<double> allreduce_sum(std::span<const double> values);
  /// Root's vector is distributed to everyone.
  [[nodiscard]] std::vector<double> broadcast(std::vector<double> values,
                                              int root);
  /// Every rank's payload collected at root (rank order); non-roots get {}.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> gather(
      std::vector<std::uint8_t> payload, int root);

 private:
  friend class World;
  Communicator(World* world, int rank) : world_(world), rank_(rank) {}
  World* world_;
  int rank_;
};

class World {
 public:
  explicit World(int size);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const noexcept { return size_; }

  /// Runs rank_main once per rank, concurrently; returns when all ranks
  /// finish. Exceptions from any rank are collected and the first rethrown.
  /// A rank killed by the fault plan is NOT an exception: its death is
  /// recorded in failed_ranks() and run() returns normally once every other
  /// rank finished (or raised RankFailedError through rank_main).
  void run(const std::function<void(Communicator&)>& rank_main);

  /// Schedules a node death for the next run(). A world whose fault has
  /// fired stays poisoned (all collectives fail fast); build a fresh World
  /// to model the post-recovery job.
  void set_fault_plan(const FaultPlan& plan);

  /// Upper bound on any blocking wait (default 10 s): a recv or collective
  /// that cannot complete raises RankFailedError instead of hanging.
  void set_timeout(std::chrono::milliseconds timeout);

  /// Ranks that died under the fault plan, in the order they died.
  [[nodiscard]] std::vector<int> failed_ranks() const;

  /// Total bytes moved between ranks so far (point-to-point + collectives).
  /// Takes the world lock: safe to call while ranks are still communicating.
  [[nodiscard]] std::uint64_t bytes_moved() const;

 private:
  friend class Communicator;

  struct Mailbox {
    std::deque<std::vector<std::uint8_t>> messages;
  };

  // --- fault machinery ---
  /// Counts an operation for `rank`; kills it (internal signal caught by
  /// run()) when the fault plan says so.
  void check_fault(int rank) EXCLUDES(mu_);
  /// Throws RankFailedError when any rank has died (collectives can never
  /// complete after a death). Caller holds mu_.
  void throw_if_poisoned_locked(const char* what) const REQUIRES(mu_);
  /// Waits on cv_ until `done` holds; throws RankFailedError on rank death
  /// or timeout. Caller holds mu_ via `lk`. `done` is evaluated with mu_
  /// held: predicates reading guarded state start with mu_.assert_held().
  void wait_or_fail(util::UniqueLock& lk, const std::function<bool()>& done,
                    const char* what) REQUIRES(mu_);

  // --- point to point ---
  void post(int source, int dest, int tag, std::vector<std::uint8_t> payload);
  std::vector<std::uint8_t> take(int source, int dest, int tag);

  // --- collectives ---
  void enter_barrier(int rank);
  /// Generic reduce-all: each rank contributes `local`; `combine` folds the
  /// contributions (associative); all ranks receive the result.
  std::vector<double> reduce_all(
      int rank, std::vector<double> local,
      const std::function<void(std::vector<double>&, const std::vector<double>&)>&
          combine);
  std::vector<double> do_broadcast(int rank, std::vector<double> values,
                                   int root);
  std::vector<std::vector<std::uint8_t>> do_gather(
      int rank, std::vector<std::uint8_t> payload, int root);

  int size_;  ///< immutable after construction, read lock-free
  mutable util::Mutex mu_;
  std::condition_variable cv_;
  std::map<std::tuple<int, int, int>, Mailbox> mailboxes_ GUARDED_BY(mu_);

  // Barrier and collective state (generation counted).
  std::uint64_t barrier_gen_ GUARDED_BY(mu_) = 0;
  int barrier_waiting_ GUARDED_BY(mu_) = 0;
  std::uint64_t coll_gen_ GUARDED_BY(mu_) = 0;
  int coll_arrived_ GUARDED_BY(mu_) = 0;
  int coll_left_ GUARDED_BY(mu_) = 0;
  std::vector<double> coll_accum_ GUARDED_BY(mu_);
  std::vector<std::vector<std::uint8_t>> coll_gather_ GUARDED_BY(mu_);
  bool coll_has_accum_ GUARDED_BY(mu_) = false;

  // Fault state.
  FaultPlan fault_plan_ GUARDED_BY(mu_);
  /// Per-rank communication op counter.
  std::vector<std::size_t> ops_ GUARDED_BY(mu_);
  /// Ranks killed by the fault plan.
  std::vector<int> failed_ranks_ GUARDED_BY(mu_);
  std::chrono::milliseconds timeout_ GUARDED_BY(mu_){10000};

  std::uint64_t bytes_moved_ GUARDED_BY(mu_) = 0;
};

}  // namespace numarck::mpisim
