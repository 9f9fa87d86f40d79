// Fault injection for the I/O layer, one model for every injected fault.
// A FaultPlan is shared by every file of one simulated process and decides
// when a wrapped file tears, dies or errors; it also counts what passed
// through, which is how the crash trials size their byte budgets.
// FaultySink and FaultySource are the only wrappers. The crash harness
// (tools/numarck-crashtest), the store's sink_factory seam and the
// durability tests all build on them.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "numarck/io/byte_source.hpp"
#include "numarck/io/durable_file.hpp"

namespace numarck::io {

/// What to inject into the files of one simulated process, and counters of
/// what went through them. Configure it before the first file is wrapped;
/// after that it is shared across threads (the store's writer and
/// compactor, parallel restores) and only its atomic counters change.
/// A plan with nothing configured injects nothing and only counts.
class FaultPlan {
 public:
  enum class Op : std::uint8_t { kWrite = 0, kSync = 1, kClose = 2, kRead = 3 };

  enum class Death : std::uint8_t {
    kThrow = 0,    ///< throw InjectedCrash: deterministic in-process trials
    kSigkill = 1,  ///< raise(SIGKILL): forked children, no unwinding at all
  };

  /// The process dies when its total write stream, summed over every file
  /// of the plan, crosses `byte`: the write that crosses it lands only its
  /// bytes below `byte` (a byte-exact torn record), then `death` strikes.
  FaultPlan& crash_at(std::uint64_t byte, Death death);

  /// Fails the (`after`+1)-th `op` across the plan's files, and every later
  /// one, with ContractViolation carrying strerror(`err`), exactly as the
  /// file classes surface a real ENOSPC or EIO. Persistent, like the real
  /// condition: a disk that filled up stays full.
  FaultPlan& fail(Op op, std::size_t after, int err);

  /// Restricts the plan to files whose path ends in `suffix` (empty: every
  /// file). faulty_files() opens the other paths as plain FileSinks.
  FaultPlan& only_paths_ending(std::string suffix);

  [[nodiscard]] bool applies_to(const std::string& path) const noexcept {
    return path.ends_with(suffix_);
  }

  /// Bytes offered to the plan's sinks, a torn write counted whole.
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return written_.load(std::memory_order_relaxed);
  }

  /// Calls of `op` made through the plan's files so far.
  [[nodiscard]] std::size_t calls(Op op) const noexcept {
    return calls_[static_cast<std::size_t>(op)].load(
        std::memory_order_relaxed);
  }

 private:
  friend class FaultySink;
  friend class FaultySource;

  /// Counts one `op`; throws the injected errno when it is scheduled.
  void count(Op op);
  /// Counts a write of `size` bytes; returns how many of them land before
  /// the crash point (all of them when the write does not cross it).
  [[nodiscard]] std::size_t admit(std::size_t size);
  [[noreturn]] void die() const;

  std::uint64_t crash_byte_ = UINT64_MAX;
  Death death_ = Death::kThrow;
  Op fail_op_ = Op::kWrite;
  std::size_t fail_after_ = SIZE_MAX;
  int err_ = 0;
  std::string suffix_;
  std::atomic<std::uint64_t> written_{0};
  std::array<std::atomic<std::size_t>, 4> calls_{};
};

/// A sink that runs every operation past its plan first. After its own
/// crash point it drops every further operation silently, as a dead
/// process writes nothing more.
class FaultySink final : public ByteSink {
 public:
  FaultySink(std::unique_ptr<ByteSink> inner, std::shared_ptr<FaultPlan> plan);

  void write(const void* data, std::size_t size) override;
  void sync() override;
  void close() override;

 private:
  std::unique_ptr<ByteSink> inner_;
  std::shared_ptr<FaultPlan> plan_;
  bool dead_ = false;
};

/// A source that counts every read_at against its plan and fails the
/// scheduled ones: a disk that goes bad between the scan and a payload
/// load. size() and name() always pass through.
class FaultySource final : public ByteSource {
 public:
  FaultySource(std::unique_ptr<ByteSource> inner,
               std::shared_ptr<FaultPlan> plan);

  [[nodiscard]] std::uint64_t size() const noexcept override {
    return inner_->size();
  }
  void read_at(std::uint64_t offset, void* out, std::size_t size) override;
  [[nodiscard]] const std::string& name() const noexcept override {
    return inner_->name();
  }

 private:
  std::unique_ptr<ByteSource> inner_;
  std::shared_ptr<FaultPlan> plan_;
};

/// A SinkFactory (for StoreOptions::sink_factory and the crash trials) that
/// opens a FileSink at each path and wraps it in a FaultySink when `plan`
/// applies to the path.
[[nodiscard]] SinkFactory faulty_files(std::shared_ptr<FaultPlan> plan);

}  // namespace numarck::io
