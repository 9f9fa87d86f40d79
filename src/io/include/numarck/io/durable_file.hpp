// The durability layer under the checkpoint container: unbuffered
// descriptor-backed sinks whose every failure is surfaced (a full disk or a
// dying device must never look like a successful checkpoint), fsync policies
// the writer can choose per deployment, and a crash-injection sink that
// tears writes at an exact byte offset — the primitive the crash-resilience
// harness (tools/numarck-crashtest) is built on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

namespace numarck::io {

/// When the checkpoint writer forces its bytes to stable storage.
enum class Durability : std::uint8_t {
  /// Never fsync: fastest, but a node crash can lose everything still in the
  /// page cache — only safe when a layer above replicates the data.
  kNone = 0,
  /// One fsync when the file is closed: a *clean* shutdown is durable; a
  /// crash mid-run re-exposes the page-cache window.
  kFsyncOnClose = 1,
  /// fsync after every appended record (at least once per checkpoint
  /// iteration): after append() returns, that record survives power loss.
  /// The policy the paper's resiliency story assumes.
  kFsyncPerIteration = 2,
};

/// Abstract byte-stream destination for checkpoint containers. All
/// operations throw ContractViolation on I/O failure; none fail silently.
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  /// Appends `size` bytes; throws if the sink cannot take all of them.
  virtual void write(const void* data, std::size_t size) = 0;

  /// Forces previously written bytes to stable storage (fsync).
  virtual void sync() = 0;

  /// Releases the underlying resource; idempotent.
  virtual void close() = 0;
};

/// POSIX-file sink. Unbuffered (every write() is a syscall), so nothing can
/// linger in user-space buffers when the process dies, and every ENOSPC/EIO
/// is observed at the write that caused it — with the failing path in the
/// exception message.
class FileSink final : public ByteSink {
 public:
  /// Creates/truncates `path`; throws ContractViolation when it cannot.
  explicit FileSink(const std::string& path);
  ~FileSink() override;

  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  void write(const void* data, std::size_t size) override;
  void sync() override;
  void close() override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

/// Thrown by FaultyFile (kThrow mode) at the scheduled crash point. Derives
/// from std::runtime_error, NOT ContractViolation: an injected crash is not
/// a contract bug, and harnesses must be able to tell the two apart.
class InjectedCrash : public std::runtime_error {
 public:
  explicit InjectedCrash(const std::string& what) : std::runtime_error(what) {}
};

/// Byte budget shared by every sink of one simulated process: the "process"
/// dies when the total bytes written across all its files crosses the
/// budget, exactly as a killed writer tears whichever file it happened to be
/// writing.
struct CrashBudget {
  explicit CrashBudget(std::uint64_t bytes)
      : remaining(static_cast<std::int64_t>(bytes)) {}
  std::atomic<std::int64_t> remaining;
};

/// Crash-injection sink: forwards bytes to `inner` until the shared budget
/// is exhausted; the write that crosses the budget is truncated to the
/// remaining bytes (a torn record, byte-exact) and then the "process" dies —
/// either by raising SIGKILL (fork-based trials: the real signal, the real
/// kernel cleanup path) or by throwing InjectedCrash (deterministic
/// in-process trials). After the crash point every further operation is
/// silently dropped, as a dead process writes nothing more.
class FaultyFile final : public ByteSink {
 public:
  enum class CrashMode : std::uint8_t {
    kThrow = 0,    ///< throw InjectedCrash at the crash point
    kSigkill = 1,  ///< raise(SIGKILL): for forked writer children
  };

  FaultyFile(std::unique_ptr<ByteSink> inner,
             std::shared_ptr<CrashBudget> budget, CrashMode mode);

  void write(const void* data, std::size_t size) override;
  void sync() override;
  void close() override;

 private:
  [[noreturn]] void die();

  std::unique_ptr<ByteSink> inner_;
  std::shared_ptr<CrashBudget> budget_;
  CrashMode mode_;
  bool dead_ = false;
};

/// Error-injection sink: forwards operations to `inner` until the scheduled
/// one, then fails it — and every later call of the same operation — with
/// ContractViolation carrying the errno text, exactly as FileSink surfaces a
/// real ENOSPC or EIO. Where FaultyFile models a process that dies mid-write,
/// ErringFile models a disk that lives on but errors: callers must surface
/// the failure (a failed append can never masquerade as an acknowledged
/// checkpoint) and leave the file reopenable.
class ErringFile final : public ByteSink {
 public:
  enum class Op : std::uint8_t { kWrite = 0, kSync = 1, kClose = 2 };

  /// Fails the (`after_ops`+1)-th call of `fail_op` — and all later calls of
  /// it — as if the syscall returned `err` (e.g. ENOSPC, EIO). Calls before
  /// the scheduled one, and every other operation, pass through to `inner`.
  ErringFile(std::unique_ptr<ByteSink> inner, Op fail_op,
             std::size_t after_ops, int err);

  void write(const void* data, std::size_t size) override;
  void sync() override;
  void close() override;

 private:
  void fail_if_scheduled(Op op, const char* what);

  std::unique_ptr<ByteSink> inner_;
  Op fail_op_;
  std::size_t after_ops_;
  std::size_t seen_ = 0;
  int err_;
};

/// Makes the sink a publish writes through (fault harnesses wrap FileSink
/// here); empty = plain FileSink.
using SinkFactory =
    std::function<std::unique_ptr<ByteSink>(const std::string& path)>;

/// The one atomic publish: `write` fills `path`.tmp through a sink from
/// `make_sink`, syncing as its durability requires and closing it; the tmp
/// is then renamed over `path` and the parent directory fsynced, so readers
/// see the old file or the complete new one. If `write` throws, the tmp is
/// removed before the error propagates.
void publish_via_tmp(const std::string& path, const SinkFactory& make_sink,
                     const std::function<void(std::unique_ptr<ByteSink>)>& write);

/// Publishes `body` in the CRC'd manifest envelope shared by docs/FORMAT.md
/// §5 and §8 — magic u64 | CRC-32 of the body u32 | body — through
/// publish_via_tmp: write, fsync, close, rename.
void publish_envelope(const std::string& path, std::uint64_t magic,
                      std::span<const std::uint8_t> body,
                      const SinkFactory& make_sink = {});

/// Checks an envelope's magic and body CRC and returns the body; throws
/// ContractViolation naming `what` (e.g. "store manifest") on any mismatch
/// or an empty body.
std::span<const std::uint8_t> open_envelope(std::uint64_t magic,
                                            std::span<const std::uint8_t> image,
                                            const std::string& what);

/// Deletes `path` if it exists, logging the removal to stderr. The cleanup
/// half of the tmp+fsync+rename publish discipline: a process killed between
/// writing `<manifest>.tmp` and renaming it leaves the tmp behind, and every
/// open of the published artifact sweeps it so interrupted publishes never
/// accumulate silently. Returns true when a file was removed.
bool remove_stale_tmp(const std::string& path);

}  // namespace numarck::io
