// The durability layer under the checkpoint container: unbuffered
// descriptor-backed sinks whose every failure is surfaced (a full disk or a
// dying device must never look like a successful checkpoint), fsync policies
// the writer can choose per deployment, and the one tmp+rename publish.
// Injected faults wrap these sinks from io/fault.hpp.
#pragma once

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

/// Thrown at an io::FaultPlan's crash point (Death::kThrow, io/fault.hpp).
/// Derives from std::runtime_error, NOT ContractViolation: an injected crash
/// is not a contract bug, and harnesses must be able to tell the two apart.
class InjectedCrash : public std::runtime_error {
 public:
  explicit InjectedCrash(const std::string& what) : std::runtime_error(what) {}
};

/// Makes the sink a publish writes through (io::faulty_files wraps FileSink
/// here); empty = plain FileSink.
using SinkFactory =
    std::function<std::unique_ptr<ByteSink>(const std::string& path)>;

/// The one atomic publish: `write` fills `path`.tmp through a sink from
/// `make_sink`, syncing as its durability requires and closing it; the tmp
/// is then renamed over `path` and the parent directory fsynced, so readers
/// see the old file or the complete new one. If `write` throws, the tmp is
/// removed before the error propagates. A parent directory that cannot be
/// opened for its fsync throws: the rename is then not known to be durable,
/// so the publish is not acknowledged.
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
