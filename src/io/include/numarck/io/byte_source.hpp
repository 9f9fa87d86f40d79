// The pull side of the streaming I/O layer: random-access byte producers
// that mirror the ByteSink hierarchy in durable_file.hpp (DESIGN.md §7,
// "ByteSource/ByteSink symmetry"). A CheckpointReader owns exactly one
// ByteSource, scans it incrementally through the ContainerScanner, and later
// pulls individual payloads on demand — never materializing a second copy of
// the container image.
//
// All operations throw ContractViolation on failure (missing file, short
// read, I/O error); none fail silently, matching the sink-side discipline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace numarck::io {

/// Abstract random-access byte producer for checkpoint containers.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Total bytes this source holds.
  [[nodiscard]] virtual std::uint64_t size() const noexcept = 0;

  /// Copies exactly `size` bytes starting at absolute `offset` into `out`.
  /// Throws ContractViolation when the range exceeds size() or the
  /// underlying read fails — a short read can never masquerade as success.
  virtual void read_at(std::uint64_t offset, void* out, std::size_t size) = 0;

  /// Zero-copy view of the whole source when the bytes are already resident
  /// and contiguous (MemorySource); empty otherwise. Callers must fall back
  /// to read_at() on an empty result — a file-backed source has no image.
  [[nodiscard]] virtual std::span<const std::uint8_t> contiguous()
      const noexcept {
    return {};
  }

  /// Human-readable origin (a path for files) for error messages.
  [[nodiscard]] virtual const std::string& name() const noexcept = 0;
};

/// POSIX-file source. Positional reads (pread) only: no stream buffering, no
/// seek state, safe to share across threads that read disjoint records. The
/// descriptor is opened once in the constructor and held until destruction.
class FileSource final : public ByteSource {
 public:
  /// Opens `path` read-only; throws ContractViolation when it cannot (the
  /// message carries the errno text, so missing vs unreadable is visible).
  explicit FileSource(const std::string& path);
  ~FileSource() override;

  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;

  [[nodiscard]] std::uint64_t size() const noexcept override { return size_; }
  void read_at(std::uint64_t offset, void* out, std::size_t size) override;
  [[nodiscard]] const std::string& name() const noexcept override {
    return path_;
  }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
};

/// Zero-copy source over a caller-owned span. Nothing is copied: the caller
/// guarantees the bytes outlive every read through this source (and through
/// any CheckpointReader built on it).
class MemorySource final : public ByteSource {
 public:
  explicit MemorySource(std::span<const std::uint8_t> data,
                        std::string name = "<memory>")
      : data_(data), name_(std::move(name)) {}

  [[nodiscard]] std::uint64_t size() const noexcept override {
    return data_.size();
  }
  void read_at(std::uint64_t offset, void* out, std::size_t size) override;
  [[nodiscard]] std::span<const std::uint8_t> contiguous()
      const noexcept override {
    return data_;
  }
  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::string name_;
};

/// Slurps an entire source into a fresh vector — the one sanctioned place
/// for whole-image reads (store/distributed manifests, which are small and
/// CRC-checked as a unit). Container payloads go through read_at instead.
[[nodiscard]] std::vector<std::uint8_t> read_all(ByteSource& source);

}  // namespace numarck::io
