#include "numarck/io/durable_file.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "numarck/util/byte_stream.hpp"
#include "numarck/util/crc32.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::io {

namespace {

std::string errno_detail(const std::string& what, const std::string& path) {
  return what + ": " + path + ": " + std::strerror(errno);
}

}  // namespace

// --------------------------------------------------------------- FileSink --

FileSink::FileSink(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  NUMARCK_EXPECT(fd_ >= 0,
                 errno_detail("cannot open checkpoint file for writing", path_));
}

FileSink::~FileSink() {
  // Last-resort cleanup only; callers that care about durability must call
  // close() (or CheckpointWriter::close()) so failures are observable.
  if (fd_ >= 0) ::close(fd_);
}

void FileSink::write(const void* data, std::size_t size) {
  NUMARCK_EXPECT(fd_ >= 0, "write to closed checkpoint file: " + path_);
  const char* p = static_cast<const char*>(data);
  std::size_t left = size;
  while (left > 0) {
    const ::ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      NUMARCK_EXPECT(false, errno_detail("checkpoint write failed", path_));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

void FileSink::sync() {
  NUMARCK_EXPECT(fd_ >= 0, "sync of closed checkpoint file: " + path_);
  NUMARCK_EXPECT(::fsync(fd_) == 0, errno_detail("fsync failed", path_));
}

void FileSink::close() {
  if (fd_ < 0) return;
  const int fd = fd_;
  fd_ = -1;  // even a failed close() leaves the descriptor unusable (POSIX)
  NUMARCK_EXPECT(::close(fd) == 0,
                 errno_detail("checkpoint close failed", path_));
}

// ------------------------------------------------------------- FaultyFile --

FaultyFile::FaultyFile(std::unique_ptr<ByteSink> inner,
                       std::shared_ptr<CrashBudget> budget, CrashMode mode)
    : inner_(std::move(inner)), budget_(std::move(budget)), mode_(mode) {
  NUMARCK_EXPECT(inner_ != nullptr, "FaultyFile needs an inner sink");
  NUMARCK_EXPECT(budget_ != nullptr, "FaultyFile needs a crash budget");
}

void FaultyFile::die() {
  dead_ = true;
  if (mode_ == CrashMode::kSigkill) {
    // The real thing: no unwinding, no flush, no destructors — the kernel
    // reclaims the process with whatever bytes already hit the file.
    (void)::raise(SIGKILL);
  }
  throw InjectedCrash("injected crash: write budget exhausted");
}

void FaultyFile::write(const void* data, std::size_t size) {
  if (dead_) return;
  const auto want = static_cast<std::int64_t>(size);
  const std::int64_t before =
      budget_->remaining.fetch_sub(want, std::memory_order_relaxed);
  if (before >= want) {
    inner_->write(data, size);
    return;
  }
  // This write crosses the budget: land a byte-exact torn prefix, then die.
  const std::size_t partial =
      static_cast<std::size_t>(std::max<std::int64_t>(before, 0));
  if (partial > 0) inner_->write(data, partial);
  die();
}

void FaultyFile::sync() {
  if (dead_) return;
  inner_->sync();
}

void FaultyFile::close() {
  if (dead_) return;
  inner_->close();
}

// ------------------------------------------------------------- ErringFile --

ErringFile::ErringFile(std::unique_ptr<ByteSink> inner, Op fail_op,
                       std::size_t after_ops, int err)
    : inner_(std::move(inner)), fail_op_(fail_op), after_ops_(after_ops),
      err_(err) {
  NUMARCK_EXPECT(inner_ != nullptr, "ErringFile needs an inner sink");
}

void ErringFile::fail_if_scheduled(Op op, const char* what) {
  if (op != fail_op_) return;
  if (seen_ < after_ops_) {
    ++seen_;
    return;
  }
  // Persistent, like the real condition: a disk that filled up stays full.
  NUMARCK_EXPECT(false, std::string(what) + " failed (injected): " +
                            std::strerror(err_));
}

void ErringFile::write(const void* data, std::size_t size) {
  fail_if_scheduled(Op::kWrite, "checkpoint write");
  inner_->write(data, size);
}

void ErringFile::sync() {
  fail_if_scheduled(Op::kSync, "fsync");
  inner_->sync();
}

void ErringFile::close() {
  fail_if_scheduled(Op::kClose, "checkpoint close");
  inner_->close();
}

// ---------------------------------------------------------------- publish --

void publish_via_tmp(
    const std::string& path, const SinkFactory& make_sink,
    const std::function<void(std::unique_ptr<ByteSink>)>& write) {
  const std::string tmp = path + ".tmp";
  try {
    write(make_sink ? make_sink(tmp) : std::make_unique<FileSink>(tmp));
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  NUMARCK_EXPECT(std::rename(tmp.c_str(), path.c_str()) == 0,
                 errno_detail("atomic rename failed", path));
  // fsync the parent directory so the rename itself survives power loss.
  const auto slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    // Some filesystems refuse directory fsync (EINVAL); the rename is still
    // atomic on crash-consistent filesystems, so tolerate that one case.
    const int rc = ::fsync(dfd);
    const int saved = errno;
    (void)::close(dfd);
    NUMARCK_EXPECT(rc == 0 || saved == EINVAL,
                   errno_detail("directory fsync failed", dir));
  }
}

// --------------------------------------------------------------- envelope --

void publish_envelope(const std::string& path, std::uint64_t magic,
                      std::span<const std::uint8_t> body,
                      const SinkFactory& make_sink) {
  const std::uint32_t crc = util::crc32(body.data(), body.size());
  constexpr std::size_t kHead = sizeof magic + sizeof crc;
  std::vector<std::uint8_t> image(kHead + body.size());
  std::memcpy(image.data(), &magic, sizeof magic);
  std::memcpy(image.data() + sizeof magic, &crc, sizeof crc);
  std::copy(body.begin(), body.end(), image.begin() + kHead);
  publish_via_tmp(path, make_sink, [&](std::unique_ptr<ByteSink> sink) {
    sink->write(image.data(), image.size());
    sink->sync();
    sink->close();
  });
}

std::span<const std::uint8_t> open_envelope(std::uint64_t magic,
                                            std::span<const std::uint8_t> image,
                                            const std::string& what) {
  util::ByteReader r(image);
  NUMARCK_EXPECT(r.get_u64() == magic, "not a NUMARCK " + what);
  const std::uint32_t crc_stored = r.get_u32();
  NUMARCK_EXPECT(r.remaining() > 0, what + " has no body");
  const auto body = image.subspan(image.size() - r.remaining());
  NUMARCK_EXPECT(util::crc32(body.data(), body.size()) == crc_stored,
                 what + " CRC mismatch (torn write or forged manifest)");
  return body;
}

// --------------------------------------------------------- stale tmp sweep --

bool remove_stale_tmp(const std::string& path) {
  if (std::remove(path.c_str()) != 0) return false;
  std::fprintf(stderr,
               "numarck: removed stale temporary left by an interrupted "
               "publish: %s\n",
               path.c_str());
  return true;
}

}  // namespace numarck::io
