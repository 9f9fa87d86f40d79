#include "numarck/io/byte_source.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "numarck/util/expect.hpp"

namespace numarck::io {

namespace {

std::string errno_detail(const std::string& what, const std::string& path) {
  return what + ": " + path + ": " + std::strerror(errno);
}

}  // namespace

// ------------------------------------------------------------- FileSource --

FileSource::FileSource(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  NUMARCK_EXPECT(fd_ >= 0,
                 errno_detail("cannot open checkpoint file", path_));
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    const std::string detail = errno_detail("cannot stat checkpoint file",
                                            path_);
    (void)::close(fd_);
    fd_ = -1;
    NUMARCK_EXPECT(false, detail);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
}

FileSource::~FileSource() {
  if (fd_ >= 0) (void)::close(fd_);
}

void FileSource::read_at(std::uint64_t offset, void* out, std::size_t size) {
  NUMARCK_EXPECT(fd_ >= 0, "read from closed checkpoint file: " + path_);
  NUMARCK_EXPECT(offset <= size_ && size <= size_ - offset,
                 "checkpoint read beyond end of file: " + path_);
  char* p = static_cast<char*>(out);
  std::size_t left = size;
  auto pos = static_cast<::off_t>(offset);
  while (left > 0) {
    const ::ssize_t n = ::pread(fd_, p, left, pos);
    if (n < 0) {
      if (errno == EINTR) continue;
      NUMARCK_EXPECT(false, errno_detail("checkpoint read failed", path_));
    }
    // pread returning 0 inside the stat-validated range means the file
    // shrank underneath us (concurrent truncation) — surface it, never
    // return short.
    NUMARCK_EXPECT(n > 0, "checkpoint file truncated during read: " + path_);
    p += n;
    left -= static_cast<std::size_t>(n);
    pos += n;
  }
}

// ----------------------------------------------------------- MemorySource --

void MemorySource::read_at(std::uint64_t offset, void* out, std::size_t size) {
  NUMARCK_EXPECT(offset <= data_.size() && size <= data_.size() - offset,
                 "checkpoint read beyond end of image: " + name_);
  if (size > 0) std::memcpy(out, data_.data() + offset, size);
}

// ----------------------------------------------------------- ErringSource --

ErringSource::ErringSource(std::unique_ptr<ByteSource> inner,
                           std::size_t after_reads, int err)
    : inner_(std::move(inner)), after_reads_(after_reads), err_(err) {
  NUMARCK_EXPECT(inner_ != nullptr, "ErringSource needs an inner source");
}

void ErringSource::read_at(std::uint64_t offset, void* out, std::size_t size) {
  if (seen_.fetch_add(1, std::memory_order_relaxed) < after_reads_) {
    inner_->read_at(offset, out, size);
    return;
  }
  // Persistent, like the real condition: a failing device keeps failing.
  NUMARCK_EXPECT(false, "checkpoint read failed (injected): " +
                            std::string(std::strerror(err_)));
}

// --------------------------------------------------------------- read_all --

std::vector<std::uint8_t> read_all(ByteSource& source) {
  const std::span<const std::uint8_t> view = source.contiguous();
  if (!view.empty()) return {view.begin(), view.end()};
  std::vector<std::uint8_t> out(source.size());
  if (!out.empty()) source.read_at(0, out.data(), out.size());
  return out;
}

}  // namespace numarck::io
