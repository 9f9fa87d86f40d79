// Serializes NUMARCK container framing (docs/FORMAT.md §1) into one
// reusable scratch buffer and pushes it to a ByteSink — the single
// write-side implementation of the format, behind CheckpointWriter (and so
// store::CheckpointStore puts and compactions and the distributed shard
// writers). The byte stream it produces is identical to the historical
// per-append ByteWriter path; only the allocation behavior (the scratch
// buffer keeps its capacity across records) and the syscall count (small
// records coalesce header + payload + CRC into one write) changed. One
// writer serves one sink from one thread at a time.
//
// The writer frames; it does not police. Variable-name lookup, codec
// registration, and close/durability policy stay with CheckpointWriter —
// this layer is also what a future numarck-served connection handler will
// drive directly with an already-resolved var id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "numarck/io/container_format.hpp"
#include "numarck/io/durable_file.hpp"

namespace numarck::io {

class FramedWriter {
 public:
  /// Frames onto `sink`, which must outlive the writer; the sink's
  /// close/sync remain the caller's job.
  explicit FramedWriter(ByteSink& sink) : sink_(sink) {}

  FramedWriter(const FramedWriter&) = delete;
  FramedWriter& operator=(const FramedWriter&) = delete;

  /// Writes the version-2 file header (magic | version | variable table).
  void write_header(const std::vector<std::string>& variables);

  /// Frames one record: marker | var-id | iteration | type | codec |
  /// sim-time | payload-size | payload | crc32(payload).
  void write_record(std::size_t var_id, std::size_t iteration, RecordType type,
                    std::uint8_t codec_id, double sim_time,
                    std::span<const std::uint8_t> payload);

  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_; }

 private:
  void write_raw(const void* data, std::size_t size);

  ByteSink& sink_;
  std::vector<std::uint8_t> scratch_;  ///< one record's framing; reused
  std::uint64_t bytes_ = 0;
};

}  // namespace numarck::io
