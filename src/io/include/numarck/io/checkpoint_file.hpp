// The NUMARCK checkpoint container format.
//
// One file holds the full history of a simulation's checkpoint stream: per
// variable, a lossless FPC "full" record for iteration 0 (Algorithm 1 line 1)
// followed by one NUMARCK delta record per checkpoint iteration. Every
// record payload is CRC-32 protected so a torn write is detected at restart
// time rather than silently corrupting the resumed simulation.
//
// Layout (version 2; docs/FORMAT.md §1):
//   file header : magic "NMCKPT1\0" (u64) | version u32 | var-name table
//   record      : marker u32 | var-id varint | iteration varint | type u8
//                 | codec u8 | sim-time f64 | payload-size varint | payload
//                 | crc32 u32
//
// The codec byte names the registered compressor backend of the payload
// (numarck/codec/codec.hpp); the scan rejects unknown ids before anything is
// allocated. Version 1 files (no codec byte) are still readable: their
// records map to the implicit pre-registry codecs, fpc for full records and
// numarck for deltas.
//
// The reader scans the record stream once, builds an in-memory index, and
// loads payloads on demand (random access by (variable, iteration)).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "numarck/core/compressor.hpp"
#include "numarck/io/byte_source.hpp"
#include "numarck/io/container_format.hpp"
#include "numarck/io/durable_file.hpp"

namespace numarck::io {

class CheckpointWriter {
 public:
  /// Creates/truncates `path` and writes the header for `variables`.
  /// `durability` picks the fsync schedule (docs/RESILIENCE.md).
  CheckpointWriter(const std::string& path,
                   const std::vector<std::string>& variables,
                   Durability durability = Durability::kFsyncOnClose);

  /// Writes through an explicit sink — the crash-injection harness wraps a
  /// FileSink in a FaultyFile here to tear writes at exact byte offsets.
  CheckpointWriter(std::unique_ptr<ByteSink> sink,
                   const std::vector<std::string>& variables,
                   Durability durability = Durability::kNone);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Appends a compressed step for `variable` at checkpoint `iteration`.
  /// The step's payload is written verbatim (any post-pass was applied at
  /// encode time), stamped with the step's codec id. Any I/O failure —
  /// ENOSPC, EIO, a closed sink — throws ContractViolation naming the file;
  /// a short write can never masquerade as success.
  void append(const std::string& variable, std::size_t iteration,
              double sim_time, const core::CompressedStep& step);

  /// Syncs (per the durability policy) and closes, surfacing any deferred
  /// I/O error. The destructor also closes but must swallow failures; call
  /// close() explicitly wherever durability matters.
  void close();

  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_; }

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t bytes_ = 0;
};

/// How the reader treats a file whose tail is damaged. A node that dies
/// *while writing* a checkpoint leaves exactly this kind of file behind, and
/// recovering every complete earlier iteration is the entire point of
/// checkpointing — so restart paths should use kSalvage.
enum class TailPolicy : std::uint8_t {
  kStrict = 0,   ///< any structural damage throws (default: catch bugs early)
  kSalvage = 1,  ///< stop scanning at the first damaged record; everything
                 ///< before it stays readable
};

class CheckpointReader {
 public:
  /// Opens `path` through a FileSource: the scan streams the container in
  /// bounded chunks through the ContainerScanner (no whole-file slurp) and
  /// payloads are pread on demand.
  explicit CheckpointReader(const std::string& path,
                            TailPolicy policy = TailPolicy::kStrict);

  /// Parses an in-memory container image (the bytes a checkpoint file would
  /// hold) through a MemorySource. ZERO-COPY: the caller's bytes are not
  /// duplicated and must stay alive and unmodified for the reader's whole
  /// lifetime — a payload load reads them again and CRC-rejects any
  /// mutation. Used by tooling and the fuzz harnesses.
  explicit CheckpointReader(std::span<const std::uint8_t> data,
                            TailPolicy policy = TailPolicy::kStrict);

  /// Transport-agnostic entry: reads any ByteSource. Shared ownership lets
  /// one opened source back several scans (the store probes a container
  /// strict-then-salvage over a single open descriptor).
  explicit CheckpointReader(std::shared_ptr<ByteSource> source,
                            TailPolicy policy = TailPolicy::kStrict);
  ~CheckpointReader();

  /// Number of records dropped by salvage (0 under kStrict or on a clean
  /// file). "Dropped" counts only the detection point; the rest of the tail
  /// is unscanned by construction.
  [[nodiscard]] bool tail_was_damaged() const noexcept;

  /// Latest iteration for which EVERY variable has a record — the safe
  /// restart target after a torn write.
  [[nodiscard]] std::optional<std::size_t> last_complete_iteration() const;

  CheckpointReader(const CheckpointReader&) = delete;
  CheckpointReader& operator=(const CheckpointReader&) = delete;

  [[nodiscard]] const std::vector<std::string>& variables() const noexcept;

  /// Number of checkpoint iterations present (max iteration + 1).
  [[nodiscard]] std::size_t iteration_count() const noexcept;

  /// Record metadata for (variable, iteration); nullopt when absent.
  [[nodiscard]] std::optional<RecordInfo> info(const std::string& variable,
                                               std::size_t iteration) const;

  /// Reads one record as a codec-tagged CompressedStep: the payload and its
  /// trailing CRC in one positional read, then the CRC check (mismatch
  /// throws ContractViolation). The payload is NOT structurally validated
  /// and `point_count` is 0 ("unknown"), so the only safe consumer is
  /// Codec::decode, which runs the codec's full structural checks and bounds
  /// an unknown count by EncodedIteration::kDefaultMaxPointCount. This is
  /// what the chain-replay loaders (RestartEngine, CheckpointStore) use:
  /// each record is then parsed once, by decode.
  [[nodiscard]] core::CompressedStep read(const std::string& variable,
                                          std::size_t iteration) const;

  /// read() plus deep structural validation through the record's codec
  /// (Codec::validate_payload), which also fills in `point_count`. A record
  /// that loads cleanly also decodes cleanly. For callers that inspect
  /// records without decoding them (numarck-inspect, numarck-bench-codec).
  [[nodiscard]] core::CompressedStep load(const std::string& variable,
                                          std::size_t iteration) const;

  /// Simulation time stamped on the given iteration's records.
  [[nodiscard]] double sim_time(std::size_t iteration) const;

  /// Size in bytes of the underlying container stream (file size for path
  /// readers) — what the scan consumed plus any unscanned damaged tail.
  [[nodiscard]] std::uint64_t container_bytes() const noexcept;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Rebuilds full-precision (approximate) snapshots from a checkpoint file —
/// the restart path of §II-D: read the full checkpoint, then apply each
/// intermediate delta in order.
class RestartEngine {
 public:
  explicit RestartEngine(const CheckpointReader& reader) : reader_(reader) {}

  /// Reconstructs every variable at checkpoint `iteration`.
  [[nodiscard]] std::map<std::string, std::vector<double>> reconstruct(
      std::size_t iteration) const;

  /// Reconstructs a single variable at checkpoint `iteration`.
  [[nodiscard]] std::vector<double> reconstruct_variable(
      const std::string& variable, std::size_t iteration) const;

 private:
  const CheckpointReader& reader_;
};

}  // namespace numarck::io
