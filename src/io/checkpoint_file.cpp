#include "numarck/io/checkpoint_file.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "numarck/codec/codec.hpp"
#include "numarck/io/container_scanner.hpp"
#include "numarck/io/framed_writer.hpp"
#include "numarck/util/crc32.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/thread_annotations.hpp"

namespace numarck::io {

// ---------------------------------------------------------------- Writer --

class CheckpointWriter::Impl {
 public:
  Impl(std::unique_ptr<ByteSink> sink,
       const std::vector<std::string>& variables, Durability durability)
      : vars_(variables), sink_(std::move(sink)), durability_(durability),
        framed_(require_sink(sink_)) {
    NUMARCK_EXPECT(!variables.empty(), "checkpoint needs at least one variable");
    framed_.write_header(vars_);
  }

  void append(const std::string& variable, std::size_t iteration,
              double sim_time, const core::CompressedStep& step) {
    NUMARCK_EXPECT(!closed_, "append to a closed checkpoint writer");
    const auto it = std::find(vars_.begin(), vars_.end(), variable);
    NUMARCK_EXPECT(it != vars_.end(), "unknown variable: " + variable);
    const std::size_t var_id = static_cast<std::size_t>(it - vars_.begin());
    NUMARCK_EXPECT(codec::find(step.codec_id) != nullptr,
                   "append: step carries an unregistered codec id");
    framed_.write_record(var_id, iteration,
                         step.is_full ? RecordType::kFull : RecordType::kDelta,
                         step.codec_id, sim_time, step.payload);
    if (durability_ == Durability::kFsyncPerIteration) sink_->sync();
  }

  void close() {
    if (closed_) return;
    closed_ = true;
    if (durability_ != Durability::kNone) sink_->sync();
    sink_->close();
  }

  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return framed_.bytes_written();
  }

 private:
  static ByteSink& require_sink(const std::unique_ptr<ByteSink>& sink) {
    NUMARCK_EXPECT(sink != nullptr, "checkpoint writer needs a sink");
    return *sink;
  }

  std::vector<std::string> vars_;
  std::unique_ptr<ByteSink> sink_;
  Durability durability_;
  FramedWriter framed_;
  bool closed_ = false;
};

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const std::vector<std::string>& variables,
                                   Durability durability)
    : impl_(std::make_unique<Impl>(std::make_unique<FileSink>(path), variables,
                                   durability)) {}

CheckpointWriter::CheckpointWriter(std::unique_ptr<ByteSink> sink,
                                   const std::vector<std::string>& variables,
                                   Durability durability)
    : impl_(std::make_unique<Impl>(std::move(sink), variables, durability)) {}

CheckpointWriter::~CheckpointWriter() {
  // A destructor cannot surface I/O errors; paths that need the durability
  // contract call close() and get the exception there. An error here still
  // means the checkpoint on disk may be truncated, so it must not vanish
  // silently: log it before swallowing.
  try {
    if (impl_) impl_->close();
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "numarck: checkpoint close failed in destructor (file may be "
                 "incomplete): %s\n",
                 e.what());
  } catch (...) {
    std::fprintf(stderr,
                 "numarck: checkpoint close failed in destructor (file may be "
                 "incomplete): unknown error\n");
  }
}

void CheckpointWriter::append(const std::string& variable, std::size_t iteration,
                              double sim_time, const core::CompressedStep& step) {
  impl_->append(variable, iteration, sim_time, step);
  bytes_ = impl_->bytes();
}

void CheckpointWriter::close() {
  impl_->close();
  bytes_ = impl_->bytes();
}

// ---------------------------------------------------------------- Reader --

namespace {

/// Chunk size the reader pulls from a non-contiguous source while scanning.
/// Large enough that the scan is bandwidth-bound, small enough that reader
/// memory stays bounded regardless of container size.
constexpr std::size_t kScanChunkBytes = 256u << 10;

/// The LATEST record of `variable` at or before `iteration` that may start
/// a chain: correct for rebased chains (the adaptive controller emits
/// periodic fulls) and avoids decoding history the rebase supersedes.
/// nullopt when there is none.
std::optional<std::size_t> chain_start(const CheckpointReader& reader,
                                       const std::string& variable,
                                       std::size_t iteration) {
  for (std::size_t it = iteration + 1; it-- > 0;) {
    const auto info = reader.info(variable, it);
    if (info && core::starts_chain(info->type == RecordType::kFull,
                                   info->codec_id)) {
      return it;
    }
  }
  return std::nullopt;
}

}  // namespace

class CheckpointReader::Impl final : private ScanEvents {
 public:
  Impl(std::shared_ptr<ByteSource> source, TailPolicy policy)
      : src_(std::move(source)) {
    NUMARCK_EXPECT(src_ != nullptr, "checkpoint reader needs a source");
    scan(policy);
  }

  [[nodiscard]] bool tail_damaged() const noexcept { return tail_damaged_; }

  [[nodiscard]] std::optional<std::size_t> last_complete_iteration() const {
    for (std::size_t it = iterations_; it-- > 0;) {
      bool complete = true;
      for (const auto& v : vars_) {
        if (index_.find(key(v, it)) == index_.end()) {
          complete = false;
          break;
        }
      }
      if (complete) return it;
    }
    return std::nullopt;
  }

  [[nodiscard]] const std::vector<std::string>& variables() const noexcept {
    return vars_;
  }
  [[nodiscard]] std::size_t iterations() const noexcept { return iterations_; }

  [[nodiscard]] std::uint64_t container_bytes() const noexcept {
    return src_->size();
  }

  [[nodiscard]] std::optional<RecordInfo> info(const std::string& variable,
                                               std::size_t iteration) const {
    const auto it = index_.find(key(variable, iteration));
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] core::CompressedStep read(const std::string& variable,
                                          std::size_t iteration) const {
    const auto inf = info(variable, iteration);
    NUMARCK_EXPECT(inf.has_value(), "checkpoint record not found: " + variable);
    // One positional read takes the payload and its trailing CRC. The scan
    // validated payload_offset/payload_size + 4 CRC bytes against the source
    // size, so the read is in range by construction.
    std::vector<std::uint8_t> payload(inf->payload_size +
                                      sizeof(std::uint32_t));
    src_->read_at(inf->payload_offset, payload.data(), payload.size());
    std::uint32_t crc_stored = 0;
    std::memcpy(&crc_stored, payload.data() + inf->payload_size,
                sizeof crc_stored);
    payload.resize(inf->payload_size);
    NUMARCK_EXPECT(util::crc32(payload.data(), payload.size()) == crc_stored,
                   "checkpoint payload CRC mismatch (torn write?)");
    core::CompressedStep step;
    step.codec_id = inf->codec_id;
    step.is_full = inf->type == RecordType::kFull;
    step.payload = std::move(payload);
    return step;
  }

  /// Validated point count of the chain-start record (variable, iteration),
  /// once load() has validated it; nullopt before that.
  [[nodiscard]] std::optional<std::size_t> start_points(
      const std::string& variable, std::size_t iteration) const {
    util::MutexLock lk(memo_mu_);
    const auto it = start_points_.find(key(variable, iteration));
    if (it == start_points_.end()) return std::nullopt;
    return it->second;
  }

  void remember_start_points(const std::string& variable,
                             std::size_t iteration, std::size_t points) const {
    util::MutexLock lk(memo_mu_);
    start_points_[key(variable, iteration)] = points;
  }

  [[nodiscard]] double sim_time(std::size_t iteration) const {
    const auto it = times_.find(iteration);
    NUMARCK_EXPECT(it != times_.end(), "no records for requested iteration");
    return it->second;
  }

 private:
  // Drives the ContainerScanner over the source and builds the
  // (variable, iteration) -> offset index. A contiguous source (memory
  // image) is fed in one zero-copy chunk; anything else streams through a
  // bounded scratch block. Under kSalvage, record-phase damage ends the scan
  // instead of throwing: the records before it stay readable (the torn-write
  // recovery path). Header-phase damage always throws — with no variable
  // table there is nothing to salvage.
  void scan(TailPolicy policy) {
    const std::uint64_t total = src_->size();
    ContainerScanner scanner(*this, total);
    const std::span<const std::uint8_t> image = src_->contiguous();
    if (!image.empty()) {
      scanner.feed(image);
    } else {
      std::vector<std::uint8_t> block(
          static_cast<std::size_t>(std::min<std::uint64_t>(total,
                                                           kScanChunkBytes)));
      std::uint64_t off = 0;
      while (off < total && !scanner.done()) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(block.size(), total - off));
        src_->read_at(off, block.data(), n);
        scanner.feed(std::span<const std::uint8_t>(block.data(), n));
        off += n;
      }
    }
    if (!scanner.done()) scanner.finish();
    if (!damage_) return;
    if (policy == TailPolicy::kStrict ||
        damage_->phase == ScanDamage::Phase::kHeader) {
      throw ContractViolation(damage_->detail + " (offset " +
                              std::to_string(damage_->offset) + " in " +
                              src_->name() + ")");
    }
    tail_damaged_ = true;
  }

  void on_header(std::uint32_t /*version*/,
                 const std::vector<std::string>& variables) override {
    vars_ = variables;
  }

  void on_record(const RecordInfo& info) override {
    iterations_ = std::max(iterations_, info.iteration + 1);
    times_[info.iteration] = info.sim_time;
    index_[key(info.variable, info.iteration)] = info;
  }

  void on_damage(const ScanDamage& damage) override { damage_ = damage; }

  static std::string key(const std::string& variable, std::size_t iteration) {
    return variable + "#" + std::to_string(iteration);
  }

  std::shared_ptr<ByteSource> src_;
  std::vector<std::string> vars_;
  std::map<std::string, RecordInfo> index_;
  std::map<std::size_t, double> times_;
  std::size_t iterations_ = 0;
  std::optional<ScanDamage> damage_;
  bool tail_damaged_ = false;
  // load() runs on several threads at once; the memo is its only state.
  mutable util::Mutex memo_mu_;
  mutable std::map<std::string, std::size_t> start_points_
      GUARDED_BY(memo_mu_);
};

CheckpointReader::CheckpointReader(const std::string& path, TailPolicy policy)
    : impl_(std::make_unique<Impl>(std::make_shared<FileSource>(path),
                                   policy)) {}

CheckpointReader::CheckpointReader(std::span<const std::uint8_t> data,
                                   TailPolicy policy)
    : impl_(std::make_unique<Impl>(std::make_shared<MemorySource>(data),
                                   policy)) {}

CheckpointReader::CheckpointReader(std::shared_ptr<ByteSource> source,
                                   TailPolicy policy)
    : impl_(std::make_unique<Impl>(std::move(source), policy)) {}

bool CheckpointReader::tail_was_damaged() const noexcept {
  return impl_->tail_damaged();
}

std::optional<std::size_t> CheckpointReader::last_complete_iteration() const {
  return impl_->last_complete_iteration();
}

CheckpointReader::~CheckpointReader() = default;

const std::vector<std::string>& CheckpointReader::variables() const noexcept {
  return impl_->variables();
}

std::size_t CheckpointReader::iteration_count() const noexcept {
  return impl_->iterations();
}

std::optional<RecordInfo> CheckpointReader::info(const std::string& variable,
                                                 std::size_t iteration) const {
  return impl_->info(variable, iteration);
}

core::CompressedStep CheckpointReader::read(const std::string& variable,
                                            std::size_t iteration) const {
  return impl_->read(variable, iteration);
}

core::CompressedStep CheckpointReader::load(const std::string& variable,
                                            std::size_t iteration) const {
  core::CompressedStep step = read(variable, iteration);
  // A delta holds no more points than its chain-start record, validated
  // first (once per reader: the count is memoized); with none in this
  // container (a store entry's), the ceiling.
  std::size_t max_points = core::EncodedIteration::kDefaultMaxPointCount;
  const bool starts = core::starts_chain(step.is_full, step.codec_id);
  if (!starts) {
    if (const auto start = chain_start(*this, variable, iteration)) {
      const auto known = impl_->start_points(variable, *start);
      max_points = known ? *known : load(variable, *start).point_count;
    }
  }
  // Deep structural validation through the record's codec: every count and
  // offset inside the payload is bounds-checked here, so a record that
  // loads cleanly also decodes cleanly.
  step.point_count = codec::require(step.codec_id)
                         .validate_payload(step.payload, max_points);
  if (starts) {
    impl_->remember_start_points(variable, iteration, step.point_count);
  }
  return step;
}

double CheckpointReader::sim_time(std::size_t iteration) const {
  return impl_->sim_time(iteration);
}

std::uint64_t CheckpointReader::container_bytes() const noexcept {
  return impl_->container_bytes();
}

// ---------------------------------------------------------------- Restart --

namespace {

/// Every variable of `variables` at `iteration`, one ChainReplay over them.
/// Records are read CRC-checked but not validate_payload'ed: decode runs
/// the same structural checks, so each record is parsed once.
std::vector<std::vector<double>> restore(
    const CheckpointReader& reader, const std::vector<std::string>& variables,
    std::size_t iteration) {
  NUMARCK_EXPECT(iteration < reader.iteration_count(),
                 "restart iteration beyond checkpoint history");
  std::vector<std::size_t> starts;
  for (const auto& v : variables) {
    const auto start = chain_start(reader, v, iteration);
    NUMARCK_EXPECT(start.has_value(),
                   "no full checkpoint at or before the requested iteration");
    starts.push_back(*start);
  }
  return core::ChainReplay(starts).restore(
      iteration, [&](std::size_t v, std::size_t it) {
        return reader.read(variables[v], it);
      });
}

}  // namespace

std::vector<double> RestartEngine::reconstruct_variable(
    const std::string& variable, std::size_t iteration) const {
  return std::move(restore(reader_, {variable}, iteration).front());
}

std::map<std::string, std::vector<double>> RestartEngine::reconstruct(
    std::size_t iteration) const {
  const std::vector<std::string>& vars = reader_.variables();
  std::vector<std::vector<double>> states = restore(reader_, vars, iteration);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t v = 0; v < vars.size(); ++v) {
    out[vars[v]] = std::move(states[v]);
  }
  return out;
}

}  // namespace numarck::io
