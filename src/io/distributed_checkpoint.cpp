#include "numarck/io/distributed_checkpoint.hpp"

#include <algorithm>

#include "numarck/io/byte_source.hpp"
#include "numarck/io/durable_file.hpp"
#include "numarck/util/byte_stream.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::io {

namespace {
constexpr std::uint64_t kManifestMagic = 0x4E4D4B4D414E4946ull;  // "NMKMANIF"
}  // namespace

std::size_t Manifest::total_points() const noexcept {
  std::size_t total = 0;
  for (auto s : partition_sizes) total += s;
  return total;
}

std::string Manifest::rank_path(const std::string& base, std::size_t rank) {
  return base + ".rank" + std::to_string(rank) + ".ckpt";
}

std::string Manifest::manifest_path(const std::string& base) {
  return base + ".manifest";
}

void Manifest::save(const std::string& path) const {
  NUMARCK_EXPECT(ranks >= 1, "manifest needs at least one rank");
  NUMARCK_EXPECT(partition_sizes.size() == ranks,
                 "manifest partition table size mismatch");
  NUMARCK_EXPECT(!variables.empty(), "manifest needs variables");
  util::ByteWriter body;
  body.put_varint(ranks);
  body.put_varint(variables.size());
  for (const auto& v : variables) body.put_string(v);
  for (auto s : partition_sizes) body.put_varint(s);
  // Write-to-temp + fsync + rename: a crash at any point leaves either the
  // previous manifest or the complete new one — never a torn hybrid.
  publish_envelope(path, kManifestMagic, body.bytes());
}

Manifest Manifest::parse(std::span<const std::uint8_t> data) {
  const auto body = open_envelope(kManifestMagic, data, "manifest");
  util::ByteReader r(body);
  Manifest m;
  m.ranks = r.get_varint();
  // Every rank owns at least one trailing varint byte, so the body size
  // bounds any honest rank count; forged counts die before the loops below.
  NUMARCK_EXPECT(m.ranks >= 1 && m.ranks <= body.size(),
                 "manifest rank count out of range");
  const std::size_t nvars = r.get_varint();
  NUMARCK_EXPECT(nvars >= 1 && nvars <= body.size(),
                 "manifest variable count out of range");
  for (std::size_t v = 0; v < nvars; ++v) m.variables.push_back(r.get_string());
  std::size_t total = 0;
  for (std::size_t k = 0; k < m.ranks; ++k) {
    const std::size_t size = r.get_varint();
    NUMARCK_EXPECT(size <= kMaxPartitionPoints &&
                       total <= kMaxPartitionPoints - size,
                   "manifest partition sizes out of range");
    total += size;
    m.partition_sizes.push_back(size);
  }
  NUMARCK_EXPECT(r.at_end(), "trailing bytes after manifest");
  return m;
}

Manifest Manifest::load(const std::string& path) {
  FileSource source(path);
  return parse(read_all(source));
}

RankCheckpointWriter::RankCheckpointWriter(const std::string& base,
                                           std::size_t rank,
                                           const Manifest& manifest,
                                           Durability durability) {
  NUMARCK_EXPECT(rank < manifest.ranks, "rank outside the manifest");
  writer_ = std::make_unique<CheckpointWriter>(
      Manifest::rank_path(base, rank), manifest.variables, durability);
  if (rank == 0) manifest.save(Manifest::manifest_path(base));
}

void RankCheckpointWriter::append(const std::string& variable,
                                  std::size_t iteration, double sim_time,
                                  const core::CompressedStep& step) {
  writer_->append(variable, iteration, sim_time, step);
}

void RankCheckpointWriter::close() { writer_->close(); }

DistributedRestartEngine::DistributedRestartEngine(const std::string& base,
                                                   TailPolicy policy)
    : manifest_(Manifest::load(Manifest::manifest_path(base))) {
  // A writer killed between writing `<manifest>.tmp` and renaming it leaves
  // the tmp behind; the published manifest just loaded is the authoritative
  // one, so the stale tmp is swept (and logged) instead of accumulating.
  remove_stale_tmp(Manifest::manifest_path(base) + ".tmp");
  readers_.reserve(manifest_.ranks);
  damage_.resize(manifest_.ranks);
  for (std::size_t k = 0; k < manifest_.ranks; ++k) {
    const std::string path = Manifest::rank_path(base, k);
    RankDamage& dmg = damage_[k];
    // One open per rank file: the FileSource's open failure already
    // distinguishes "no file" from "file whose header is garbage" (which
    // only the scan below can prove), so no second probe open is needed.
    // Both are unrecoverable for this rank, but operators triage them
    // differently.
    std::shared_ptr<FileSource> source;
    try {
      source = std::make_shared<FileSource>(path);
    } catch (const numarck::ContractViolation& e) {
      if (policy == TailPolicy::kStrict) throw;
      dmg.state = RankFileState::kMissing;
      dmg.detail = e.what();
      readers_.push_back(nullptr);
      continue;
    }
    std::unique_ptr<CheckpointReader> reader;
    try {
      reader = std::make_unique<CheckpointReader>(std::move(source), policy);
    } catch (const numarck::ContractViolation& e) {
      if (policy == TailPolicy::kStrict) throw;
      dmg.state = RankFileState::kUnreadable;
      dmg.detail = e.what();
      readers_.push_back(nullptr);
      continue;
    }
    if (reader->variables() != manifest_.variables) {
      NUMARCK_EXPECT(policy != TailPolicy::kStrict,
                     "rank file variable table disagrees with the manifest");
      dmg.state = RankFileState::kUnreadable;
      dmg.detail = "variable table disagrees with the manifest: " + path;
      readers_.push_back(nullptr);
      continue;
    }
    dmg.state = reader->tail_was_damaged() ? RankFileState::kTornTail
                                           : RankFileState::kIntact;
    dmg.last_complete = reader->last_complete_iteration();
    readers_.push_back(std::move(reader));
  }
}

std::optional<std::size_t> DistributedRestartEngine::last_complete_iteration()
    const {
  std::optional<std::size_t> global;
  for (const auto& dmg : damage_) {
    if (!dmg.last_complete.has_value()) return std::nullopt;
    global = global ? std::min(*global, *dmg.last_complete)
                    : *dmg.last_complete;
  }
  return global;
}

bool DistributedRestartEngine::degraded() const noexcept {
  return std::any_of(damage_.begin(), damage_.end(), [](const RankDamage& d) {
    return d.state != RankFileState::kIntact;
  });
}

std::size_t DistributedRestartEngine::iteration_count() const {
  const auto last = last_complete_iteration();
  return last ? *last + 1 : 0;
}

std::vector<double> DistributedRestartEngine::reconstruct_variable(
    const std::string& variable, std::size_t iteration) const {
  const auto last = last_complete_iteration();
  NUMARCK_EXPECT(last.has_value(),
                 "no globally complete checkpoint iteration to restart from");
  NUMARCK_EXPECT(iteration <= *last,
                 "iteration is beyond the last globally complete one");
  // No reserve from the manifest's claimed total: sizes are only trusted
  // after each rank's reconstruction confirms them below.
  std::vector<double> global;
  for (std::size_t k = 0; k < manifest_.ranks; ++k) {
    RestartEngine engine(*readers_[k]);
    const auto part = engine.reconstruct_variable(variable, iteration);
    NUMARCK_EXPECT(part.size() == manifest_.partition_sizes[k],
                   "rank partition length disagrees with the manifest");
    global.insert(global.end(), part.begin(), part.end());
  }
  return global;
}

std::map<std::string, std::vector<double>> DistributedRestartEngine::reconstruct(
    std::size_t iteration) const {
  std::map<std::string, std::vector<double>> out;
  for (const auto& v : manifest_.variables) {
    out[v] = reconstruct_variable(v, iteration);
  }
  return out;
}

}  // namespace numarck::io
