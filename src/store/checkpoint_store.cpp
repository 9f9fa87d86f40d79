#include "numarck/store/checkpoint_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "numarck/codec/codec.hpp"
#include "numarck/io/byte_source.hpp"
#include "numarck/io/checkpoint_file.hpp"
#include "numarck/util/byte_stream.hpp"
#include "numarck/util/expect.hpp"

namespace numarck::store {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kStoreMagic = 0x4E4D4B53544F5231ull;  // "NMKSTOR1"
constexpr std::uint64_t kStoreVersion = 1;

std::string container_name(std::size_t iteration) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "it%08zu.nck", iteration);
  return buf;
}

std::string standalone_name(std::size_t iteration) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "it%08zu.epoch.nck", iteration);
  return buf;
}

/// Unlinks a file the published manifest no longer names; a failure only
/// leaves an orphan, which the next open quarantines.
void unlink_unreferenced(const std::string& path, const char* who) {
  if (std::remove(path.c_str()) != 0) {
    std::fprintf(stderr, "numarck: %s could not unlink %s (left as orphan)\n",
                 who, path.c_str());
  }
}

/// A NUMARCK delta coded against the linear extrapolation 2 D_{i-1} - D_{i-2}
/// (FORMAT.md §2 predictor byte, read without parsing the record).
bool is_linear_delta(const core::CompressedStep& step) {
  if (step.is_full || step.codec_id != codec::kNumarckId) return false;
  const auto prefix = core::EncodedIteration::peek(step.payload);
  return prefix && prefix->predictor == core::Predictor::kLinear;
}

struct ParsedManifest {
  std::vector<std::string> variables;
  std::vector<EntryInfo> entries;
};

/// Parses a serialized store manifest; throws ContractViolation on any
/// damage (bad magic, CRC mismatch, forged counts, unsorted iterations,
/// a file name that escapes the store directory, trailing bytes).
ParsedManifest parse_store_manifest(std::span<const std::uint8_t> data) {
  const auto body = io::open_envelope(kStoreMagic, data, "store manifest");
  util::ByteReader r(body);
  NUMARCK_EXPECT(r.get_varint() == kStoreVersion,
                 "unsupported store manifest version");
  ParsedManifest m;
  const std::size_t nvars = r.get_varint();
  // Every variable owns at least one length byte, so the body size bounds
  // any honest count; forged counts die before the loops allocate.
  NUMARCK_EXPECT(nvars >= 1 && nvars <= body.size(),
                 "store manifest variable count out of range");
  for (std::size_t v = 0; v < nvars; ++v) {
    m.variables.push_back(r.get_string());
  }
  const std::size_t nentries = r.get_varint();
  NUMARCK_EXPECT(nentries <= body.size(),
                 "store manifest entry count out of range");
  for (std::size_t e = 0; e < nentries; ++e) {
    EntryInfo entry;
    entry.iteration = r.get_varint();
    NUMARCK_EXPECT(m.entries.empty() ||
                       entry.iteration > m.entries.back().iteration,
                   "store manifest iterations not strictly ascending");
    const std::uint8_t tier = r.get_u8();
    NUMARCK_EXPECT(tier <= static_cast<std::uint8_t>(Tier::kBest),
                   "store manifest entry has an unknown tier");
    entry.tier = static_cast<Tier>(tier);
    const std::uint8_t ref = r.get_u8();
    NUMARCK_EXPECT(ref <= 1, "store manifest reference flag out of range");
    entry.reference_free = ref == 1;
    entry.sim_time = r.get_f64();
    entry.file = r.get_string();
    // Confine every referenced file to the store directory: a forged
    // manifest must not be able to make the store read or quarantine
    // anything outside it.
    NUMARCK_EXPECT(!entry.file.empty() &&
                       entry.file.find('/') == std::string::npos &&
                       entry.file.find('\\') == std::string::npos &&
                       entry.file != "." && entry.file != "..",
                   "store manifest entry file escapes the store directory");
    m.entries.push_back(std::move(entry));
  }
  NUMARCK_EXPECT(r.at_end(), "trailing bytes after store manifest");
  return m;
}

std::vector<std::uint8_t> serialize_store_body(
    const std::vector<std::string>& variables,
    const std::vector<EntryInfo>& entries) {
  util::ByteWriter body;
  body.put_varint(kStoreVersion);
  body.put_varint(variables.size());
  for (const auto& v : variables) body.put_string(v);
  body.put_varint(entries.size());
  for (const auto& e : entries) {
    body.put_varint(e.iteration);
    body.put_u8(static_cast<std::uint8_t>(e.tier));
    body.put_u8(e.reference_free ? 1 : 0);
    body.put_f64(e.sim_time);
    body.put_string(e.file);
  }
  return body.take();
}

}  // namespace

const char* to_string(Tier t) noexcept {
  switch (t) {
    case Tier::kLatest:
      return "latest";
    case Tier::kRolling:
      return "rolling";
    case Tier::kEpoch:
      return "epoch";
    case Tier::kBest:
      return "best";
  }
  return "?";
}

const char* to_string(RecoveryIssue issue) noexcept {
  switch (issue) {
    case RecoveryIssue::kStaleTmp:
      return "stale-tmp";
    case RecoveryIssue::kOrphan:
      return "orphan";
    case RecoveryIssue::kTorn:
      return "torn";
    case RecoveryIssue::kMissing:
      return "missing";
    case RecoveryIssue::kUnreadable:
      return "unreadable";
    case RecoveryIssue::kChainBroken:
      return "chain-broken";
  }
  return "?";
}

const char* to_string(FileHealth health) noexcept {
  switch (health) {
    case FileHealth::kIntact:
      return "intact";
    case FileHealth::kTorn:
      return "torn";
    case FileHealth::kMissing:
      return "missing";
    case FileHealth::kUnreadable:
      return "unreadable";
  }
  return "?";
}

// ----------------------------------------------------------- construction --

CheckpointStore::CheckpointStore(const std::string& dir,
                                 const std::vector<std::string>& variables,
                                 StoreOptions opts)
    : dir_(dir), opts_(std::move(opts)), vars_(variables) {
  NUMARCK_EXPECT(!vars_.empty(), "store needs at least one variable");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  NUMARCK_EXPECT(!ec, "cannot create store directory: " + dir_);
  const std::string manifest = dir_ + "/" + kManifestName;
  NUMARCK_EXPECT(!fs::exists(manifest),
                 "store already exists (open it instead): " + dir_);
  util::MutexLock lk(mu_);
  publish_manifest(entries_);
}

CheckpointStore::CheckpointStore(const std::string& dir, StoreOptions opts)
    : dir_(dir), opts_(std::move(opts)) {
  NUMARCK_EXPECT(fs::is_directory(dir_),
                 "not a checkpoint store directory: " + dir_);
  recover_open();
}

CheckpointStore::~CheckpointStore() { stop_compactor(); }

// ---------------------------------------------------------------- helpers --

void CheckpointStore::publish_manifest(const std::vector<EntryInfo>& entries) {
  io::publish_envelope(dir_ + "/" + kManifestName, kStoreMagic,
                       serialize_store_body(vars_, entries), opts_.sink_factory);
}

void CheckpointStore::write_container(
    const std::string& file, double sim_time,
    const std::vector<core::CompressedStep>& steps) const {
  io::publish_via_tmp(
      dir_ + "/" + file, opts_.sink_factory,
      [&](std::unique_ptr<io::ByteSink> sink) {
        io::CheckpointWriter writer(std::move(sink), vars_, opts_.durability);
        for (std::size_t v = 0; v < vars_.size(); ++v) {
          writer.append(vars_[v], 0, sim_time, steps.at(v));
        }
        writer.close();
      });
}

std::size_t CheckpointStore::entry_index(std::size_t iteration) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), iteration,
      [](const EntryInfo& e, std::size_t i) { return e.iteration < i; });
  NUMARCK_EXPECT(it != entries_.end() && it->iteration == iteration,
                 "iteration not retained in store: " +
                     std::to_string(iteration));
  return static_cast<std::size_t>(it - entries_.begin());
}

void CheckpointStore::replay_locked(
    core::ChainReplay& replay, std::size_t index,
    const std::vector<std::string>& variables) const {
  std::size_t start = index;
  while (!entries_[start].reference_free) {
    NUMARCK_EXPECT(start > 0, "store entry has a broken delta chain");
    --start;
  }
  replay.replay_to(start, index, [&](std::size_t i, auto& out) {
    mu_.assert_held();
    // One container open per chain entry, every requested variable from it.
    const io::CheckpointReader reader(dir_ + "/" + entries_[i].file,
                                      io::TailPolicy::kStrict);
    for (const auto& v : variables) out.push_back(reader.load(v, 0));
  });
}

EntryInfo CheckpointStore::write_standalone_locked(
    std::size_t index, const core::ChainReplay& replayed) const {
  std::vector<core::CompressedStep> steps;
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    // full_from is lossless over the replayed state, so the rewritten entry
    // restores bit-exactly what the delta chain restored.
    steps.push_back(core::CompressedStep::full_from(replayed.state(v)));
  }
  EntryInfo out = entries_[index];
  out.file = standalone_name(out.iteration);
  out.reference_free = true;
  write_container(out.file, out.sim_time, steps);
  return out;
}

// -------------------------------------------------------------- mutations --

void CheckpointStore::put(
    std::size_t iteration, double sim_time,
    const std::map<std::string, core::CompressedStep>& steps) {
  NUMARCK_EXPECT(steps.size() == vars_.size(),
                 "put needs a step for every store variable");
  std::vector<core::CompressedStep> ordered;
  bool reference_free = true;
  for (const auto& v : vars_) {
    const auto it = steps.find(v);
    NUMARCK_EXPECT(it != steps.end(), "put is missing variable: " + v);
    NUMARCK_EXPECT(!is_linear_delta(it->second),
                   "put: variable " + v + " holds a linear-predicted delta; "
                   "a prune or compaction rewrite cannot give it the second "
                   "state it decodes against (encode with Predictor::kPrevious)");
    reference_free = reference_free &&
                     core::starts_chain(it->second.is_full, it->second.codec_id);
    ordered.push_back(it->second);
  }
  util::MutexLock lk(mu_);
  NUMARCK_EXPECT(entries_.empty() || iteration > entries_.back().iteration,
                 "store iterations must be strictly ascending");
  NUMARCK_EXPECT(reference_free || !entries_.empty(),
                 "a temporal delta cannot start a store; write a "
                 "reference-free entry first");

  EntryInfo entry;
  entry.iteration = iteration;
  entry.tier = Tier::kLatest;
  entry.sim_time = sim_time;
  entry.file = container_name(iteration);
  entry.reference_free = reference_free;
  // Container first (tmp + fsync + rename), manifest second: the checkpoint
  // is acknowledged exactly when the manifest naming it is published. A
  // crash in between leaves an orphan container that open() quarantines.
  write_container(entry.file, sim_time, ordered);
  std::vector<EntryInfo> candidate = entries_;
  if (!candidate.empty() && candidate.back().tier == Tier::kLatest) {
    candidate.back().tier = Tier::kRolling;
  }
  candidate.push_back(std::move(entry));
  publish_manifest(candidate);
  entries_ = std::move(candidate);
}

void CheckpointStore::promote(std::size_t iteration, Tier tier) {
  NUMARCK_EXPECT(tier != Tier::kLatest,
                 "kLatest is assigned automatically; promote to "
                 "kBest/kEpoch or release to kRolling");
  util::MutexLock lk(mu_);
  const std::size_t idx = entry_index(iteration);
  if (entries_[idx].tier == tier) return;
  std::vector<EntryInfo> candidate = entries_;
  candidate[idx].tier = tier;
  publish_manifest(candidate);
  entries_ = std::move(candidate);
}

PruneReport CheckpointStore::prune(std::size_t keep_last,
                                   std::size_t keep_every) {
  NUMARCK_EXPECT(keep_last >= 1, "prune keep_last must be >= 1");
  util::MutexLock lk(mu_);
  PruneReport report;
  if (entries_.empty()) return report;
  const std::size_t n = entries_.size();

  // Rewrite every retained entry whose delta chain crosses a dropped one
  // BEFORE anything is deleted, while the chain is still replayable. The
  // rewrites of one chain come in ascending order, so the single replay
  // below continues along it and decodes each chain entry once.
  core::ChainReplay replay(vars_.size());
  std::vector<EntryInfo> kept;
  std::vector<std::string> doomed;  // files to unlink after the publish
  bool chain_broken = false;  // the current chain crosses a dropped entry
  for (std::size_t i = 0; i < n; ++i) {
    EntryInfo e = entries_[i];
    const bool epoch = keep_every > 0 && e.iteration % keep_every == 0;
    if (e.reference_free) chain_broken = false;
    if (i + keep_last < n && e.tier != Tier::kBest && !epoch) {
      chain_broken = true;
      doomed.push_back(e.file);
      ++report.dropped;
      continue;
    }
    if (!e.reference_free && chain_broken) {
      doomed.push_back(e.file);
      replay_locked(replay, i, vars_);
      e = write_standalone_locked(i, replay);
      ++report.rewritten;
    }
    // Retention tiers are recomputed by every sweep; only kBest is sticky.
    if (e.tier != Tier::kBest) {
      if (i + 1 == n) {
        e.tier = Tier::kLatest;
      } else if (epoch) {
        e.tier = Tier::kEpoch;
      } else {
        e.tier = Tier::kRolling;
      }
    }
    kept.push_back(std::move(e));
    ++report.kept;
  }

  // Publish the shrunken manifest, then unlink. A crash after the publish
  // leaves orphans (quarantined at next open), never a manifest entry that
  // names a missing file.
  publish_manifest(kept);
  entries_ = std::move(kept);
  for (const auto& file : doomed) unlink_unreferenced(dir_ + "/" + file, "prune");
  return report;
}

bool CheckpointStore::compact_once() {
  util::MutexLock lk(mu_);
  if (entries_.size() < 2) return false;
  // Oldest eligible delta-chain entry; the newest entry is the active chain
  // tail the next put appends to, so it is left alone.
  for (std::size_t i = 0; i + 1 < entries_.size(); ++i) {
    const EntryInfo& e = entries_[i];
    if (e.reference_free) continue;
    const bool eligible =
        e.tier == Tier::kEpoch || e.tier == Tier::kBest ||
        (opts_.epoch_every > 0 && e.iteration % opts_.epoch_every == 0);
    if (!eligible) continue;

    core::ChainReplay replay(vars_.size());
    replay_locked(replay, i, vars_);
    EntryInfo merged = write_standalone_locked(i, replay);
    if (merged.tier == Tier::kRolling) merged.tier = Tier::kEpoch;
    const std::string old_path = dir_ + "/" + e.file;
    std::vector<EntryInfo> candidate = entries_;
    candidate[i] = std::move(merged);
    publish_manifest(candidate);
    entries_ = std::move(candidate);
    unlink_unreferenced(old_path, "compactor");
    return true;
  }
  return false;
}

// ---------------------------------------------------------------- queries --

std::vector<EntryInfo> CheckpointStore::list() const {
  util::MutexLock lk(mu_);
  return entries_;
}

std::optional<std::size_t> CheckpointStore::latest() const {
  util::MutexLock lk(mu_);
  if (entries_.empty()) return std::nullopt;
  return entries_.back().iteration;
}

std::vector<double> CheckpointStore::get_variable(const std::string& variable,
                                                  std::size_t iteration) const {
  NUMARCK_EXPECT(std::find(vars_.begin(), vars_.end(), variable) != vars_.end(),
                 "unknown store variable: " + variable);
  util::MutexLock lk(mu_);
  core::ChainReplay replay(1);
  replay_locked(replay, entry_index(iteration), {variable});
  return replay.state(0);
}

std::map<std::string, std::vector<double>> CheckpointStore::get(
    std::size_t iteration) const {
  util::MutexLock lk(mu_);
  core::ChainReplay replay(vars_.size());
  replay_locked(replay, entry_index(iteration), vars_);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    out[vars_[v]] = replay.state(v);
  }
  return out;
}

// --------------------------------------------------------------- recovery --

namespace {

/// Probes one manifest-referenced container. Returns kIntact and fills
/// nothing on success; otherwise the health and a cause.
FileHealth probe_container(const std::string& path,
                           const std::vector<std::string>& variables,
                           bool claimed_reference_free, std::string* detail) {
  if (!fs::exists(path)) {
    *detail = "container file is missing";
    return FileHealth::kMissing;
  }
  // One descriptor per probe: the strict scan and (on failure) the salvage
  // re-scan below share a single opened FileSource instead of re-opening
  // and re-reading the container per attempt.
  std::shared_ptr<io::FileSource> source;
  try {
    source = std::make_shared<io::FileSource>(path);
  } catch (const numarck::ContractViolation& e) {
    *detail = e.what();
    return FileHealth::kMissing;
  }
  try {
    const io::CheckpointReader reader(source, io::TailPolicy::kStrict);
    if (reader.variables() != variables) {
      *detail = "variable table disagrees with the store manifest";
      return FileHealth::kUnreadable;
    }
    for (const auto& v : variables) {
      const auto info = reader.info(v, 0);
      if (!info.has_value()) {
        *detail = "container lacks a record for variable " + v;
        return FileHealth::kUnreadable;
      }
      if (claimed_reference_free &&
          !core::starts_chain(info->type == io::RecordType::kFull,
                              info->codec_id)) {
        *detail = "manifest claims reference-free but the container holds "
                  "a temporal delta";
        return FileHealth::kUnreadable;
      }
    }
    return FileHealth::kIntact;
  } catch (const numarck::ContractViolation& e) {
    // Distinguish a torn tail (header scans, records damaged) from header
    // damage; operators triage the two differently.
    try {
      [[maybe_unused]] const io::CheckpointReader salvage(
          source, io::TailPolicy::kSalvage);
      *detail = e.what();
      return FileHealth::kTorn;
    } catch (const numarck::ContractViolation&) {
      *detail = e.what();
      return FileHealth::kUnreadable;
    }
  }
}

}  // namespace

void CheckpointStore::recover_open() {
  auto note = [this](RecoveryIssue issue, const std::string& file,
                     const std::string& action, const std::string& detail) {
    std::fprintf(stderr, "numarck: store recovery: %s %s (%s)%s%s\n",
                 action.c_str(), file.c_str(), to_string(issue),
                 detail.empty() ? "" : ": ", detail.c_str());
    recovery_.push_back({issue, file, action, detail});
  };

  // 1. The published manifest is the single source of truth; only its
  //    absence or corruption aborts the open. Recovery acts on exactly what
  //    the read-only inspection reports.
  const StoreInspection found = inspect_store(dir_);
  vars_ = found.variables;

  // 2. Sweep interrupted tmp+rename publishes (manifest temporaries,
  //    container temporaries, compactor temporaries) — all end in ".tmp"
  //    and none were ever acknowledged.
  for (const auto& name : found.stale_tmps) {
    if (io::remove_stale_tmp(dir_ + "/" + name)) {
      note(RecoveryIssue::kStaleTmp, name, "deleted",
           "interrupted atomic publish");
    }
  }

  // 3. Drop damaged entries and everything whose delta chain crosses one.
  std::vector<EntryInfo> kept;
  std::vector<std::string> to_quarantine;
  bool chain_poisoned = false;
  for (const StoreFileInfo& f : found.files) {
    const EntryInfo& entry = f.entry;
    if (entry.reference_free) chain_poisoned = false;
    if (f.health == FileHealth::kIntact && !entry.reference_free &&
        (chain_poisoned || kept.empty())) {
      // Its predecessor entry was dropped (or never existed): the delta can
      // no longer be decoded even though its own file is intact.
      chain_poisoned = true;
      note(RecoveryIssue::kChainBroken, entry.file, "quarantined",
           "delta chain crosses a dropped entry");
      to_quarantine.push_back(entry.file);
      continue;
    }
    switch (f.health) {
      case FileHealth::kIntact:
        kept.push_back(entry);
        continue;
      case FileHealth::kMissing:
        note(RecoveryIssue::kMissing, entry.file, "dropped", f.detail);
        break;
      case FileHealth::kTorn:
        note(RecoveryIssue::kTorn, entry.file, "quarantined", f.detail);
        to_quarantine.push_back(entry.file);
        break;
      case FileHealth::kUnreadable:
        note(RecoveryIssue::kUnreadable, entry.file, "quarantined", f.detail);
        to_quarantine.push_back(entry.file);
        break;
    }
    chain_poisoned = true;
  }

  // 4. Quarantine containers present on disk but named by no manifest entry:
  //    a put/prune/compaction that died between its container rename and its
  //    manifest publish. They were never acknowledged, so they are moved
  //    aside (not deleted — operators may still want the bytes).
  for (const auto& name : found.orphans) {
    note(RecoveryIssue::kOrphan, name, "quarantined",
         "container not acknowledged by the manifest");
    to_quarantine.push_back(name);
  }

  // 5. Publish the repaired manifest first, then move the damaged files:
  //    a crash anywhere in between converges at the next open (the moved
  //    file is already unreferenced; the unmoved one becomes an orphan).
  {
    util::MutexLock lk(mu_);
    entries_ = std::move(kept);
    if (entries_.size() != found.files.size()) publish_manifest(entries_);
  }
  if (!to_quarantine.empty()) {
    const std::string qdir = dir_ + "/" + kQuarantineDir;
    std::error_code ec;
    fs::create_directories(qdir, ec);
    for (const auto& name : to_quarantine) {
      fs::rename(dir_ + "/" + name, qdir + "/" + name, ec);
      if (ec) {
        std::fprintf(stderr, "numarck: store recovery: cannot quarantine %s: %s\n",
                     name.c_str(), ec.message().c_str());
      }
    }
  }
}

// -------------------------------------------------------------- compactor --

void CheckpointStore::start_compactor() {
  NUMARCK_EXPECT(!compactor_.joinable(), "compactor already running");
  {
    util::MutexLock lk(cmu_);
    stop_compactor_ = false;
    cstatus_.parked = false;
    cstatus_.consecutive_failures = 0;
  }
  compactor_ = std::thread([this] { compactor_loop(); });
}

void CheckpointStore::stop_compactor() {
  if (!compactor_.joinable()) return;
  {
    util::MutexLock lk(cmu_);
    stop_compactor_ = true;
  }
  cv_.notify_all();
  compactor_.join();
  compactor_ = std::thread();
}

CompactorStatus CheckpointStore::compactor_status() const {
  util::MutexLock lk(cmu_);
  return cstatus_;
}

void CheckpointStore::compactor_loop() {
  std::size_t failures = 0;
  for (;;) {
    {
      util::UniqueLock lk(cmu_);
      // Exponential backoff after a transient failure, the scan interval
      // otherwise; a stop request interrupts either immediately.
      auto delay = opts_.compact_interval;
      if (failures > 0) {
        const std::size_t shift = std::min<std::size_t>(failures - 1, 10);
        delay = std::min(opts_.compact_backoff * (1u << shift),
                         std::chrono::milliseconds(1000));
      }
      cv_.wait_for(lk.native(), delay, [this] {
        cmu_.assert_held();
        return stop_compactor_;
      });
      if (stop_compactor_) return;
      ++cstatus_.cycles;
    }
    try {
      const bool worked = compact_once();
      util::MutexLock lk(cmu_);
      failures = 0;
      cstatus_.consecutive_failures = 0;
      if (worked) ++cstatus_.compactions;
    } catch (const io::InjectedCrash& e) {
      // The crash harness killed this "process": stop mutating the store,
      // exactly as a dead compactor would.
      util::MutexLock lk(cmu_);
      cstatus_.parked = true;
      cstatus_.last_error = e.what();
      return;
    } catch (const std::exception& e) {
      util::MutexLock lk(cmu_);
      ++failures;
      cstatus_.consecutive_failures = failures;
      cstatus_.last_error = e.what();
      if (failures > opts_.compact_retry_limit) {
        cstatus_.parked = true;
        std::fprintf(stderr,
                     "numarck: compactor parked after %zu failures: %s\n",
                     failures, e.what());
        return;
      }
    }
  }
}

// ------------------------------------------------------------- inspection --

StoreInspection inspect_store(const std::string& dir) {
  NUMARCK_EXPECT(fs::is_directory(dir),
                 "not a checkpoint store directory: " + dir);
  io::FileSource manifest(dir + "/" + CheckpointStore::kManifestName);
  const auto parsed = parse_store_manifest(io::read_all(manifest));
  StoreInspection out;
  out.variables = parsed.variables;
  for (const auto& entry : parsed.entries) {
    StoreFileInfo info;
    info.entry = entry;
    const std::string path = dir + "/" + entry.file;
    info.health = probe_container(path, parsed.variables,
                                  entry.reference_free, &info.detail);
    if (info.health != FileHealth::kMissing) {
      std::error_code ec;
      info.bytes = static_cast<std::uint64_t>(fs::file_size(path, ec));
      if (ec) info.bytes = 0;
    }
    out.files.push_back(std::move(info));
  }
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir, ec)) {
    if (!de.is_regular_file()) continue;
    const std::string name = de.path().filename().string();
    if (name.size() > 4 && name.ends_with(".tmp")) {
      out.stale_tmps.push_back(name);
    } else if (name.size() > 4 && name.ends_with(".nck") &&
               std::none_of(parsed.entries.begin(), parsed.entries.end(),
                            [&](const EntryInfo& e) { return e.file == name; })) {
      out.orphans.push_back(name);
    }
  }
  NUMARCK_EXPECT(!ec, "cannot list store directory: " + dir);
  const std::string qdir = dir + "/" + CheckpointStore::kQuarantineDir;
  if (fs::is_directory(qdir)) {
    for (const auto& de : fs::directory_iterator(qdir, ec)) {
      if (de.is_regular_file()) {
        out.quarantined.push_back(de.path().filename().string());
      }
    }
  }
  std::sort(out.stale_tmps.begin(), out.stale_tmps.end());
  std::sort(out.orphans.begin(), out.orphans.end());
  std::sort(out.quarantined.begin(), out.quarantined.end());
  return out;
}

}  // namespace numarck::store
