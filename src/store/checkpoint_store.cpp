#include "numarck/store/checkpoint_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "numarck/codec/codec.hpp"
#include "numarck/io/byte_source.hpp"
#include "numarck/io/checkpoint_file.hpp"
#include "numarck/util/byte_stream.hpp"
#include "numarck/util/expect.hpp"
#include "numarck/util/parallel_for.hpp"

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
  util::MutexLock wlk(wmu_);
  publish_manifest({});
}

CheckpointStore::CheckpointStore(const std::string& dir, StoreOptions opts)
    : dir_(dir), opts_(std::move(opts)) {
  NUMARCK_EXPECT(fs::is_directory(dir_),
                 "not a checkpoint store directory: " + dir_);
  recover_open();
}

CheckpointStore::~CheckpointStore() { stop_compactor(); }

// ---------------------------------------------------------------- helpers --

namespace {

std::size_t entry_index(std::span<const EntryInfo> entries,
                        std::size_t iteration) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), iteration,
      [](const EntryInfo& e, std::size_t i) { return e.iteration < i; });
  NUMARCK_EXPECT(it != entries.end() && it->iteration == iteration,
                 "iteration not retained in store: " +
                     std::to_string(iteration));
  return static_cast<std::size_t>(it - entries.begin());
}

/// Index of the nearest reference-free entry at or before `index`.
std::size_t chain_start(std::span<const EntryInfo> entries, std::size_t index) {
  std::size_t start = index;
  while (!entries[start].reference_free) {
    NUMARCK_EXPECT(start > 0, "store entry has a broken delta chain");
    --start;
  }
  return start;
}

}  // namespace

std::vector<EntryInfo> CheckpointStore::snapshot() const {
  util::MutexLock lk(mu_);
  return entries_;
}

void CheckpointStore::publish_manifest(const std::vector<EntryInfo>& entries) {
  io::publish_envelope(dir_ + "/" + kManifestName, kStoreMagic,
                       serialize_store_body(vars_, entries), opts_.sink_factory);
}

void CheckpointStore::write_container(
    const std::string& file, double sim_time,
    std::span<const core::CompressedStep* const> steps) const {
  io::publish_via_tmp(
      dir_ + "/" + file, opts_.sink_factory,
      [&](std::unique_ptr<io::ByteSink> sink) {
        io::CheckpointWriter writer(std::move(sink), vars_, opts_.durability);
        for (std::size_t v = 0; v < vars_.size(); ++v) {
          writer.append(vars_[v], 0, sim_time, *steps[v]);
        }
        writer.close();
      });
}

EntryInfo CheckpointStore::write_standalone(
    const EntryInfo& entry, const core::ChainReplay& replayed) const {
  std::vector<core::CompressedStep> steps;
  std::vector<const core::CompressedStep*> ordered;
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    // full_from is lossless over the replayed state, so the rewritten entry
    // restores bit-exactly what the delta chain restored.
    steps.push_back(core::CompressedStep::full_from(replayed.state(v)));
  }
  for (const auto& step : steps) ordered.push_back(&step);
  EntryInfo out = entry;
  out.file = standalone_name(out.iteration);
  out.reference_free = true;
  write_container(out.file, out.sim_time, ordered);
  return out;
}

void CheckpointStore::install(std::vector<EntryInfo> entries,
                              const std::vector<std::string>& doomed,
                              const char* who) {
  std::vector<std::string> unlink_now;
  {
    util::MutexLock lk(mu_);
    entries_ = std::move(entries);
    for (const auto& file : doomed) {
      (pins_ > 0 ? unlink_queue_ : unlink_now).push_back(dir_ + "/" + file);
    }
  }
  // entries_ no longer names these files, so no later restore pins them.
  for (const auto& path : unlink_now) unlink_unreferenced(path, who);
}

// -------------------------------------------------------------- mutations --

void CheckpointStore::put(
    std::size_t iteration, double sim_time,
    const std::map<std::string, core::CompressedStep>& steps) {
  NUMARCK_EXPECT(steps.size() == vars_.size(),
                 "put needs a step for every store variable");
  std::vector<const core::CompressedStep*> ordered;
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
    ordered.push_back(&it->second);
  }
  util::MutexLock wlk(wmu_);
  std::vector<EntryInfo> entries = snapshot();
  NUMARCK_EXPECT(entries.empty() || iteration > entries.back().iteration,
                 "store iterations must be strictly ascending");
  NUMARCK_EXPECT(reference_free || !entries.empty(),
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
  if (!entries.empty() && entries.back().tier == Tier::kLatest) {
    entries.back().tier = Tier::kRolling;
  }
  entries.push_back(std::move(entry));
  publish_manifest(entries);
  install(std::move(entries), {}, "put");
}

void CheckpointStore::promote(std::size_t iteration, Tier tier) {
  NUMARCK_EXPECT(tier != Tier::kLatest,
                 "kLatest is assigned automatically; promote to "
                 "kBest/kEpoch or release to kRolling");
  util::MutexLock wlk(wmu_);
  std::vector<EntryInfo> entries = snapshot();
  const std::size_t idx = entry_index(entries, iteration);
  if (entries[idx].tier == tier) return;
  entries[idx].tier = tier;
  publish_manifest(entries);
  install(std::move(entries), {}, "promote");
}

PruneReport CheckpointStore::prune(std::size_t keep_last,
                                   std::size_t keep_every) {
  NUMARCK_EXPECT(keep_last >= 1, "prune keep_last must be >= 1");
  util::MutexLock wlk(wmu_);
  const std::vector<EntryInfo> entries = snapshot();
  PruneReport report;
  if (entries.empty()) return report;
  const std::size_t n = entries.size();

  // Rewrite every retained entry whose delta chain crosses a dropped one
  // BEFORE anything is deleted, while the chain is still replayable. The
  // rewrites of one chain are ascending targets of one replay, which decodes
  // each chain entry once; the next chain starts a new replay.
  std::optional<core::ChainReplay> replay;
  std::size_t replayed = 0;  // first entry the replay has not reached
  std::vector<EntryInfo> kept;
  std::vector<std::string> doomed;  // files to unlink after the publish
  bool chain_broken = false;  // the current chain crosses a dropped entry
  for (std::size_t i = 0; i < n; ++i) {
    EntryInfo e = entries[i];
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
      const std::size_t start = chain_start(entries, i);
      if (!replay || replayed <= start) {  // a new chain
        replay.emplace(std::vector<std::size_t>(vars_.size(), start));
        replayed = start;
      }
      scan_chain(*replay, entries, replayed, i, vars_, /*restore=*/false);
      replayed = i + 1;
      e = write_standalone(e, *replay);
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
  install(std::move(kept), doomed, "prune");
  return report;
}

bool CheckpointStore::compact_once() {
  util::MutexLock wlk(wmu_);
  std::vector<EntryInfo> entries = snapshot();
  // Oldest eligible delta-chain entry; the newest entry is the active chain
  // tail the next put appends to, so it is left alone.
  for (std::size_t i = 0; i + 1 < entries.size(); ++i) {
    const EntryInfo& e = entries[i];
    if (e.reference_free) continue;
    const bool eligible =
        e.tier == Tier::kEpoch || e.tier == Tier::kBest ||
        (opts_.epoch_every > 0 && e.iteration % opts_.epoch_every == 0);
    if (!eligible) continue;

    const std::size_t start = chain_start(entries, i);
    core::ChainReplay replay(std::vector<std::size_t>(vars_.size(), start));
    scan_chain(replay, entries, start, i, vars_, /*restore=*/false);
    EntryInfo merged = write_standalone(e, replay);
    if (merged.tier == Tier::kRolling) merged.tier = Tier::kEpoch;
    const std::vector<std::string> doomed = {e.file};
    entries[i] = std::move(merged);
    publish_manifest(entries);
    install(std::move(entries), doomed, "compactor");
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
  return std::move(restore(iteration, {variable}).front());
}

std::map<std::string, std::vector<double>> CheckpointStore::get(
    std::size_t iteration) const {
  std::vector<std::vector<double>> states = restore(iteration, vars_);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t v = 0; v < vars_.size(); ++v) {
    out[vars_[v]] = std::move(states[v]);
  }
  return out;
}

std::vector<EntryInfo> CheckpointStore::pin_chain(std::size_t iteration) const {
  util::MutexLock lk(mu_);
  const std::size_t index = entry_index(entries_, iteration);
  const auto first = entries_.begin();
  std::vector<EntryInfo> chain(
      first + static_cast<std::ptrdiff_t>(chain_start(entries_, index)),
      first + static_cast<std::ptrdiff_t>(index + 1));
  ++pins_;
  return chain;
}

void CheckpointStore::unpin() const noexcept {
  std::vector<std::string> doomed;
  {
    util::MutexLock lk(mu_);
    if (--pins_ == 0) doomed.swap(unlink_queue_);
  }
  // The manifest no longer names these files, so no later restore pins
  // them: they unlink outside the lock.
  for (const auto& path : doomed) unlink_unreferenced(path, "restore");
}

std::vector<std::vector<double>> CheckpointStore::restore(
    std::size_t iteration, const std::vector<std::string>& variables) const {
  const std::vector<EntryInfo> chain = pin_chain(iteration);
  struct Unpin {
    const CheckpointStore& store;
    ~Unpin() { store.unpin(); }
  } const unpin{*this};
  // Position p of the replay is chain[p]; every variable starts at 0, the
  // chain's reference-free entry.
  core::ChainReplay replay(std::vector<std::size_t>(variables.size(), 0));
  return scan_chain(replay, chain, 0, chain.size() - 1, variables,
                    /*restore=*/true);
}

std::vector<std::vector<double>> CheckpointStore::scan_chain(
    core::ChainReplay& replay, std::span<const EntryInfo> entries,
    std::size_t from, std::size_t to, const std::vector<std::string>& variables,
    bool restore) const {
  std::vector<std::unique_ptr<io::CheckpointReader>> readers;
  util::ThreadPool& pool = util::ThreadPool::global();
  for (std::size_t w0 = from;; w0 += kScanWindow) {
    const std::size_t w1 = std::min(to + 1, w0 + kScanWindow);
    // The previous window's descriptors close before this one's open.
    readers.clear();
    readers.resize(w1 - w0);
    util::parallel_chunks(
        pool, util::ChunkPlan(w0, w1, pool.size(), 1),
        [&](std::size_t, std::size_t i0, std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) {
            readers[i - w0] = std::make_unique<io::CheckpointReader>(
                dir_ + "/" + entries[i].file, io::TailPolicy::kStrict);
          }
        });
    // CRC-checked reads only: decode is the structural check, so each
    // record is parsed once.
    const auto load = [&](std::size_t v, std::size_t i) {
      return readers[i - w0]->read(variables[v], 0);
    };
    if (w1 > to && restore) return replay.restore(to, load);
    replay.replay_to(w1 - 1, load);
    if (w1 > to) return {};
  }
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
    util::MutexLock wlk(wmu_);
    if (kept.size() != found.files.size()) publish_manifest(kept);
    install(std::move(kept), {}, "recovery");
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
