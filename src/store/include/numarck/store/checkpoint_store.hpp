// Tiered checkpoint store — production retention over the container format.
//
// One simulation does not checkpoint into an ever-growing file: it keeps a
// *directory* of v2 containers (one standalone entry per retained iteration)
// governed by a single CRC-protected store manifest that is only ever
// published atomically (tmp + fsync + rename, the distributed-manifest
// discipline from docs/RESILIENCE.md). The manifest maps iterations to
// retention tiers:
//
//   kLatest   the newest entry — the default restart target;
//   kRolling  the recent window, pruned by keep_last;
//   kEpoch    every keep_every-th iteration, retained long-term and merged
//             into reference-free records by the background compactor;
//   kBest     operator-pinned iterations (a converged state, a known-good
//             restart point); never pruned, promotion is a manifest-only
//             transaction.
//
// An entry is acknowledged exactly when the manifest naming it is published;
// everything else in the directory — interrupted `*.tmp` publishes, renamed
// containers whose manifest publish never happened, compactor temporaries —
// is swept or quarantined when the store opens, so recovery is the default,
// not a repair verb. Pruning deletes files only *after* the shrunken
// manifest is durable, and first rewrites any retained entry whose delta
// chain would cross a deleted one into a standalone reference-free container
// (the restart-from-newest property makes that a bit-exact local rewrite):
// the manifest can never name a missing file, and every retained checkpoint
// restarts standalone. Byte layout in docs/FORMAT.md §8; crash matrix in
// docs/RESILIENCE.md "Tiered store".
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "numarck/core/compressor.hpp"
#include "numarck/io/durable_file.hpp"
#include "numarck/util/thread_annotations.hpp"

namespace numarck::store {

enum class Tier : std::uint8_t {
  kLatest = 0,   ///< newest entry: the default restart target
  kRolling = 1,  ///< recent window, pruned by keep_last
  kEpoch = 2,    ///< periodic long-term retention (keep_every)
  kBest = 3,     ///< operator-pinned; never pruned
};

const char* to_string(Tier t) noexcept;

struct StoreOptions {
  /// fsync schedule for container writes (docs/RESILIENCE.md). Manifest
  /// publishes are always tmp+fsync+rename regardless of this policy.
  io::Durability durability = io::Durability::kFsyncPerIteration;

  /// Iteration stride at which the compactor promotes rolling entries to the
  /// epoch tier and merges their delta chains into reference-free records
  /// (0 = compact only entries already tiered kEpoch/kBest).
  std::size_t epoch_every = 0;

  /// Idle period between background compactor scans.
  std::chrono::milliseconds compact_interval{100};

  /// Transient-I/O retry budget of one compaction attempt: after this many
  /// consecutive failures the compactor parks (status records the error)
  /// instead of hammering a sick disk.
  std::size_t compact_retry_limit = 5;

  /// Base of the exponential backoff between compactor retries.
  std::chrono::milliseconds compact_backoff{5};

  /// Sink for every file the store writes (container and manifest
  /// temporaries); see io::SinkFactory.
  io::SinkFactory sink_factory;
};

/// One manifest entry: a retained checkpoint iteration.
struct EntryInfo {
  std::size_t iteration = 0;
  Tier tier = Tier::kRolling;
  double sim_time = 0.0;
  /// Container file name, relative to the store directory.
  std::string file;
  /// True when every record is a full or spatial (non-temporal) record, so
  /// this entry restarts standalone without replaying predecessor entries.
  bool reference_free = false;
};

/// What open-time recovery found (and did) in the directory.
enum class RecoveryIssue : std::uint8_t {
  kStaleTmp = 0,     ///< interrupted tmp+rename publish; tmp deleted
  kOrphan = 1,       ///< container never acknowledged by a manifest
  kTorn = 2,         ///< manifest entry whose container has a damaged tail
  kMissing = 3,      ///< manifest entry whose container is gone
  kUnreadable = 4,   ///< container header/table disagrees with the manifest
  kChainBroken = 5,  ///< entry whose delta chain crosses a dropped entry
};

const char* to_string(RecoveryIssue issue) noexcept;

struct RecoveryEvent {
  RecoveryIssue issue = RecoveryIssue::kStaleTmp;
  std::string file;    ///< name relative to the store directory
  std::string action;  ///< "deleted" | "quarantined" | "dropped"
  std::string detail;  ///< human-readable cause
};

struct PruneReport {
  std::size_t kept = 0;
  std::size_t dropped = 0;
  /// Retained entries rewritten standalone because their chain crossed a
  /// dropped entry.
  std::size_t rewritten = 0;
};

struct CompactorStatus {
  std::size_t cycles = 0;       ///< scans performed
  std::size_t compactions = 0;  ///< entries merged into reference-free form
  std::size_t consecutive_failures = 0;
  bool parked = false;  ///< gave up after compact_retry_limit failures
  std::string last_error;
};

class CheckpointStore {
 public:
  static constexpr const char* kManifestName = "store.manifest";
  static constexpr const char* kQuarantineDir = "quarantine";

  /// Creates a new store: makes `dir` (and parents) and publishes an empty
  /// manifest for `variables`. Throws if a manifest already exists there.
  CheckpointStore(const std::string& dir,
                  const std::vector<std::string>& variables,
                  StoreOptions opts = {});

  /// Opens an existing store, recovering by default: sweeps stale `*.tmp`
  /// publishes, quarantines torn containers and manifest/directory
  /// disagreements (each logged and itemized in recovery_report()), and
  /// republishes the repaired manifest. Only a missing or CRC-corrupt
  /// manifest throws — everything below it degrades, never aborts.
  explicit CheckpointStore(const std::string& dir, StoreOptions opts = {});

  ~CheckpointStore();

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Stores one checkpoint: a codec-tagged step per variable (every store
  /// variable exactly once), written to a fresh container and acknowledged
  /// by an atomic manifest publish — when put() returns, the checkpoint
  /// survives process death. `iteration` must exceed the current latest.
  /// Temporal delta steps chain against the previous entry (the caller fed
  /// them from a compressor in stream order); the first entry, and any entry
  /// after a gap in that stream, must be reference-free.
  void put(std::size_t iteration, double sim_time,
           const std::map<std::string, core::CompressedStep>& steps)
      EXCLUDES(mu_);

  /// Reconstructs every variable at a retained iteration, replaying the
  /// entry's delta chain from its nearest reference-free predecessor.
  [[nodiscard]] std::map<std::string, std::vector<double>> get(
      std::size_t iteration) const EXCLUDES(mu_);

  [[nodiscard]] std::vector<double> get_variable(const std::string& variable,
                                                 std::size_t iteration) const
      EXCLUDES(mu_);

  /// Manifest entries, ascending by iteration.
  [[nodiscard]] std::vector<EntryInfo> list() const EXCLUDES(mu_);

  /// Newest retained iteration (the restart target); nullopt when empty.
  [[nodiscard]] std::optional<std::size_t> latest() const EXCLUDES(mu_);

  /// Retention sweep: keeps the newest entry, the last `keep_last` entries,
  /// every iteration divisible by `keep_every` (0 = none, they become
  /// kEpoch), and every kBest entry; deletes the rest. A retained entry
  /// whose delta chain crosses a deleted one is first rewritten standalone
  /// (bit-exact), and files are unlinked only after the shrunken manifest is
  /// durable — a crash at any instruction leaves no manifest entry naming a
  /// missing file. Tiers other than kBest are recomputed by this sweep.
  PruneReport prune(std::size_t keep_last, std::size_t keep_every)
      EXCLUDES(mu_);

  /// Manifest-only tier transaction (no payload I/O): pins `iteration` as
  /// kBest or kEpoch, or releases it back to kRolling.
  void promote(std::size_t iteration, Tier tier) EXCLUDES(mu_);

  /// One synchronous compaction step: merges the oldest eligible delta-chain
  /// entry (kEpoch/kBest, or matching epoch_every) into a standalone
  /// reference-free container and swaps it in with a manifest publish.
  /// Returns false when nothing is eligible. The background compactor calls
  /// exactly this, so tools can drain compaction work deterministically.
  bool compact_once() EXCLUDES(mu_);

  /// Starts the background compactor thread. It scans every
  /// compact_interval, retries transient I/O errors with exponential
  /// backoff, and parks after compact_retry_limit consecutive failures.
  /// start/stop must be called from one controlling thread.
  void start_compactor();

  /// Stops and joins the compactor; idempotent, returns once it exited.
  void stop_compactor();

  [[nodiscard]] CompactorStatus compactor_status() const EXCLUDES(cmu_);

  [[nodiscard]] const std::vector<std::string>& variables() const noexcept {
    return vars_;
  }

  /// Everything open-time recovery swept, quarantined, or dropped.
  [[nodiscard]] const std::vector<RecoveryEvent>& recovery_report()
      const noexcept {
    return recovery_;
  }

  [[nodiscard]] const std::string& directory() const noexcept { return dir_; }

 private:
  void recover_open();
  void publish_manifest(const std::vector<EntryInfo>& entries) REQUIRES(mu_);
  /// Publishes one container holding `steps[v]` for every store variable v.
  void write_container(const std::string& file, double sim_time,
                       const std::vector<core::CompressedStep>& steps) const;
  [[nodiscard]] std::size_t entry_index(std::size_t iteration) const
      REQUIRES(mu_);
  /// Replays `variables` to entry `index` from its nearest reference-free
  /// predecessor, continuing where `replay` stands when it is on that chain.
  void replay_locked(core::ChainReplay& replay, std::size_t index,
                     const std::vector<std::string>& variables) const
      REQUIRES(mu_);
  /// Writes entry `index`, replayed over every store variable in `replayed`,
  /// as a standalone reference-free container; returns the updated entry.
  /// entries_ is not modified.
  [[nodiscard]] EntryInfo write_standalone_locked(
      std::size_t index, const core::ChainReplay& replayed) const
      REQUIRES(mu_);
  void compactor_loop();

  std::string dir_;
  StoreOptions opts_;               ///< immutable after construction
  std::vector<std::string> vars_;   ///< immutable after construction
  std::vector<RecoveryEvent> recovery_;  ///< immutable after construction

  mutable util::Mutex mu_;
  std::vector<EntryInfo> entries_ GUARDED_BY(mu_);

  mutable util::Mutex cmu_;
  std::condition_variable cv_;
  bool stop_compactor_ GUARDED_BY(cmu_) = false;
  CompactorStatus cstatus_ GUARDED_BY(cmu_);
  /// Managed only by the controlling thread (start/stop/destructor).
  std::thread compactor_;
};

// ------------------------------------------------------------- inspection --

/// Health of one manifest-referenced container, as found on disk.
enum class FileHealth : std::uint8_t {
  kIntact = 0,
  kTorn = 1,
  kMissing = 2,
  kUnreadable = 3,
};

const char* to_string(FileHealth health) noexcept;

struct StoreFileInfo {
  EntryInfo entry;
  FileHealth health = FileHealth::kIntact;
  std::uint64_t bytes = 0;
  std::string detail;  ///< cause, for anything not kIntact
};

struct StoreInspection {
  std::vector<std::string> variables;
  std::vector<StoreFileInfo> files;        ///< manifest entries, in order
  std::vector<std::string> stale_tmps;     ///< present, NOT removed
  std::vector<std::string> orphans;        ///< present, NOT moved
  std::vector<std::string> quarantined;    ///< contents of quarantine/
};

/// Read-only store inspection: parses the manifest and probes every file
/// without mutating the directory — what `numarck-inspect DIR` and operators
/// triaging a degraded store use before deciding to open (and thus repair).
[[nodiscard]] StoreInspection inspect_store(const std::string& dir);

}  // namespace numarck::store
