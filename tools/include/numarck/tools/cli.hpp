// Implementation library behind the command-line tools. All logic lives
// here (unit-testable); the tool mains only parse flags and call these.
//
//   numarck-compress   raw binary float64 iterations -> .ckpt container
//   numarck-inspect    .ckpt container -> human-readable summary
//   numarck-restore    .ckpt container -> reconstructed raw float64 snapshot
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "numarck/core/options.hpp"

namespace numarck::tools {

/// Lossless post-pass selection exposed as `--postpass` on the tools.
///   none     store every stream raw (fastest encode/restore)
///   huffman  the v1 coder set: Huffman indices + RLE ζ + FPC exact values
///   rans     rANS-or-raw indices (no Huffman fallback) + RLE + FPC
///   auto     full coder set; the histogram heuristic arbitrates per record
enum class PostpassMode : std::uint8_t { kNone, kHuffman, kRans, kAuto };

/// Parses "none" | "huffman" | "rans" | "auto"; throws on anything else.
PostpassMode parse_postpass(const std::string& name);

/// The coder set each mode enables (see core::Postpass).
core::Postpass to_postpass(PostpassMode mode);

struct CompressJob {
  std::string input_path;       ///< raw little-endian float64 stream
  std::string output_path;      ///< checkpoint container to write
  std::size_t points_per_iteration = 0;  ///< 0 = whole file is one iteration
  std::string variable = "data";
  core::Options options;
  /// Lossless post-pass applied to delta records.
  PostpassMode postpass = PostpassMode::kAuto;
};

struct CompressReport {
  std::size_t iterations = 0;
  std::size_t points_per_iteration = 0;
  std::size_t input_bytes = 0;
  std::size_t output_bytes = 0;
  double mean_gamma = 0.0;          ///< over delta records
  double mean_paper_ratio = 0.0;    ///< Eq. 3, over delta records
};

/// Compresses a raw file of consecutive float64 iterations into a container.
/// Throws ContractViolation on malformed input (size not a multiple of the
/// iteration length, unreadable paths, ...).
CompressReport compress_file(const CompressJob& job);

/// Prints a container summary (variables, per-record table, totals).
void inspect_file(const std::string& checkpoint_path, std::ostream& out);

struct RestoreJob {
  std::string checkpoint_path;
  std::string output_path;      ///< raw float64 snapshot written here
  std::string variable;         ///< empty = the container's only variable
  /// Iteration to restore; nullopt = the last complete iteration (the
  /// restart-after-crash default).
  std::optional<std::size_t> iteration;
  /// Abort on any structural damage instead of salvaging the intact prefix.
  /// Restore is a restart path, so salvage is the default; --strict turns
  /// the tool into an integrity checker.
  bool strict = false;
  /// When non-empty, require every delta record used in the restore to carry
  /// this codec; a mismatch aborts with a clear message instead of silently
  /// restoring data encoded by a different backend.
  std::string expected_codec;
};

struct RestoreReport {
  std::size_t points = 0;       ///< points written to output_path
  std::size_t iteration = 0;    ///< iteration actually restored
  bool tail_damaged = false;    ///< salvage dropped a torn tail
  /// Latest iteration every variable has a record for (nullopt when even
  /// the first one is damaged — nothing restorable).
  std::optional<std::size_t> last_complete;
};

/// Reconstructs one variable at one iteration and writes it as raw float64.
/// Under salvage (default) a torn tail is reported, not fatal: the restore
/// succeeds for any iteration at or before last_complete.
RestoreReport restore_file(const RestoreJob& job);

/// Parses a strategy name ("equal-width" | "log-scale" | "clustering").
core::Strategy parse_strategy(const std::string& name);

/// Parses a predictor name ("previous" | "linear").
core::Predictor parse_predictor(const std::string& name);

/// Parses a codec name ("numarck" | "fpc" | "isabela" | "bspline" | "auto")
/// into its wire id. "auto" maps to codec::kAutoId, which only the adaptive
/// checkpointing API accepts; compress/compact reject it with a clear message.
std::uint8_t parse_codec(const std::string& name);

/// Parses a K-means engine name ("histogram" | "exact").
/// "exact" is the sorted-boundary 1-D specialization; "histogram" the
/// resolution-bounded default (see cluster/kmeans1d.hpp).
cluster::KMeansEngine parse_kmeans_engine(const std::string& name);

struct CompactJob {
  std::string input_path;
  std::string output_path;
  /// Keep every stride-th checkpoint iteration (1 = all, 4 = quarter, ...).
  std::size_t keep_stride = 4;
  /// Codec for the re-encoded delta chain; error bounds COMPOUND with the
  /// original file's bound (reconstruct -> re-encode), so pick accordingly.
  core::Options options;
  PostpassMode postpass = PostpassMode::kAuto;
};

struct CompactReport {
  std::size_t input_iterations = 0;
  std::size_t kept_iterations = 0;
  std::size_t input_bytes = 0;
  std::size_t output_bytes = 0;
};

/// Retention compaction: reconstructs every kept iteration of every variable
/// from the input container and writes a fresh container with a new
/// full + delta chain. Used to thin long histories (keep dailies for a week,
/// weeklies forever, ...).
CompactReport compact_file(const CompactJob& job);

/// `numarck-restore --list`: prints what is salvageable without restoring
/// anything. For a single container: the variables, every iteration's record
/// coverage, and the last complete (safe restart) iteration. For a
/// distributed checkpoint base (no file at `path` but `<path>.manifest`
/// exists): the per-rank damage report and the last globally complete
/// iteration. Read-only in both cases.
void list_checkpoint(const std::string& path, std::ostream& out);

// ------------------------------------------------------------ tiered store --

/// `numarck-inspect DIR` / `numarck-store list`: prints the store's tier
/// table (iteration, tier, sim-time, file, standalone/delta) with per-file
/// health, plus any stale temporaries, unacknowledged orphans, and
/// quarantined files. Read-only: nothing is repaired.
void inspect_store_dir(const std::string& dir, std::ostream& out);

struct StorePutJob {
  std::string dir;
  std::string input_path;  ///< raw little-endian float64 snapshot
  std::size_t iteration = 0;
  double sim_time = 0.0;
  /// Variable for `create` when the store does not exist yet; must match
  /// the store's variable afterwards.
  std::string variable = "data";
};

/// Stores one raw snapshot as a lossless full (reference-free) entry,
/// creating the store on first use. Returns the entry count after the put.
std::size_t store_put(const StorePutJob& job);

struct StoreRestoreJob {
  std::string dir;
  std::string output_path;
  /// Iteration to restore; nullopt = the newest retained entry.
  std::optional<std::size_t> iteration;
  std::string variable;  ///< empty = the store's only variable
};

struct StoreRestoreReport {
  std::size_t points = 0;
  std::size_t iteration = 0;
};

/// Reconstructs one retained iteration (replaying its delta chain) and
/// writes it as raw float64.
StoreRestoreReport store_restore(const StoreRestoreJob& job);

struct StorePruneJob {
  std::string dir;
  std::size_t keep_last = 4;
  std::size_t keep_every = 0;
};

/// Retention sweep over the store; prints the kept/dropped/rewritten counts.
void store_prune(const StorePruneJob& job, std::ostream& out);

/// Manifest-only tier transaction. `tier` is "best" | "epoch" | "rolling".
void store_promote(const std::string& dir, std::size_t iteration,
                   const std::string& tier, std::ostream& out);

/// Drains all pending compaction work synchronously (the same merges the
/// background compactor performs); prints how many entries were merged.
void store_compact(const std::string& dir, std::ostream& out);

}  // namespace numarck::tools
